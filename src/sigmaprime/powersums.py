"""ψ divisor sums and coprime-residue power sums.

psi(s, n) is the Moebius-weighted divisor power sum Σ_{d|n} μ(d) d**s,
which factors as Π_{p|n} (1 - p**s).  coprime_power_sum(k, n) is
S_k(n) = Σ t**k over 1 <= t < n with gcd(t, n) = 1, computable by three
independent routes that the test suite plays against each other:

* ``direct``            literal enumeration of coprime residues,
* ``moebius_faulhaber`` Moebius inversion with Bernoulli-expanded inner sums,
* ``closed_table``      a frozen table of closed forms in ψ for 0 <= k <= 12.

The closed forms are stored as ClosedForm values rather than code so the
identity verifier and the pattern fitter share one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import arith, lattice
from .arith import BudgetExceededError, divisors, factorize, faulhaber_sum, mobius

__all__ = [
    "psi",
    "coprime_power_sum",
    "ClosedForm",
    "COPRIME_POWER_FORMS",
    "POWER_SUM_METHODS",
]

POWER_SUM_METHODS = ("direct", "moebius_faulhaber", "closed_table")


@lru_cache(maxsize=None)
def psi(s: int, n: int) -> Fraction:
    """psi_s(n) = Σ_{d|n} μ(d) d**s as an exact Fraction.

    Equals the product of (1 - p**s) over distinct primes p | n, and 1 at
    n = 1.  The order s may be negative but not zero (at s = 0 the sum
    collapses to 0 for every n > 1 and the closed forms below would lose
    their meaning).  Raises BudgetExceededError, before any power, when
    |s| * n.bit_length() is above 2**20 bits.
    """
    if s == 0:
        raise ValueError("psi order s must be nonzero")
    if n < 1:
        raise ValueError(f"psi requires n >= 1, got {n}")
    if abs(s) * n.bit_length() > arith._POWER_BITS_LIMIT:
        raise BudgetExceededError(
            f"psi({s}, {n}) needs powers of more than {arith._POWER_BITS_LIMIT} bits"
        )
    out = Fraction(1)
    for p, _ in factorize(n):
        out *= 1 - Fraction(p) ** s
    return out


@dataclass(frozen=True)
class ClosedForm:
    """Exact linear combination Σ c · n**p · psi_order(n).

    ``terms`` is a tuple of (coefficient, n_power, psi_order) triples with
    Fraction coefficients.  Forms of this shape are only meaningful for
    n >= 2 (they rely on the ψ_0 term vanishing, which needs n > 1).
    """

    terms: tuple[tuple[Fraction, int, int], ...]

    def evaluate(self, n: int) -> Fraction:
        if n < 2:
            raise ValueError(f"closed forms are defined for n >= 2, got {n}")
        total = Fraction(0)
        for coeff, power, order in self.terms:
            # an int power keeps the product exact and skips Fraction's own pow;
            # int ** negative int would be a float, so those stay Fractions
            scale = n**power if power >= 0 else Fraction(1, n**-power)
            total += coeff * scale * psi(order, n)
        return total


def _form(*terms: tuple[int, int, int, int]) -> ClosedForm:
    # each literal term is (numerator, denominator, n_power, psi_order)
    return ClosedForm(tuple((Fraction(a, b), p, s) for a, b, p, s in terms))


# Closed forms for S_k(n), k = 0 .. 12.  Coefficients are kept as the
# fractions they are usually quoted with; Fraction normalizes them anyway.
COPRIME_POWER_FORMS: dict[int, ClosedForm] = {
    0: _form((1, 1, 1, -1)),
    1: _form((1, 2, 2, -1)),
    2: _form((1, 3, 3, -1), (1, 6, 1, 1)),
    3: _form((1, 4, 4, -1), (1, 4, 2, 1)),
    4: _form((1, 5, 5, -1), (1, 3, 3, 1), (-1, 30, 1, 3)),
    5: _form((1, 6, 6, -1), (5, 12, 4, 1), (-1, 12, 2, 3)),
    6: _form((1, 7, 7, -1), (1, 2, 5, 1), (-1, 6, 3, 3), (1, 42, 1, 5)),
    7: _form((1, 8, 8, -1), (7, 12, 6, 1), (-7, 24, 4, 3), (7, 84, 2, 5)),
    8: _form(
        (1, 9, 9, -1),
        (2, 3, 7, 1),
        (-7, 15, 5, 3),
        (2, 9, 3, 5),
        (-1, 30, 1, 7),
    ),
    9: _form(
        (1, 10, 10, -1),
        (3, 4, 8, 1),
        (-7, 10, 6, 3),
        (1, 2, 4, 5),
        (-3, 20, 2, 7),
    ),
    10: _form(
        (1, 11, 11, -1),
        (5, 6, 9, 1),
        (-1, 1, 7, 3),
        (1, 1, 5, 5),
        (-1, 2, 3, 7),
        (5, 66, 1, 9),
    ),
    11: _form(
        (1, 12, 12, -1),
        (11, 12, 10, 1),
        (-11, 8, 8, 3),
        (11, 6, 6, 5),
        (-11, 8, 4, 7),
        (5, 12, 2, 9),
    ),
    12: _form(
        (1, 13, 13, -1),
        (1, 1, 11, 1),
        (-11, 6, 9, 3),
        (22, 7, 7, 5),
        (-33, 10, 5, 7),
        (5, 3, 3, 9),
        (-691, 2730, 1, 11),
    ),
}


def coprime_power_sum(k: int, n: int, method: str = "direct") -> int:
    """S_k(n): sum of t**k over 1 <= t < n with gcd(t, n) = 1.

    ``method`` selects one of the three independent routes listed in the
    module docstring.  The closed table covers 0 <= k <= 12 only; the other
    two routes take any k >= 0.  Requires n >= 2.  The direct route raises
    BudgetExceededError before it loops when its n terms, each weighted by the
    bit length of n**k as the convolution oracle weighs its powers, exceed the
    oracle's work limit.
    """
    if n < 2:
        raise ValueError(f"coprime_power_sum requires n >= 2, got {n}")
    if k < 0:
        raise ValueError(f"coprime_power_sum requires k >= 0, got {k}")
    if method == "direct":
        work = n * (1 + k * n.bit_length() // lattice._WORD_BITS)
        if work > lattice._WORK_LIMIT:
            raise BudgetExceededError(
                f"the direct power sum needs {work} units of work, "
                f"the limit is {lattice._WORK_LIMIT}"
            )
        return sum(t**k for t in range(1, n) if gcd(t, n) == 1)
    if method == "moebius_faulhaber":
        total = 0
        for d in divisors(n):
            mu = mobius(d)
            if mu:
                total += mu * d**k * faulhaber_sum(k, n // d)
        return total
    if method == "closed_table":
        if k > 12:
            raise ValueError(f"closed_table covers 0 <= k <= 12, got k = {k}")
        value = COPRIME_POWER_FORMS[k].evaluate(n)
        if value.denominator != 1:
            raise ArithmeticError(f"closed form for k = {k} came out non-integral at n = {n}")
        return int(value)
    raise ValueError(f"unknown power sum method {method!r}")
