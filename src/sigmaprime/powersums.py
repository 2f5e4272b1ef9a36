"""ψ divisor sums and coprime-residue power sums.

psi(s, n) is the Moebius-weighted divisor power sum Σ_{d|n} μ(d) d**s,
which factors as Π_{p|n} (1 - p**s).  coprime_power_sum(k, n) is
S_k(n) = Σ t**k over 1 <= t < n with gcd(t, n) = 1, computable by three
independent routes that the test suite plays against each other:

* ``direct``            literal enumeration of coprime residues,
* ``moebius_faulhaber`` Moebius inversion with Bernoulli-expanded inner sums,
* ``closed_table``      a frozen table of closed forms in ψ for 0 <= k <= 12.

The direct route finds the primes of n by its own trial division and walks
range(n) in blocks of _DIRECT_BLOCK residues.  In each block it strikes every
multiple of each prime from a bytearray by slice assignment, then sums t**k
over the residues left standing, so the coprimality test runs in C and memory
stays one block whatever n is.  The one-gcd-per-residue form is its oracle in
the tests.

The closed forms are stored as ClosedForm values rather than code so the
identity verifier and the pattern fitter share one representation.
ClosedForm.evaluate factorizes n once and adds every term as a plain int
over one common denominator, building a single Fraction at the end; a
whole point set is evaluated in one call that reads the form's layout once.
psi, the literal Fraction product, is the reference the tests hold it to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import lcm, prod
from typing import NamedTuple, Sequence

from . import arith
from .arith import _divisors_of, factorize, faulhaber_sum, mobius

__all__ = [
    "psi",
    "coprime_power_sum",
    "ClosedForm",
    "COPRIME_POWER_FORMS",
    "POWER_SUM_METHODS",
]

POWER_SUM_METHODS = ("direct", "moebius_faulhaber", "closed_table")


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
        arith._refuse_power_bits("psi", s, n)
    out = Fraction(1)
    for p, _ in factorize(n):
        out *= 1 - Fraction(p) ** s
    return out


class _ClosedForm(NamedTuple):
    terms: tuple[tuple[Fraction, int, int], ...]


class ClosedForm(_ClosedForm):
    """Exact linear combination Σ c · n**p · psi_order(n).

    ``terms`` is a tuple of (coefficient, n_power, psi_order) triples with
    Fraction coefficients.  Forms of this shape are only meaningful for
    n >= 2 (they rely on the ψ_0 term vanishing, which needs n > 1).

    evaluate(n) puts every term over L * rad(n)**a * n**b, L the lcm of the
    coefficient denominators, a the largest negative psi order and b the
    largest negative n power, so the sum is one of plain ints.  A positive
    order o gives ψ_o(n) = Π (1 - p**o) and a negative one Π (p**-o - 1) /
    rad(n)**-o.  L, a, b and the scaled numerators depend on the form alone
    and are computed once, when it is made, as is the grouping of the terms
    by psi order.  It refuses what psi refuses, in psi's order and words,
    for every term before n is factorized.  evaluate(n) is the private
    point-set call _values at (n,): over a whole set it checks the
    refusals once at the largest n and takes each distinct order's ψ once
    per n, so the ansatz's two ψ_{-1} columns share one product.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__

    def __new__(cls, terms: tuple[tuple[Fraction, int, int], ...]):
        self = tuple.__new__(cls, (terms,))
        # L, a, b and each coefficient's numerator over L: all that evaluate
        # reads of the coefficients, computed once per form
        common = lcm(*(coeff.denominator for coeff, _, _ in terms))
        a = max([0, *(-order for _, _, order in terms)])
        b = max([0, *(-power for _, power, _ in terms)])
        numerators = tuple(coeff.numerator * (common // coeff.denominator) for coeff, _, _ in terms)
        # the terms grouped by psi order, in order of first appearance, each
        # with its (numerator over L, n power + b) pairs
        groups: dict[int, list[tuple[int, int]]] = {}
        for (_, power, order), numerator in zip(terms, numerators):
            groups.setdefault(order, []).append((numerator, power + b))
        self._scaled = (common, a, b, tuple(groups.items()))
        return self

    def evaluate(self, n: int) -> Fraction:
        return self._values((n,))[0]

    def _values(self, ns: Sequence[int]) -> list[Fraction]:
        # evaluate(n) for every n of ns, in order.  psi's refusals, each term in
        # turn (a refusal depends on the order alone, so each distinct order in
        # turn), are checked before any n is factorized: a power's length grows
        # with n, so they are checked once at max(ns), and only a set with a
        # refusal is walked in order to name the first refused n
        common, a, b, groups = self._scaled
        limit = arith._POWER_BITS_LIMIT
        if ns and (min(ns) < 2 or any(not o or abs(o) * max(ns).bit_length() > limit for o, _ in groups)):
            for n in ns:
                if n < 2:
                    raise ValueError(f"closed forms are defined for n >= 2, got {n}")
                for order, _ in groups:
                    if order == 0:
                        raise ValueError("psi order s must be nonzero")
                    if abs(order) * n.bit_length() > limit:
                        arith._refuse_power_bits("psi", order, n)
        if not groups:
            return [Fraction(0)] * len(ns)
        out = []
        for n in ns:
            primes = [p for p, _ in factorize(n)]
            rad = prod(primes)
            scale = rad**a
            total = 0
            for order, pairs in groups:
                if order > 0:
                    scaled_psi = prod([1 - p**order for p in primes]) * scale
                else:
                    scaled_psi = prod([p**-order - 1 for p in primes]) * rad ** (a + order)
                factor = 0
                for numerator, power in pairs:
                    factor += numerator * n**power
                total += factor * scaled_psi
            out.append(Fraction(total, common * scale * n**b))
        return out


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


# The direct route strikes composites from one block of this many residues at
# a time, so its bytearray stays 64 KiB however large n is.
_DIRECT_BLOCK = 2**16


def _direct_power_sum(k: int, n: int) -> int:
    """S_k(n) by literal enumeration of the residues t < n prime to n.

    The primes of n come from trial division here rather than arith, so the
    route stays independent of the kernel that the other two routes read.
    Each block of range(n) keeps a byte per residue; every multiple of a
    prime of n (t = 0 among them) is struck, and t**k is summed over the rest
    in one pow map, a power per kept residue.
    """
    primes = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    total = 0
    for lo in range(0, n, _DIRECT_BLOCK):
        size = min(_DIRECT_BLOCK, n - lo)
        keep = bytearray(b"\x01") * size
        for p in primes:
            first = -lo % p
            keep[first::p] = bytes(len(range(first, size, p)))
        total += sum(map(pow, compress(range(lo, lo + size), keep), repeat(k)))
    return total


# One term of the Moebius route, a few Fraction operations, costs this many
# units of work before its bit weight.  Cold, the largest admitted k took 1.2 s
# at n = 7 (k = 615) and 1.4 s at n = 30030 (k = 476), each at 16 MB peak RSS;
# (800, 7), which took 2.7 s, is estimated at 2.1e7 units and refused (2-CPU
# container, Python 3.11.7).  Every k <= 12 at n <= 10**12 costs under 2.2e5.
_FRACTION_TERM_COST = 8


def _moebius_work(k: int, n: int) -> int:
    """Estimated work of the cold Moebius route for S_k(n).

    bernoulli's recurrence takes j terms for each even j <= k, about
    (k + 1)**2 / 4 in all, and faulhaber_sum k + 1 terms for each
    squarefree divisor of n.  A term's numbers reach about max(k, n)**(k + 1),
    as B_k grows like k**k, so each is weighted by that length.
    """
    terms = (k + 1) * ((k + 1) // 4 + 2 ** len(factorize(n)))
    return _FRACTION_TERM_COST * terms * arith._bit_weight(k + 1, max(k, n))


def coprime_power_sum(k: int, n: int, method: str = "direct") -> int:
    """S_k(n): sum of t**k over 1 <= t < n with gcd(t, n) = 1.

    ``method`` selects one of the three independent routes listed in the
    module docstring.  The closed table covers 0 <= k <= 12 only; the other
    two routes take any k >= 0.  Requires n >= 2.  The direct route strikes
    the multiples of n's primes from range(n) block by block and sums t**k
    over the residues that remain.  Two routes raise
    BudgetExceededError before their work when its estimate exceeds the work
    limit: the direct route counts its n terms, each weighted by the square
    of the bit weight of n**k, and the Moebius route the estimate of
    _moebius_work.
    """
    if n < 2:
        raise ValueError(f"coprime_power_sum requires n >= 2, got {n}")
    if k < 0:
        raise ValueError(f"coprime_power_sum requires k >= 0, got {k}")
    if method == "direct":
        # n terms, each weighted by the square of n**k's bit weight, as a power
        # costs more than its length; k <= 21 keeps weight 1 up to n = 10**7.
        # There k = 0 took 0.51 s and k = 21, the slowest admitted call,
        # 1.9-2.6 s; along the bound (76, 10**6) took 0.47 s, (1133, 10**4)
        # 0.21 s and (5119, 1000) 0.08 s.  (10007, 10007), which ran 19.9 s
        # under n times the weight, is refused at 7.5e8 units, as are
        # (200000, 1000) and (1000000, 100) (2-CPU container, Python 3.11.7).
        work = n * arith._bit_weight(k, n) ** 2
        arith._check_work(work, "the direct power sum needs {work} units of work")
        return _direct_power_sum(k, n)
    if method == "moebius_faulhaber":
        work = _moebius_work(k, n)
        arith._check_work(work, "the Moebius-Faulhaber power sum needs about {work} units of work")
        # mu(d) is 0 off the squarefree d, which are the divisors of n's primes
        squarefree = _divisors_of([(p, 1) for p, _ in factorize(n)])
        return sum(mobius(d) * d**k * faulhaber_sum(k, n // d) for d in squarefree)
    if method == "closed_table":
        if k > 12:
            raise ValueError(f"closed_table covers 0 <= k <= 12, got k = {k}")
        value = COPRIME_POWER_FORMS[k].evaluate(n)
        if value.denominator != 1:
            raise ArithmeticError(f"closed form for k = {k} came out non-integral at n = {n}")
        return int(value)
    raise ValueError(f"unknown power sum method {method!r}")
