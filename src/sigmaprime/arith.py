"""Exact integer arithmetic: factorization, divisors, the classical
multiplicative functions (μ, φ, σ_k), Bernoulli numbers, and Faulhaber
power sums.

Everything is pure and exact.  Python ints are unbounded and Fraction keeps
rationals in lowest terms, so no tolerance knobs appear anywhere.  The
memoized functions use functools.lru_cache, whose get-or-insert is atomic
under CPython; concurrent callers at worst duplicate a computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "factorize",
    "divisors",
    "mobius",
    "totient",
    "sigma_k",
    "sigma_convolution",
    "bernoulli",
    "faulhaber_sum",
]

# Trial-division increments that skip multiples of 2, 3 and 5, starting at 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending.

    factorize(1) == ().  Deterministic trial division with a 2/3/5 wheel;
    fine for desk-scale inputs.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f, i = 7, 0
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += _WHEEL[i]
        i = (i + 1) % 8
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    """Euler phi.  phi(1) == 1; for n > 1 this equals n times the product of
    (1 - 1/p) over the primes p dividing n."""
    if n < 1:
        raise ValueError(f"totient requires n >= 1, got {n}")
    phi = n
    for p, _ in factorize(n):
        phi = phi // p * (p - 1)
    return phi


@lru_cache(maxsize=None)
def sigma_k(k: int, n: int) -> int:
    """Divisor power sum: sum of d**k over d | n.  Returns 0 for n <= 0.

    The zero return on nonpositive arguments is a deliberate convention so
    convolution sums can run over an unguarded index range.
    """
    if k < 0:
        raise ValueError(f"sigma_k requires k >= 0, got {k}")
    if n <= 0:
        return 0
    total = 1
    for p, e in factorize(n):
        if k == 0:
            total *= e + 1
        else:
            total *= (p ** (k * (e + 1)) - 1) // (p**k - 1)
    return total


def sigma_convolution(r: int, s: int, n: int) -> int:
    """Classical divisor convolution: sum of sigma_k(r, m) * sigma_k(s, n - m)
    over 1 <= m < n.  It is 0 for n < 2 (an empty sum)."""
    return sum(sigma_k(r, m) * sigma_k(s, n - m) for m in range(1, n))


@lru_cache(maxsize=None)
def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with the B_1 = -1/2 convention, as an exact Fraction.

    Computed from the defining recurrence sum(comb(j+1, i) * B_i, i=0..j) == 0.
    Odd indices beyond 1 are zero.
    """
    if j < 0:
        raise ValueError(f"bernoulli requires j >= 0, got {j}")
    if j == 0:
        return Fraction(1)
    if j == 1:
        return Fraction(-1, 2)
    if j % 2:
        return Fraction(0)
    acc = sum(comb(j + 1, i) * bernoulli(i) for i in range(j))
    return Fraction(-acc, j + 1)


@lru_cache(maxsize=None)
def faulhaber_sum(k: int, upper: int) -> int:
    """Sum of j**k for j = 1 .. upper, via the Bernoulli expansion.

    Evaluated in exact rationals and asserted integral before returning,
    which catches any transcription slip in the Bernoulli route.
    """
    if k < 0:
        raise ValueError(f"faulhaber_sum requires k >= 0, got {k}")
    if upper < 0:
        raise ValueError(f"faulhaber_sum requires upper >= 0, got {upper}")
    total = Fraction(0)
    for j in range(k + 1):
        # the (-1)**j makes the sum inclusive of upper; under the
        # B_1 = -1/2 convention it flips only the j = 1 term
        total += (-1) ** j * comb(k + 1, j) * bernoulli(j) * Fraction(upper) ** (k + 1 - j)
    total /= k + 1
    if total.denominator != 1:
        raise ArithmeticError(f"faulhaber_sum({k}, {upper}) came out non-integral")
    return int(total)
