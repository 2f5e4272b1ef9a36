"""Exact integer arithmetic: factorization, divisors, the classical
multiplicative functions (μ, φ, σ_k), Bernoulli numbers, and Faulhaber
power sums.

Everything is pure and exact.  Python ints are unbounded and Fraction keeps
rationals in lowest terms, so no tolerance knobs appear anywhere.  The
memoized functions use functools.lru_cache, whose get-or-insert is atomic
under CPython; concurrent callers at worst duplicate a computation.
divisors and sigma_k read a factorization ((p, e), ...) through two private
kernels, _divisors_of and _sigma_of, which the raw M count and the Moebius
power sum call on factors of their own.

The package's budget rules are stated here once: BudgetExceededError, the
one work limit with its bit weighting and its check, and the power-bits and
trial-division ceilings.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NoReturn

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


class BudgetExceededError(RuntimeError):
    """Raised when a call would exceed a fixed work budget.

    The bounded routes raise it before their costly part starts; factorize
    raises it once its trial divisor passes a fixed ceiling.
    """


# Trial-division increments that skip multiples of 2, 3 and 5, starting at 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)

# factorize tries no divisor above this; reaching it takes about 75 ms (the
# prime 100000000000031; 2-core container, Python 3.11).  Every n <= 10**12 stays
# within it.  The convolution oracle factorizes nothing.  The routes that do
# are the closed forms, psi, sigma_prime, the Moebius power sum (its work
# estimate factorizes n first) and count_raw's M estimate and scan.  The first
# four take any n, so this ceiling is their only bound; the benchmark gives psi
# n <= 10**6, sigma_prime m, n <= 5000, and the closed forms and the Moebius
# route n <= 44015.  count_raw factorizes u < n <= 8503, never u**r.
_TRIAL_DIVISOR_LIMIT = 10**6

# A power outside the convolution oracle has at most this many bits.  psi(s, n)
# takes p**s for the primes p | n, and sigma_prime(r, s, m, n) takes d**r and
# e**s for d | m and e | n, so each refuses, before its first power, when
# |s| * n.bit_length() or r * m.bit_length() is above it.  2**20 bits is about
# 315,000 decimal digits, far past the 4300 that a result may print; selftest
# and the benchmark stay under 1000 bits, and psi(20000, 6), at 60,000, is
# admitted.
_POWER_BITS_LIMIT = 2**20

# A bounded call may do at most _WORK_LIMIT units of work, a unit being one
# product of the convolution oracle; every work estimate is counted in it and
# refused by _check_work before its work starts.  A unit handles numbers up to
# the call's largest power, so the count is weighted by that power's length,
# _bit_weight: 1 up to _WORD_BITS bits, and 1 more for each further _WORD_BITS.
# That weight is 1 for every oracle call with r, s <= 12 under the limit.  The
# limit admits single oracle n up to about 150000:
# brute_convolution(1, 3, 150000, "B") takes 0.08-0.13 s and 15.9 MB above the
# import's RSS, and over B' 0.11-0.13 s and 17.1 MB (peak RSS, one call per
# process; 2-CPU container, Python 3.11.7, whose speed drifts by about 2.5x).
# It admits verify ranges up to about 2..4400 for every stored form, one
# oracle call for the whole set: 0.04-0.13 s each in a fresh process, at about
# 2 MB above the import's RSS, where dot products alone took 0.7-1.4 s.  It
# refuses brute_convolution(100000, 1, 600, "B"), which ran 14.8 s at a 187 MB
# peak RSS unweighted.  The largest calls of the
# tests, selftest and benchmark, B'(2310) and a few sparse points up to 2310,
# cost under 2e5 units.
_WORK_LIMIT = 10**7
_WORD_BITS = 512


def _bit_weight(exponent: int, base: int) -> int:
    return 1 + exponent * base.bit_length() // _WORD_BITS


def _check_work(work: int, needs: str, **fields: object) -> None:
    # refuse work above the limit; the message is formatted only on refusal
    if work > _WORK_LIMIT:
        message = needs.format(work=work, **fields)
        raise BudgetExceededError(f"{message}, the limit is {_WORK_LIMIT}")


def _refuse_power_bits(call: str, *args: int) -> NoReturn:
    # callers compare inline, so an admitted call makes no function call
    raise BudgetExceededError(
        f"{call}({', '.join(map(str, args))}) needs powers of more than {_POWER_BITS_LIMIT} bits"
    )


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending.

    factorize(1) == ().  Deterministic trial division with a 2/3/5 wheel,
    which tries divisors up to 10**6 and no further: a cofactor left with no
    prime factor that small and above 10**12 raises BudgetExceededError.
    So any n costs at most about 270,000 trial divisions (about 75 ms near
    10**14).
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    rest = n
    for p in (2, 3, 5):
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    f, i = 7, 0
    while f * f <= rest:
        if f > _TRIAL_DIVISOR_LIMIT:
            raise BudgetExceededError(
                f"factorizing {n} needs trial divisors above {_TRIAL_DIVISOR_LIMIT}"
            )
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            out.append((f, e))
        f += _WHEEL[i]
        i = (i + 1) % 8
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    return tuple(sorted(_divisors_of(factorize(n))))


def _divisors_of(factors) -> list[int]:
    # the divisors of the number with these factors ((p, e), ...), unordered
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


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
    return _sigma_of(k, factorize(n))


def _sigma_of(k: int, factors) -> int:
    # sigma_k of the number with these factors ((p, e), ...), e >= 1
    total = 1
    for p, e in factors:
        # 1 + p**k + ... + p**(ke) by Horner's rule: a long division is quadratic at large k
        pk = p**k
        local = pk + 1
        while e > 1:
            local = local * pk + 1
            e -= 1
        total *= local
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
