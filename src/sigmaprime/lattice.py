"""Enumeration of the solution sets B(n) and B'(n) and the sums over them.

B(n) is the set of quadruples (a, b, x, y) of positive integers with
ax + by = n.  B'(n) is the subset with gcd(a, b) = gcd(x, y) = 1.  Beside
the enumerator sit the two-variable divisor sum sigma_prime, the six-way
pre-identity consistency check, and brute_convolution, the exact oracle
that every closed form in this package is verified against.  It sums over
B(n) from per-call divisor power-sum tables and reaches B'(n) by Möbius
inversion of the two coprimality conditions, so it never walks the set.
One private core serves a whole collection of n at once: verify_theorem,
fit and validate hand it their range or point set, so one pair of σ tables,
built up to the largest n, serves every row, and all of it runs in this
process.  The core refuses, with BudgetExceededError, any call whose
estimated work is above a fixed limit, before it allocates anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Callable, Collection

from .arith import BudgetExceededError, divisors, mobius

__all__ = [
    "SOLUTION_SETS",
    "BudgetExceededError",
    "enumerate_quadruples",
    "quadruples",
    "sigma_prime",
    "brute_convolution",
    "check_pre_identity",
    "PreIdentityReport",
]

SOLUTION_SETS = ("B", "Bprime")


def _check_set(which: str) -> bool:
    if which not in SOLUTION_SETS:
        raise ValueError(f"solution set must be one of {SOLUTION_SETS}, got {which!r}")
    return which == "Bprime"


def enumerate_quadruples(
    n: int,
    which: str = "Bprime",
    visit: Callable[[int, int, int, int], None] | None = None,
) -> int:
    """Stream every (a, b, x, y) in B(n) or B'(n) through ``visit``; return the count.

    Enumeration order is deterministic: ascending a, then x, then b.  For
    each (a, x) with ax <= n - 1 the remainder m = n - ax is split as
    b * y over the divisors b of m.  Memory use is constant; callers who
    want a materialized list should use quadruples() instead.
    """
    coprime = _check_set(which)
    if n < 2:
        raise ValueError(f"solution sets are defined for n >= 2, got {n}")
    count = 0
    for a in range(1, n):
        for x in range(1, (n - 1) // a + 1):
            m = n - a * x
            for b in divisors(m):
                if coprime and gcd(a, b) != 1:
                    continue
                y = m // b
                if coprime and gcd(x, y) != 1:
                    continue
                count += 1
                if visit is not None:
                    visit(a, b, x, y)
    return count


# 64 entries: the full pre-identity grid sweeps the 59 values 2 <= n <= 60
# inside each exponent pair, so every revisit of the grid hits.
@lru_cache(maxsize=64)
def quadruples(n: int, which: str = "Bprime") -> tuple[tuple[int, int, int, int], ...]:
    """Materialized, cached tuple of the quadruples in enumeration order.

    Convenient for check_pre_identity, which revisits the same small-n sets
    for many exponent pairs.  The memo holds at most 64 sets, dropping the
    least recently used.  The identity engine does not read it: it
    enumerates each set once into its own merged argument table.
    Large-n sums should stream via enumerate_quadruples or
    brute_convolution.
    """
    out: list[tuple[int, int, int, int]] = []
    enumerate_quadruples(n, which, lambda a, b, x, y: out.append((a, b, x, y)))
    return tuple(out)


# 2048 entries: the full pre-identity grid, 2 <= n <= 60, reads the 1770 keys
# (m, n - m), so every revisit of the grid hits.
@lru_cache(maxsize=2048)
def _coprime_divisor_pairs(m: int, n: int) -> tuple[tuple[int, int], ...]:
    # index set of sigma_prime: divisor pairs (d, e) of (m, n) with both
    # gcd(d, e) = 1 and gcd(m/d, n/e) = 1
    out = []
    for d in divisors(m):
        md = m // d
        for e in divisors(n):
            if gcd(d, e) == 1 and gcd(md, n // e) == 1:
                out.append((d, e))
    return tuple(out)


def sigma_prime(r: int, s: int, m: int, n: int) -> int:
    """Two-variable coprime divisor sum Σ d**r e**s.

    The sum runs over divisor pairs d | m, e | n restricted by
    gcd(d, e) = 1 and gcd(m/d, n/e) = 1.  By construction
    sigma_prime(r, s, m, n) == sigma_prime(s, r, n, m).

    Returns 0 whenever m <= 0 or n <= 0.  That extension is a deliberate
    convention (not part of the defining sum) so convolutions can run over
    an unguarded index range; it mirrors sigma_k's behaviour.
    """
    if r < 0 or s < 0:
        raise ValueError(f"sigma_prime requires r, s >= 0, got ({r}, {s})")
    if m <= 0 or n <= 0:
        return 0
    return sum(d**r * e**s for d, e in _coprime_divisor_pairs(m, n))


# One oracle call may do at most this much work.  A product in a P(N) counts
# one unit; a σ-table index counts _TABLE_ENTRY_COST, as its divisor lookup
# takes some 100 products' time on a cold cache and leaves about 0.8 KB in the
# divisors and factorize caches.  Each unit handles numbers up to
# max(ns)**(r + s), so the count is weighted by their length: 1 up to
# _WORD_BITS bits, and 1 more for each further _WORD_BITS.  That weight is 1
# for every call with r, s <= 12 under the limit.  The limit admits single n
# up to about 150000 (about 2 s and 135 MB) and verify ranges up to about
# 2..4400 (about 1 s).  It refuses brute_convolution(100000, 1, 600, "B"),
# which ran 14.8 s at a 187 MB peak RSS unweighted.  The largest calls of the
# tests, selftest and benchmark, B'(2310) and a few sparse points up to 2310,
# cost under 2e5 units.
_WORK_LIMIT = 10**7
_TABLE_ENTRY_COST = 64
_WORD_BITS = 512


def _oracle_work(r: int, s: int, ns: Collection[int]) -> int:
    """Estimated work of _convolutions over ns, checking each n >= 2 on the way.

    It counts the σ-table indices up to max(ns), weighted, plus N products for
    each P(n); the smaller P(n / de) that B'(n) adds stay within a few times
    that.  The count is then weighted by the bit length of the largest power,
    max(ns)**(r + s).  Counting stops once past _WORK_LIMIT, so a huge range
    costs a few thousand steps and no allocation, and above the limit the
    value is a lower bound.
    """
    top = products = work = 0
    for n in ns:
        if n < 2:
            raise ValueError(f"solution sets are defined for n >= 2, got {n}")
        top = max(top, n)
        products += n
        weight = 1 + (r + s) * top.bit_length() // _WORD_BITS
        work = (_TABLE_ENTRY_COST * top + products) * weight
        if work > _WORK_LIMIT:
            break
    return work


def _convolutions(r: int, s: int, ns: Collection[int], which: str) -> list[int]:
    # brute_convolution for every n of ns, in order; one pair of σ tables up to
    # max(ns) and one memo of P(N) serve them all
    coprime = _check_set(which)
    if r < 0 or s < 0:
        raise ValueError(f"brute_convolution requires r, s >= 0, got ({r}, {s})")
    work = _oracle_work(r, s, ns)
    if work > _WORK_LIMIT:
        raise BudgetExceededError(
            f"the convolution oracle needs at least {work} units of work, "
            f"the limit is {_WORK_LIMIT}"
        )
    top = max(ns)

    def sigma_table(k: int) -> list[int]:
        # [sigma_k(1), ..., sigma_k(top - 1)]
        pow_k = [j**k for j in range(top)]
        return [sum(map(pow_k.__getitem__, divisors(m))) for m in range(1, top)]

    sig_s = sigma_table(s)
    sig_r = sig_s if r == s else sigma_table(r)
    memo: dict[int, int] = {}

    def plain(big_n: int) -> int:
        # Σ x**r y**s over B(big_n) = Σ_{m < big_n} sigma_r(m) sigma_s(big_n - m)
        if big_n not in memo:
            memo[big_n] = sum(map(mul, sig_r[: big_n - 1], reversed(sig_s[: big_n - 1])))
        return memo[big_n]

    def coprime_sum(n: int) -> int:
        # [gcd(a, b) = 1] = Σ_{d | gcd(a, b)} μ(d), and likewise with e for (x, y).
        # Writing a, b, x, y = d·a', d·b', e·x', e·y' puts (a', b', x', y') in
        # B(n / de) with weight e**(r + s), hence Σ_{de | n} μ(d) μ(e) e**(r+s) P(n/de).
        total = 0
        for d in divisors(n):
            mu_d = mobius(d)
            if mu_d:
                for e in divisors(n // d):
                    mu_e = mobius(e)
                    if mu_e:
                        total += mu_d * mu_e * e ** (r + s) * plain(n // (d * e))
        return total

    return list(map(coprime_sum if coprime else plain, ns))


def brute_convolution(r: int, s: int, n: int, which: str = "Bprime") -> int:
    """Exact sum over a solution set; the oracle for every closed form.

    For B'(n) this returns Σ x**r y**s over the quadruples; for B(n) it
    returns Σ a**r b**s.  Both sets are closed under (a, b, x, y) ->
    (x, y, a, b), so either is Σ x**r y**s over its set.  Over B(n) that is
    the classical convolution P(n) = Σ_{0<m<n} sigma_r(m) sigma_s(n - m).
    The divisor power sums come from tables built once per call from a
    power table and the divisor lists, not from sigma_k, so the classical
    identity stays an independent check.  Over B'(n) the sum is
    Σ_{de | n} μ(d) μ(e) e**(r + s) P(n / de), by Möbius inversion of the
    two coprimality conditions.  It keeps no memo of its own between calls.

    This is the one-n case of the private range core that verify_theorem,
    fit and validate call once per range or point set, so one pair of σ
    tables serves every n they check.  A call whose estimated work exceeds
    a fixed limit raises BudgetExceededError before it allocates anything.
    """
    return _convolutions(r, s, (n,), which)[0]


@dataclass(frozen=True)
class PreIdentityReport:
    """The six expressions that the pre-identity forces to agree on B'(n)."""

    r: int
    s: int
    n: int
    conv_rs: int  # Σ_m sigma_prime(r, s, m, n - m)
    conv_sr: int  # Σ_m sigma_prime(s, r, m, n - m)
    xy_rs: int  # Σ x**r y**s over B'(n)
    xy_sr: int  # Σ x**s y**r over B'(n)
    ab_rs: int  # Σ a**r b**s over B'(n)
    ab_sr: int  # Σ a**s b**r over B'(n)
    all_equal: bool

    def values(self) -> tuple[int, int, int, int, int, int]:
        return (self.conv_rs, self.conv_sr, self.xy_rs, self.xy_sr, self.ab_rs, self.ab_sr)


def check_pre_identity(r: int, s: int, n: int) -> PreIdentityReport:
    """Evaluate all six pre-identity expressions independently and compare.

    The two convolution routes go through sigma_prime; the four quadruple
    sums enumerate B'(n) directly.  A report is returned rather than a bare
    bool so tests and the CLI can show the actual values on a mismatch.
    """
    if n < 2:
        raise ValueError(f"solution sets are defined for n >= 2, got {n}")
    conv_rs = sum(sigma_prime(r, s, m, n - m) for m in range(1, n))
    conv_sr = sum(sigma_prime(s, r, m, n - m) for m in range(1, n))
    xy_rs = xy_sr = ab_rs = ab_sr = 0
    for a, b, x, y in quadruples(n, "Bprime"):
        xy_rs += x**r * y**s
        xy_sr += x**s * y**r
        ab_rs += a**r * b**s
        ab_sr += a**s * b**r
    vals = (conv_rs, conv_sr, xy_rs, xy_sr, ab_rs, ab_sr)
    return PreIdentityReport(r, s, n, *vals, all_equal=len(set(vals)) == 1)
