"""Enumeration of the solution sets B(n) and B'(n) and the sums over them.

B(n) is the set of quadruples (a, b, x, y) of positive integers with
ax + by = n.  B'(n) is the subset with gcd(a, b) = gcd(x, y) = 1.  Beside
the enumerator sit the two-variable divisor sum sigma_prime, the six-way
pre-identity consistency check, and brute_convolution, the exact oracle
that every closed form in this package is verified against.  It never walks
the set.  One linear sieve per call gives every m up to the largest n its
least prime p and the full power q of p in m.  From that factor table each
divisor power sum takes one product, sigma_k(m) = sigma_k(m/q) sigma_k(q),
and P(n) = Σ_{0<m<n} sigma_r(m) sigma_s(n - m) is the sum over B(n).  B'(n)
follows by Möbius inversion of the two coprimality conditions,
Σ_{de | n} μ(d) μ(e) e**(r+s) P(n/de), which grouped by m = de is
Σ_{m | n} h(m) P(n/m) for h = μ ⋆ (μ·id**(r+s)); h is multiplicative, so n's
factorization from the same table gives it.  The oracle calls no arith
kernel function, so it is independent of the kernel the closed forms use and
fills no process-wide cache.
One private core serves a whole collection of n at once: verify_theorem,
fit and validate hand it their range or point set, so one factor table and
one pair of σ tables, built up to the largest n, serve every row, and all of
it runs in this process.  Every route here that can be asked for unbounded
work estimates it in the units of arith's one work limit and is refused
through arith's gate, with BudgetExceededError, before that work starts:
the core before it allocates anything, sigma_prime's divisor-pair scan,
quadruples and check_pre_identity from the bound n * n.bit_length()**2 on
|B(n)|, and sigma_prime's powers by arith's power-bits ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Callable, Collection

from . import arith
from .arith import BudgetExceededError, divisors

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


def _quadruple_bound(n: int) -> int:
    """An upper bound, n * n.bit_length()**2, on |B(n)| and so on |B'(n)|.

    Checked against the exact |B(n)| = Σ_{0<m<n} d(m) d(n - m) for every
    n <= 45000: the largest ratio is 0.70 up to n = 2000 (at n = 1980), 0.75
    up to 8503 (at 7560) and 0.82 overall (at 32760).
    """
    return n * n.bit_length() ** 2


# A materialized quadruple, a 4-tuple of about 120 bytes with its list slot,
# costs this many units of work, so that the largest admitted set stays near
# the 129 MB peak RSS of the identity engine at its ceiling, B(2000).  quadruples
# admits n <= 8503, and its largest set, B(8400) with 1,084,520 quadruples,
# took 0.62 s at a peak RSS of 131 MB, 115 MB above the import's (2-CPU
# container, Python 3.11.7).
_QUADRUPLE_COST = 6


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
    brute_convolution.  Raises BudgetExceededError, before enumerating,
    when _QUADRUPLE_COST units for each of up to _quadruple_bound(n)
    quadruples exceed the work limit.
    """
    _check_set(which)
    work = _QUADRUPLE_COST * _quadruple_bound(n)
    arith._check_work(
        work, "listing {which}({n}) needs about {work} units of work", which=which, n=n
    )
    out: list[tuple[int, int, int, int]] = []
    enumerate_quadruples(n, which, lambda a, b, x, y: out.append((a, b, x, y)))
    return tuple(out)


# 2048 entries: the full pre-identity grid, 2 <= n <= 60, reads the 1770 keys
# (m, n - m), so every revisit of the grid hits.
@lru_cache(maxsize=2048)
def _coprime_divisor_pairs(m: int, n: int) -> tuple[tuple[int, int], ...]:
    # index set of sigma_prime: divisor pairs (d, e) of (m, n) with both
    # gcd(d, e) = 1 and gcd(m/d, n/e) = 1; a scan of more pairs than the
    # oracle's work limit is refused before it starts
    divs_m, divs_n = divisors(m), divisors(n)
    pairs = len(divs_m) * len(divs_n)
    arith._check_work(pairs, "sigma_prime at ({m}, {n}) scans {work} divisor pairs", m=m, n=n)
    out = []
    for d in divs_m:
        md = m // d
        for e in divs_n:
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

    Raises BudgetExceededError before any power when r * m.bit_length() or
    s * n.bit_length() is above 2**20 bits, and before the scan when the
    divisor pairs of (m, n) number more than the oracle's work limit.
    """
    if r < 0 or s < 0:
        raise ValueError(f"sigma_prime requires r, s >= 0, got ({r}, {s})")
    if m <= 0 or n <= 0:
        return 0
    limit = arith._POWER_BITS_LIMIT
    if r * m.bit_length() > limit or s * n.bit_length() > limit:
        arith._refuse_power_bits("sigma_prime", r, s, m, n)
    return sum(d**r * e**s for d, e in _coprime_divisor_pairs(m, n))


def _sigma_prime_convolution(r: int, s: int, n: int) -> int:
    # Σ_{0<m<n} sigma_prime(r, s, m, n - m), the counterpart of
    # arith.sigma_convolution; 0 for n < 2 (an empty sum)
    return sum(sigma_prime(r, s, m, n - m) for m in range(1, n))


# A σ-table index costs this many units of work, a product in a P(N) one.  The
# sieve and σ tables spend about one product per index, so it is generous: set
# for earlier divisor-list tables, it keeps its value so no admission changes.
_TABLE_ENTRY_COST = 64


def _oracle_work(r: int, s: int, ns: Collection[int]) -> int:
    """Estimated work of _convolutions over ns, checking each n >= 2 on the way.

    It counts the σ-table indices up to max(ns), _TABLE_ENTRY_COST units each,
    plus N products for each P(n); the smaller P(n / de) that B'(n) adds stay
    within a few times that.  The count is then weighted by arith._bit_weight
    of the largest power, max(ns)**(r + s).  Counting stops once past
    arith._WORK_LIMIT, so a huge range costs a few thousand steps and no
    allocation, and above the limit the value is a lower bound.
    """
    top = products = work = 0
    for n in ns:
        if n < 2:
            raise ValueError(f"solution sets are defined for n >= 2, got {n}")
        top = max(top, n)
        products += n
        work = (_TABLE_ENTRY_COST * top + products) * arith._bit_weight(r + s, top)
        if work > arith._WORK_LIMIT:
            break
    return work


def _factor_table(top: int) -> tuple[list[int], list[int]]:
    # (least, power): for 2 <= m < top, least[m] is the least prime p of m and
    # power[m] the full power of p in m.  A linear sieve: each composite is
    # struck once, as i * p with p <= least[i], so no divisor list is built or
    # cached.
    least = [0] * top
    power = [0] * top
    primes: list[int] = []
    for i in range(2, top):
        if not least[i]:
            least[i] = power[i] = i
            primes.append(i)
        p_i, q_i = least[i], power[i]
        for p in primes:
            m = i * p
            if m >= top:
                break
            least[m] = p
            if p == p_i:
                power[m] = q_i * p
                break
            power[m] = p
    return least, power


def _sigma_table(k: int, factors: tuple[list[int], list[int]]) -> list[int]:
    # [0, sigma_k(1), ..., sigma_k(top - 1)] from the factor table, one product
    # per entry: sigma_k(m) = sigma_k(m / q) sigma_k(q) for q the full power of
    # m's least prime p, and sigma_k(p**e) = 1 + p**k sigma_k(p**(e - 1)), where
    # p**k = sigma_k(p) - 1
    least, power = factors
    table = [0] * len(least)
    table[1] = 1
    for m in range(2, len(least)):
        q = power[m]
        if q != m:
            table[m] = table[m // q] * table[q]
        elif least[m] == m:
            table[m] = 1 + m**k
        else:
            p = least[m]
            table[m] = 1 + (table[p] - 1) * table[m // p]
    return table


def _inversion_terms(
    w: int, n: int, factors: tuple[list[int], list[int]]
) -> list[tuple[int, int]]:
    # [(m, h(m))] over the cube-free divisors m of n, where h = μ ⋆ (μ·id**w), so
    # h(m) = Σ_{de = m} μ(d) μ(e) e**w.  h is multiplicative, with h(p) = -(1 + p**w),
    # h(p**2) = p**w and h(p**j) = 0 for j >= 3; n is factored from the table.
    least, power = factors
    terms = [(1, 1)]
    while n > 1:
        p, q = least[n], power[n]
        p_w = p**w
        local = [(1, 1), (p, -1 - p_w)]
        if q > p:  # p**2 divides n
            local.append((p * p, p_w))
        terms = [(m * f, h * g) for m, h in terms for f, g in local]
        n //= q
    return terms


def _convolutions(r: int, s: int, ns: Collection[int], which: str) -> list[int]:
    # brute_convolution for every n of ns, in order; one factor table and one
    # pair of σ tables up to max(ns), and one memo of P(N), serve them all
    coprime = _check_set(which)
    if r < 0 or s < 0:
        raise ValueError(f"brute_convolution requires r, s >= 0, got ({r}, {s})")
    work = _oracle_work(r, s, ns)
    arith._check_work(work, "the convolution oracle needs at least {work} units of work")
    factors = _factor_table(max(ns) + 1)
    sig_s = _sigma_table(s, factors)
    sig_r = sig_s if r == s else _sigma_table(r, factors)
    if not coprime:
        factors = None  # B(n) factors nothing more; free the table before the sums
    memo: dict[int, int] = {}

    def plain(big_n: int) -> int:
        # Σ x**r y**s over B(big_n) = Σ_{m < big_n} sigma_r(m) sigma_s(big_n - m)
        if big_n not in memo:
            memo[big_n] = sum(map(mul, sig_r[1:big_n], reversed(sig_s[1:big_n])))
        return memo[big_n]

    def coprime_sum(n: int) -> int:
        # [gcd(a, b) = 1] = Σ_{d | gcd(a, b)} μ(d), and likewise with e for (x, y).
        # Writing a, b, x, y = d·a', d·b', e·x', e·y' puts (a', b', x', y') in
        # B(n / de) with weight e**(r + s), hence Σ_{de | n} μ(d) μ(e) e**(r+s) P(n/de),
        # which grouped by m = de is Σ_{m | n} h(m) P(n/m).
        return sum(h * plain(n // m) for m, h in _inversion_terms(r + s, n, factors))

    return list(map(coprime_sum if coprime else plain, ns))


def brute_convolution(r: int, s: int, n: int, which: str = "Bprime") -> int:
    """Exact sum over a solution set; the oracle for every closed form.

    For B'(n) this returns Σ x**r y**s over the quadruples; for B(n) it
    returns Σ a**r b**s.  Both sets are closed under (a, b, x, y) ->
    (x, y, a, b), so either is Σ x**r y**s over its set.  Over B(n) that is
    the classical convolution P(n) = Σ_{0<m<n} sigma_r(m) sigma_s(n - m).
    The divisor power sums come from tables built once per call, not from
    sigma_k, so the classical identity stays an independent check: a linear
    sieve gives each m < n its least prime p and the full power q of p in m,
    and then sigma_k(m) = sigma_k(m/q) sigma_k(q), with sigma_k(p**e) =
    1 + p**k sigma_k(p**(e-1)).  Over B'(n) the sum is
    Σ_{de | n} μ(d) μ(e) e**(r + s) P(n / de), by Möbius inversion of the two
    coprimality conditions; grouped by m = de it is Σ_{m | n} h(m) P(n / m),
    where h(p) = -(1 + p**(r+s)), h(p**2) = p**(r+s), h(p**j) = 0 for j >= 3,
    and n is factored from the same table.  The call uses no arith kernel
    function, so it reads and fills no divisor or factorization cache, and it
    keeps no memo of its own between calls.

    This is the one-n case of the private range core that verify_theorem,
    fit and validate call once per range or point set, so one factor table
    and one pair of σ tables serve every n they check.  A call whose estimated work exceeds
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
    Raises BudgetExceededError before any of them when the quadruples'
    work, each weighted by the length of its powers up to n**(r + s), is
    above the work limit; n <= 8503 is admitted for r + s <= 36.
    """
    if n < 2:
        raise ValueError(f"solution sets are defined for n >= 2, got {n}")
    work = _QUADRUPLE_COST * _quadruple_bound(n) * arith._bit_weight(r + s, n)
    needs = "the pre-identity at ({r}, {s}, {n}) needs about {work} units of work"
    arith._check_work(work, needs, r=r, s=s, n=n)
    conv_rs = _sigma_prime_convolution(r, s, n)
    conv_sr = _sigma_prime_convolution(s, r, n)
    xy_rs = xy_sr = ab_rs = ab_sr = 0
    for a, b, x, y in quadruples(n, "Bprime"):
        xy_rs += x**r * y**s
        xy_sr += x**s * y**r
        ab_rs += a**r * b**s
        ab_sr += a**s * b**r
    vals = (conv_rs, conv_sr, xy_rs, xy_sr, ab_rs, ab_sr)
    return PreIdentityReport(r, s, n, *vals, all_equal=len(set(vals)) == 1)
