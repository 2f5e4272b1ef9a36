"""Enumeration of the solution sets B(n) and B'(n) and the sums over them.

B(n) is the set of quadruples (a, b, x, y) of positive integers with
ax + by = n.  B'(n) is the subset with gcd(a, b) = gcd(x, y) = 1.  Beside
the enumerator sit the two-variable divisor sum sigma_prime, the six-way
pre-identity check, and the moment core behind the identity engine and
brute_convolution, the exact oracle every closed form is checked against.
The core never walks the set: a moment Σ a**i b**j x**k y**l over B(n) is a
convolution of two multiplicative g tables from one least-prime sieve, and
B'(n) follows by Möbius inversion.  It calls no arith kernel function, so it
fills no process-wide cache, keeps nothing between calls, and serves a whole
range of n from one sieve.  Each convolution M_B(N) is a dot product of the two
tables, or, for a dense set of n, a slot of one big-integer product of the
tables packed into fixed-width slots (Kronecker substitution), which gives
every M_B(N) up to the largest n at once; one rule picks the cheaper route.
Every route here that can be asked for unbounded work is refused through
arith's gate before that work starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul
from typing import Callable, Collection

from . import arith
from .arith import BudgetExceededError, divisors, factorize, sigma_k

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
    want a materialized list should use quadruples() instead.  Raises
    BudgetExceededError, before enumerating, when _QUADRUPLE_COST units for
    each of up to _quadruple_bound(n) quadruples exceed the work limit.
    """
    coprime = _check_set(which)
    if n < 2:
        raise ValueError(f"solution sets are defined for n >= 2, got {n}")
    work = _QUADRUPLE_COST * _quadruple_bound(n)
    arith._check_work(
        work, "listing {which}({n}) needs about {work} units of work", which=which, n=n
    )
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
# costs this many units of work, so n <= 8503 is admitted: B(8400) took 0.62 s
# at 115 MB above the import's RSS (2-CPU container, Python 3.11.7).
_QUADRUPLE_COST = 6

# The quadruples memo holds at most this many quadruples, so every revisit by
# either reader hits: the pre-identity grid, B'(n) for 2 <= n <= 60, lists
# 14,599, and the raw counters' checks, B(n) and B'(n) for n <= 12, 603.
_QUADRUPLE_MEMO_LIMIT = 2**14
_quadruple_memo: dict[tuple[int, str], tuple[tuple[int, int, int, int], ...]] = {}


def quadruples(n: int, which: str = "Bprime") -> tuple[tuple[int, int, int, int], ...]:
    """Materialized, memoized tuple of the quadruples in enumeration order.

    The one materialized set, read by check_pre_identity and the raw
    counters, which revisit the same small-n sets for many exponent pairs;
    the memo drops the least recently used sets to hold at most
    _QUADRUPLE_MEMO_LIMIT quadruples and keeps no larger set.  A set not
    held is enumerated, through enumerate_quadruples' work limit.
    """
    _check_set(which)
    memo = _quadruple_memo
    quads = memo.pop((n, which), None)
    if quads is None:
        out: list[tuple[int, int, int, int]] = []
        enumerate_quadruples(n, which, lambda a, b, x, y: out.append((a, b, x, y)))
        quads = tuple(out)
        if len(quads) > _QUADRUPLE_MEMO_LIMIT:
            return quads
        held = sum(map(len, memo.values()))
        while held + len(quads) > _QUADRUPLE_MEMO_LIMIT:
            held -= len(memo.pop(next(iter(memo))))
    memo[n, which] = quads  # (re)inserted last, as the most recently used
    return quads


def sigma_prime(r: int, s: int, m: int, n: int) -> int:
    """Two-variable coprime divisor sum Σ d**r e**s.

    The sum runs over divisor pairs d | m, e | n restricted by
    gcd(d, e) = 1 and gcd(m/d, n/e) = 1, so sigma_prime(r, s, m, n) ==
    sigma_prime(s, r, n, m).  The conditions split prime by prime, so it is
    a product over the primes p of m * n, with p**α || m and p**β || n:
    sigma_r(p**α) when p ∤ n, sigma_s(p**β) when p ∤ m, and
    p**(rα) + p**(sβ) when p divides both.  No divisor pair is scanned.

    Returns 0 whenever m <= 0 or n <= 0, a convention (as for sigma_k) for
    unguarded convolution ranges.  Raises BudgetExceededError before any
    power when r * m.bit_length() or s * n.bit_length() is above 2**20
    bits, and when factorizing needs trial divisors above arith's ceiling.
    """
    if r < 0 or s < 0:
        raise ValueError(f"sigma_prime requires r, s >= 0, got ({r}, {s})")
    if m <= 0 or n <= 0:
        return 0
    limit = arith._POWER_BITS_LIMIT
    if r * m.bit_length() > limit or s * n.bit_length() > limit:
        arith._refuse_power_bits("sigma_prime", r, s, m, n)
    total = 1
    for p, _ in factorize(gcd(m, n)):
        alpha = beta = 0
        while m % p == 0:
            m //= p
            alpha += 1
        while n % p == 0:
            n //= p
            beta += 1
        total *= p ** (r * alpha) + p ** (s * beta)
    # what is left of m and of n is coprime to the other
    return total * sigma_k(r, m) * sigma_k(s, n)


def _sigma_prime_convolution(r: int, s: int, n: int) -> int:
    # Σ_{0<m<n} sigma_prime(r, s, m, n - m), arith.sigma_convolution's counterpart
    return sum(sigma_prime(r, s, m, n - m) for m in range(1, n))


# A g-table index costs this many units of work, a product in an M(N) one.  The
# sieve and g tables spend about one product per index, so it is generous; it
# keeps the value set for earlier divisor-list tables, so no admission changed.
_TABLE_ENTRY_COST = 64


def _moment_work(degree: int, ns: Collection[int], moments: int = 1, rows: int = 0) -> int:
    """Estimated work of _moment_sums over ns, checking each n >= 2 on the way.

    Each moment counts its pair of g tables up to max(ns), _TABLE_ENTRY_COST
    units an index, plus N products for each M(n) (B'(n)'s smaller M(n / m)
    stay within a few times that), a caller's rows one unit each, all
    weighted by arith._bit_weight(degree, max(ns)).  Counting stops once past
    arith._WORK_LIMIT, so a huge range allocates nothing.  The oracle's case
    is one moment of degree r + s and no rows.
    """
    top = products = work = 0
    for n in ns:
        if n < 2:
            raise ValueError(f"solution sets are defined for n >= 2, got {n}")
        top = max(top, n)
        products += n
        work = (moments * (_TABLE_ENTRY_COST * top + products) + rows) * arith._bit_weight(
            degree, top
        )
        if work > arith._WORK_LIMIT:
            break
    return work


def _factor_table(top: int) -> tuple[list[int], list[int]]:
    # (least, power): for 2 <= m < top, least[m] is the least prime p of m and
    # power[m] the full power of p in m.  Eratosthenes by slice assignment: for
    # p from isqrt(top - 1) down to 2, prime or not, the multiples of p from p*p
    # are struck with p, so each m is struck last by its least prime.  The
    # strike holds a list of about top / 2 entries; least[1] = 1 ends each
    # power chain.  No divisor list is built or cached.
    least = list(range(top))
    for p in range(isqrt(top - 1), 1, -1):
        least[p * p :: p] = [p] * len(range(p * p, top, p))
    power = least[:]
    for m in range(2, top):
        p = least[m]
        if least[m // p] == p:
            power[m] = power[m // p] * p
    return least, power


def _sigma_table(i: int, k: int, factors: tuple[list[int], list[int]]) -> list[int]:
    # [0, g(1), ..., g(top - 1)] for the multiplicative g(m) = Σ_{ax = m} a**i x**k,
    # one product per entry: g(m) = g(m / q) g(q) for q the full power of m's least
    # prime p, and g(p**e) = p**(ie) + p**k g(p**(e-1)) with g(1) = 1; sigma_k is
    # the case i = 0
    least, power = factors
    table = [0] * len(least)
    table[1] = 1
    for m in range(2, len(least)):
        p, q = least[m], power[m]
        if q == m:
            table[m] = m**i + p**k * table[m // p]
        else:
            table[m] = table[m // q] * table[q]
    return table


def _inversion_terms(
    u: int, w: int, n: int, factors: tuple[list[int], list[int]]
) -> list[tuple[int, int]]:
    # [(m, h(m))] over the cube-free m | n, for the multiplicative h(m) = Σ_{de = m} μ(d) μ(e)
    # d**u e**w: h(p) = -(p**u + p**w), h(p**2) = p**(u + w), h(p**j) = 0 for j >= 3
    least, power = factors
    terms = [(1, 1)]
    while n > 1:
        p, q = least[n], power[n]
        p_u, p_w = p**u, p**w
        local = [(1, 1), (p, -p_u - p_w)]
        if q > p:  # p**2 divides n
            local.append((p * p, p_u * p_w))
        terms = [(m * f, h * g) for m, h in terms for f, g in local]
        n //= q
    return terms


# The product route's cost, in the dot route's products: packing and reading one
# slot costs about _SLOT_COST of them, and multiplying two ints of d 30-bit
# digits takes about d**log2(3) digit steps (CPython's Karatsuba), of which
# _STEPS_PER_PRODUCT cost one.  Measured: a small-int product in the dot route
# takes 60-180 ns, a slot 1.0-1.3 us and a Karatsuba digit step 6-11 ns (2-CPU
# container, Python 3.11.7).
_SLOT_COST = 16
_STEPS_PER_PRODUCT = 8


def _product_is_cheaper(top: int, products: int, degree: int) -> bool:
    """Whether the product route beats `products` dot products up to `top`.

    A moment of this degree has M_B(N) below about top**(degree + 1), so its
    slots are taken as (degree + 1) * top.bit_length() bits wide, and each
    packed table is top slots long.  The dot route's count is Σn over the
    distinct n, a floor on what it multiplies.  Karatsuba's exponent log2(3)
    is taken as 8/5, so the rule stays in integers.
    """
    digits = top * (degree + 1) * top.bit_length() // 30 + 1
    return digits**8 < (_STEPS_PER_PRODUCT * (products - _SLOT_COST * top)) ** 5


def _packed(table: list[int], top: int, width: int) -> int:
    # table[0], ..., table[top - 1] as width-byte little-endian slots of one int
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in table[:top]), "little")


def _product_memo(terms: list[tuple[int, list[int], list[int]]], top: int) -> list[int]:
    # [Σ c M_B(N) for N = 0 .. top] over the terms (c, g_ik, g_jl), one product a
    # term: slot N of packed(g_ik) * packed(g_jl) is Σ_{0<m<N} g_ik(m) g_jl(N - m),
    # since g(0) = 0.  Every slot sums at most top products of entries >= 0, so
    # a width holding max g_ik * max g_jl * top takes no carry from below.
    memo = [0] * (top + 1)
    for c, g_ik, g_jl in terms:
        width = (max(g_ik) * max(g_jl) * top).bit_length() // 8 + 1
        product = _packed(g_ik, top, width) * _packed(g_jl, top, width)
        slots = memoryview(product.to_bytes(2 * top * width, "little"))
        for big_n in range(top + 1):
            memo[big_n] += c * int.from_bytes(slots[big_n * width : (big_n + 1) * width], "little")
    return memo


def _moment_sums(moments: dict[tuple[int, ...], int], ns: Collection[int], which: str) -> list[int]:
    # Σ c M(i, j, k, l; n) for every n of ns over the moments {(i, j, k, l): c},
    # M being Σ a**i b**j x**k y**l over the set; one factor table, one g table
    # per (i, k) and one memo of M_B(N) per (i + j, k + l) serve every n.  The
    # memo is filled N by N from dot products, or at once from one product per
    # term where _product_is_cheaper says so
    coprime = _check_set(which)
    top = max(ns)
    factors = _factor_table(top + 1)
    tables: dict[tuple[int, int], list[int]] = {}
    groups: dict[tuple[int, int], list[tuple[int, list[int], list[int]]]] = {}
    for (i, j, k, l), c in moments.items():
        keys = (min(i, k), max(i, k)), (min(j, l), max(j, l))  # g_ik is g_ki
        pair = [tables.get(key) or tables.setdefault(key, _sigma_table(*key, factors)) for key in keys]
        groups.setdefault((i + j, k + l), []).append((c, *pair))
    if not coprime:
        factors = None  # B(n) factors nothing more; free the table before the sums
    products = sum(set(ns))
    sums = []
    for weights, terms in groups.items():
        if _product_is_cheaper(top, products, sum(weights)):
            memo = _product_memo(terms, top)
        else:
            memo = [None] * (top + 1)
        sums.append((weights, terms, memo))
    out = []
    for n in ns:
        total = 0
        for weights, terms, memo in sums:
            # Over B'(n): [gcd(a, b) = 1] = Σ_{d | gcd(a, b)} μ(d), likewise e for (x, y), and
            # d·a', d·b', e·x', e·y' puts (a', b', x', y') in B(n / de) with weight d**u e**w
            for m, h in _inversion_terms(*weights, n, factors) if coprime else ((1, 1),):
                big_n = n // m
                value = memo[big_n]
                if value is None:
                    # M_B(N) = Σ_{0<m<N} g_ik(m) g_jl(N - m): each ax + by = N splits at m = ax
                    value = 0
                    for c, g_ik, g_jl in terms:
                        value += c * sum(map(mul, g_ik[1:big_n], reversed(g_jl[1:big_n])))
                    memo[big_n] = value
                total += h * value
        out.append(total)
    return out


def _convolution_work(r: int, s: int, ns: Collection[int]) -> int:
    # the oracle's estimate for brute_convolution at every n of ns, refused over the limit
    if r < 0 or s < 0:
        raise ValueError(f"brute_convolution requires r, s >= 0, got ({r}, {s})")
    work = _moment_work(r + s, ns)
    arith._check_work(work, "the convolution oracle needs at least {work} units of work")
    return work


def _convolutions(r: int, s: int, ns: Collection[int], which: str) -> list[int]:
    # brute_convolution for every n of ns: the one moment (0, 0, r, s), Σ x**r y**s
    _check_set(which)
    _convolution_work(r, s, ns)
    return _moment_sums({(0, 0, r, s): 1}, ns, which)


def brute_convolution(r: int, s: int, n: int, which: str = "Bprime") -> int:
    """Exact sum over a solution set; the oracle for every closed form.

    For B'(n) this returns Σ x**r y**s over the quadruples; for B(n),
    Σ a**r b**s, the same moment (0, 0, r, s) by the set's symmetry, and the
    classical Σ_{0<m<n} sigma_r(m) sigma_s(n - m) from the core's own tables
    rather than sigma_k, so that identity stays an independent check.  A
    call over the work limit raises BudgetExceededError before it allocates.
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
