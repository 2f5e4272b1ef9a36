"""Enumeration of the solution sets B(n) and B'(n) and the sums over them.

B(n) is the set of quadruples (a, b, x, y) of positive integers with
ax + by = n.  B'(n) is the subset with gcd(a, b) = gcd(x, y) = 1.  Beside
the enumerator, whose listings keep nothing between calls, sit the
two-variable divisor sum sigma_prime and the moment core behind the
identity engine, the pre-identity check (one sigma_prime convolution against
one moment) and brute_convolution, the exact oracle every closed form is
checked against.  The core never walks the set: a moment Σ a**i b**j x**k y**l
over B(n) is a convolution of two multiplicative g tables, and B'(n) follows
by Möbius inversion.  One least-prime sieve, struck by primes only, serves
both: the g tables are filled two per pass over m, and the inversion reads
n's primes from it.  The core calls no arith kernel function, so it fills
no process-wide cache, keeps nothing between calls, and serves a whole range
of n from one sieve.  Each convolution M_B(N) is a dot product of the two
tables, or, for a dense set of n, a slot of one big-integer product of the
tables packed into fixed-width slots (Kronecker substitution), which gives
every M_B(N) up to the largest n at once; one rule picks the cheaper route.
Where the product gave every M_B(N), B'(n) follows for the whole range by
forward substitution in the Dirichlet relation M_B = g ⋆ M_B' (gcd(a, b) and
gcd(x, y) taken out of each quadruple), g being one more g table, up to half
the largest n; the dot route inverts n by n.
Every route here that can be asked for unbounded work is refused through
arith's gate before that work starts.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import gcd, isqrt
from operator import add, mul, sub
from typing import Callable, Collection, NamedTuple

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


def quadruples(n: int, which: str = "Bprime") -> tuple[tuple[int, int, int, int], ...]:
    """Materialized tuple of the quadruples in enumeration order.

    Listed by enumerate_quadruples, through its work limit, on every call;
    nothing is kept between calls.
    """
    out: list[tuple[int, int, int, int]] = []
    enumerate_quadruples(n, which, lambda a, b, x, y: out.append((a, b, x, y)))
    return tuple(out)


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


def _least_primes(top: int) -> list[int]:
    # least[m] is the least prime of m for 2 <= m < top, and least[1] = 1.
    # Eratosthenes by slice assignment: each prime p <= isqrt(top - 1), from the
    # largest down, strikes its multiples from p*p with p, so each m is struck
    # last by its least prime.  The primes are read from this sieve's own table
    # up to isqrt(top - 1); the largest strike holds about top / 2 entries.  No
    # divisor list is built or cached.
    least = list(range(top))
    root = isqrt(top - 1)
    if root > 1:
        small = _least_primes(root + 1)
        for p in range(root, 1, -1):
            if small[p] == p:
                least[p * p :: p] = [p] * len(range(p * p, top, p))
    return least


def _g_tables(
    keys: list[tuple[int, int]], least: list[int], size: int
) -> dict[tuple[int, int], list[int]]:
    # {(i, k): [0, g(1), ..., g(size - 1)]} for each distinct key, g being the
    # multiplicative g(m) = Σ_{ax = m} a**i x**k (sigma_k is the case i = 0);
    # the tables are filled two per pass over m, an odd one out alone
    keys = list(dict.fromkeys(keys))
    tables = {}
    for first, second in zip(keys[::2], keys[1::2]):
        tables[first], tables[second] = _g_pair(*first, *second, least, size)
    if len(keys) % 2:
        tables[keys[-1]] = _g_one(*keys[-1], least, size)
    return tables


def _g_pair(
    i: int, k: int, j: int, l: int, least: list[int], size: int
) -> tuple[list[int], list[int]]:
    # the g tables of (i, k) and (j, l) from one pass, one product per entry.
    # With p = least[m] and q = m / p, p divides m once when least[q] != p
    # (least[1] = 1), so g(m) = g(p) g(q), or p**i + p**k for m = p prime.
    # Otherwise p's full power p**e is divided out, so g(m) = g(p**e) g(m / p**e),
    # or g(p**e) = p**(ie) + p**k g(p**(e-1)) for m = p**e
    g, h = [0] * size, [0] * size
    g[1] = h[1] = 1
    for m in range(2, size):
        p = least[m]
        q = m // p
        if least[q] != p:
            if q > 1:
                g[m] = g[p] * g[q]
                h[m] = h[p] * h[q]
            else:
                g[m] = m**i + m**k
                h[m] = m**j + m**l
        else:
            power, rest = p * p, q // p
            while least[rest] == p:
                power, rest = power * p, rest // p
            if rest > 1:
                g[m] = g[power] * g[rest]
                h[m] = h[power] * h[rest]
            else:
                g[m] = m**i + p**k * g[q]
                h[m] = m**j + p**l * h[q]
    return g, h


def _g_one(i: int, k: int, least: list[int], size: int) -> list[int]:
    # the g table of (i, k) alone, by _g_pair's steps
    g = [0] * size
    g[1] = 1
    for m in range(2, size):
        p = least[m]
        q = m // p
        if least[q] != p:
            g[m] = g[p] * g[q] if q > 1 else m**i + m**k
        else:
            power, rest = p * p, q // p
            while least[rest] == p:
                power, rest = power * p, rest // p
            g[m] = g[power] * g[rest] if rest > 1 else m**i + p**k * g[q]
    return g


def _inversion_terms(u: int, w: int, n: int, least: list[int]) -> list[tuple[int, int]]:
    # [(m, h(m))] over the cube-free m | n, for the multiplicative h(m) = Σ_{de = m} μ(d) μ(e)
    # d**u e**w: h(p) = -(p**u + p**w), h(p**2) = p**(u + w), h(p**j) = 0 for j >= 3
    terms = [(1, 1)]
    while n > 1:
        p = least[n]
        n //= p
        p_u, p_w = p**u, p**w
        local = [(1, 1), (p, -p_u - p_w)]
        if least[n] == p:  # p**2 divided n
            local.append((p * p, p_u * p_w))
            while least[n] == p:
                n //= p
        terms = [(m * f, h * g) for m, h in terms for f, g in local]
    return terms


def _deconvolved(memo: list[int], g: list[int]) -> list[int]:
    # x with memo = g ⋆ x (Dirichlet), for memo = [M_B(N) for N = 0 .. top] and
    # g = [0, g(1) = 1, ..., g(top // 2)] the twin table of the weights (u, w):
    # M_B(N) = Σ_{mK = N} g(m) M_B'(K), so by forward substitution, with K in
    # ascending order, out[K] is M_B'(K) once every proper divisor of K has
    # taken its share, and g(m) M_B'(K) is then taken from every multiple mK
    # by slice assignment.  B(1) is empty, so M_B(1) = M_B'(1) = 0, K starts
    # at 2 and m stops at top // 2
    out = memo.copy()
    top = len(out) - 1
    for big_k in range(2, top // 2 + 1):
        out[2 * big_k :: big_k] = map(
            sub, out[2 * big_k :: big_k], map(mul, repeat(out[big_k]), g[2 : top // big_k + 1])
        )
    return out


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
    # M being Σ a**i b**j x**k y**l over the set; no moments sum to 0 with no
    # sieve.  One least-prime sieve, one g table per (i, k), built two per
    # pass, and one memo of M_B(N) per (i + j, k + l) serve every n.  The memo
    # is filled N by N from dot products, or at once from one product per term
    # where _product_is_cheaper says so.  Over B'(n) the dot route inverts each
    # n from its own Möbius terms; a product memo holds every M_B(N) up to top,
    # and M_B = g_uw ⋆ M_B' (gcd(a, b) and gcd(x, y) taken out of each
    # quadruple), so each product group's twin table g_uw, built up to top // 2
    # two per pass like the others, solves for every M_B'(n) (_deconvolved).
    # Both routes read g(m) for m < top only, so each g table stops there; the
    # sieve keeps index top for the dot route's Möbius step
    coprime = _check_set(which)
    if not moments:
        return [0] * len(ns)
    top = max(ns)
    least = _least_primes(top + 1)
    # g_ik is g_ki, so each moment reads the tables of its sorted (i, k) and (j, l)
    keys = [((min(i, k), max(i, k)), (min(j, l), max(j, l))) for i, j, k, l in moments]
    tables = _g_tables([key for pair in keys for key in pair], least, top)
    groups: dict[tuple[int, int], list[tuple[int, list[int], list[int]]]] = {}
    for ((i, j, k, l), c), (ik, jl) in zip(moments.items(), keys):
        groups.setdefault((i + j, k + l), []).append((c, tables[ik], tables[jl]))
    products = sum(set(ns))
    # the product route's groups, each with the sorted key of its twin table
    by_product = {
        (u, w): (min(u, w), max(u, w))
        for u, w in groups
        if _product_is_cheaper(top, products, u + w)
    }
    if coprime:
        twins = _g_tables(list(by_product.values()), least, top // 2 + 1)
    else:
        least = None  # B(n) factors nothing more; free the sieve before the sums
    # swept[n] sums the product route's groups, each set's M(n) for every n
    swept = None
    dots = []
    for weights, terms in groups.items():
        if weights in by_product:
            memo = _product_memo(terms, top)
            if coprime:
                memo = _deconvolved(memo, twins[by_product[weights]])
            swept = memo if swept is None else list(map(add, swept, memo))
        else:
            dots.append((weights, terms, [None] * (top + 1)))
    out = []
    for n in ns:
        total = 0 if swept is None else swept[n]
        for weights, terms, memo in dots:
            # Over B'(n): [gcd(a, b) = 1] = Σ_{d | gcd(a, b)} μ(d), likewise e for (x, y), and
            # d·a', d·b', e·x', e·y' puts (a', b', x', y') in B(n / de) with weight d**u e**w
            for m, h in _inversion_terms(*weights, n, least) if coprime else ((1, 1),):
                big_n = n // m
                value = memo[big_n]
                if value is None:
                    # M_B(N) = Σ_{0<m<N} g_ik(m) g_jl(N - m): each ax + by = N splits at m = ax;
                    # g_ik is read in place, g_jl as one reversed slice (islice would
                    # step through the top - N entries above it one by one)
                    value = 0
                    for c, g_ik, g_jl in terms:
                        value += c * sum(map(mul, islice(g_ik, 1, big_n), g_jl[big_n - 1 : 0 : -1]))
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


class PreIdentityReport(NamedTuple):
    """The six expressions that the pre-identity forces to agree on B'(n).

    conv_sr is conv_rs, as sigma_prime(s, r, m, n - m) == sigma_prime(r, s,
    n - m, m) (test_sigma_prime_symmetry); xy_sr, ab_rs and ab_sr are xy_rs,
    as B'(n) is closed under (a, b, x, y) -> (b, a, y, x) and -> (x, y, a, b)
    (test_pre_identity_matches_the_literal_sums sums all four literally).
    """

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


# Units per sigma_prime term: one takes 1.7 us warm, 8.6 us cold, a core product 12 ns
# (2-CPU container, Python 3.11.7), so 140-700; 197 keeps the gate at 262 units per n.
_SIGMA_PRIME_TERM_COST = 197


def check_pre_identity(r: int, s: int, n: int) -> PreIdentityReport:
    """Compare sigma_prime's convolution with the core's moment, once each.

    Σ_{0<m<n} sigma_prime(r, s, m, n - m) against M(0, 0, r, s) over B'(n),
    from one moment-core call that lists no set; the report's other four
    values repeat these two (see PreIdentityReport).  Raises ValueError for
    r < 0 or s < 0, and BudgetExceededError before any sum when one moment of
    degree r + s plus n sigma_prime terms exceed the work limit; n <= 38167 is
    admitted for r + s <= 31.
    """
    if r < 0 or s < 0:
        raise ValueError(f"check_pre_identity requires r, s >= 0, got ({r}, {s})")
    work = _moment_work(r + s, (n,), rows=_SIGMA_PRIME_TERM_COST * n)
    needs = "the pre-identity at ({r}, {s}, {n}) needs about {work} units of work"
    arith._check_work(work, needs, r=r, s=s, n=n)
    conv = _sigma_prime_convolution(r, s, n)
    moment = _moment_sums({(0, 0, r, s): 1}, (n,), "Bprime")[0]
    return PreIdentityReport(r, s, n, conv, conv, *[moment] * 4, all_equal=conv == moment)
