"""Solution set enumeration, sigma_prime, and the pre-identity."""

from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import code_names
from sigmaprime import arith, lattice
from sigmaprime.arith import divisors, factorize, mobius, sigma_k
from sigmaprime.identities import THEOREM_RS
from sigmaprime.lattice import (
    SOLUTION_SETS,
    BudgetExceededError,
    _convolution_work,
    _convolutions,
    _deconvolved,
    _g_one,
    _g_pair,
    _g_tables,
    _inversion_terms,
    _least_primes,
    _moment_sums,
    _moment_work,
    _packed,
    _product_is_cheaper,
    _product_memo,
    _quadruple_bound,
    brute_convolution,
    check_pre_identity,
    enumerate_quadruples,
    quadruples,
    sigma_prime,
)
from sigmaprime.patternfit import _design_rows
from sigmaprime.powersums import ClosedForm


def oracle_set(n, coprime):
    # independent oracle: solve for y over a full (a, b, x) grid, no divisor
    # machinery involved
    out = set()
    for a in range(1, n):
        for b in range(1, n):
            for x in range(1, n):
                rest = n - a * x
                if rest >= b and rest % b == 0:
                    y = rest // b
                    if coprime and (gcd(a, b) != 1 or gcd(x, y) != 1):
                        continue
                    out.add((a, b, x, y))
    return out


def fused_brute_convolution(r, s, n, which):
    # reference: the per-quadruple loop with both gcd tests on every divisor
    total = 0
    if which == "Bprime":
        for a in range(1, n):
            for x in range(1, (n - 1) // a + 1):
                m = n - a * x
                xr = x**r
                for b in divisors(m):
                    if gcd(a, b) != 1:
                        continue
                    y = m // b
                    if gcd(x, y) == 1:
                        total += xr * y**s
    else:
        for a in range(1, n):
            ar = a**r
            for x in range(1, (n - 1) // a + 1):
                m = n - a * x
                for b in divisors(m):
                    total += ar * b**s
    return total


def test_enumerate_examples():
    assert quadruples(2, "Bprime") == ((1, 1, 1, 1),)
    assert set(quadruples(3, "Bprime")) == {(1, 1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 1, 1)}
    assert len(quadruples(3, "Bprime")) == 4
    # at n = 3 the gcd constraints are vacuous
    assert set(quadruples(3, "B")) == set(quadruples(3, "Bprime"))


def test_enumerate_order_is_deterministic():
    quads = quadruples(12, "Bprime")
    assert list(quads) == sorted(quads, key=lambda q: (q[0], q[2], q[1]))


def test_enumerate_against_oracle():
    for n in range(2, 25):
        for which, coprime in (("B", False), ("Bprime", True)):
            assert set(quadruples(n, which)) == oracle_set(n, coprime)


def test_enumerate_count_matches_divisor_identity():
    # |B(n)| = sum over m of d(m) d(n - m)
    for n in range(2, 60):
        count = enumerate_quadruples(n, "B")
        assert count == sum(sigma_k(0, m) * sigma_k(0, n - m) for m in range(1, n))


def test_solution_set_closed_under_symmetries():
    for n in range(2, 40):
        quads = set(quadruples(n, "Bprime"))
        for a, b, x, y in quads:
            assert (x, y, a, b) in quads
            assert (b, a, y, x) in quads
            assert (y, x, b, a) in quads


def test_enumerate_rejects_small_n_and_bad_set():
    with pytest.raises(ValueError):
        enumerate_quadruples(1, "B")
    with pytest.raises(ValueError):
        enumerate_quadruples(5, "Bplus")


def test_sigma_prime_examples():
    assert sigma_prime(1, 1, 1, 1) == 1
    # (m, n) = (2, 2): qualifying pairs are (d, e) = (1, 2) and (2, 1)
    assert sigma_prime(1, 1, 2, 2) == 4
    assert sigma_prime(1, 3, 2, 2) == 10
    assert sigma_prime(1, 1, 0, 3) == 0
    assert sigma_prime(1, 1, 5, -2) == 0


def test_sigma_prime_oracle():
    # oracle: full double remainder scan with both gcd constraints
    for m in range(1, 40):
        for n in range(1, 40):
            expected = sum(
                d**2 * e
                for d in range(1, m + 1)
                if m % d == 0
                for e in range(1, n + 1)
                if n % e == 0 and gcd(d, e) == 1 and gcd(m // d, n // e) == 1
            )
            assert sigma_prime(2, 1, m, n) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200), st.integers(0, 5), st.integers(0, 5))
def test_sigma_prime_symmetry(m, n, r, s):
    assert sigma_prime(r, s, m, n) == sigma_prime(s, r, n, m)


def _no_scan(*args):
    raise AssertionError("the factors were sought")


def test_sigma_prime_refuses_huge_powers_before_scanning(monkeypatch):
    # r * bit_length(m) and s * bit_length(n) bits against 2**20
    assert sigma_prime(2**19, 1, 2, 2) == sigma_prime(1, 2**19, 2, 2) == 2 ** 2**19 + 2

    monkeypatch.setattr(lattice, "factorize", _no_scan)
    for args in ((2**20, 1, 2, 2), (1, 2**20, 2, 2), (1, 349526, 2, 6)):
        with pytest.raises(BudgetExceededError) as info:
            sigma_prime(*args)
        assert str(info.value) == (
            f"sigma_prime({', '.join(map(str, args))}) needs powers of more than 1048576 bits"
        )


def _scan(r, s, m, n):
    # the double remainder scan with both gcd constraints
    return sum(
        d**r * e**s
        for d in range(1, m + 1)
        if m % d == 0
        for e in range(1, n + 1)
        if n % e == 0 and gcd(d, e) == 1 and gcd(m // d, n // e) == 1
    )


def test_sigma_prime_matches_the_scan_past_the_old_pair_limit():
    # 97821761637600 = 2^5 3^4 5^2 7^2 11 13 17 19 23 29 has 17280 divisors, so a
    # pair scan would test 3e8 pairs; the sum splits over coprime prime-power
    # pieces, each checked by the scan, and a piece may be 1 on either side
    m = n = 97821761637600
    for r, s in ((1, 1), (2, 1), (0, 3)):
        expected = 1
        for p, e in factorize(m):
            expected *= _scan(r, s, p**e, p**e)
        assert sigma_prime(r, s, m, n) == expected
    m, n = 2**5 * 3 * 7**2, 3**4 * 5 * 7
    for r, s in ((1, 1), (2, 1), (0, 3)):
        pieces = ((2**5, 1), (3, 3**4), (1, 5), (7**2, 7))
        expected = 1
        for a, b in pieces:
            expected *= _scan(r, s, a, b)
        assert sigma_prime(r, s, m, n) == expected == _scan(r, s, m, n)


def test_brute_convolution_examples():
    assert brute_convolution(1, 3, 2, "Bprime") == 1
    assert brute_convolution(1, 1, 3, "Bprime") == 6
    assert brute_convolution(3, 3, 3, "Bprime") == 18


def test_brute_convolution_matches_fused_loop():
    for n in range(2, 61):
        for r in range(6):
            for s in range(6):
                for which in SOLUTION_SETS:
                    expected = fused_brute_convolution(r, s, n, which)
                    assert brute_convolution(r, s, n, which) == expected, (r, s, n, which)


def test_brute_convolution_matches_literal_grid():
    # 30 reaches d * e = n with mu(d) mu(e) != 0; 36 has divisors with mu = 0
    for n in (*range(2, 21), 30, 36):
        grids = {which: oracle_set(n, which == "Bprime") for which in SOLUTION_SETS}
        for r in range(6):
            for s in range(6):
                xy = sum(x**r * y**s for _, _, x, y in grids["Bprime"])
                ab = sum(a**r * b**s for a, b, _, _ in grids["B"])
                assert brute_convolution(r, s, n, "Bprime") == xy
                assert brute_convolution(r, s, n, "B") == ab


# The Moebius inversion sums over pairs (d, e) with d * e | n.  On a prime power
# every d past the first prime has mu(d) = 0; the square-rich n mix zero and
# nonzero mu; on squarefree n every pair counts, including d * e = n (P(1) = 0).
GCD_RICH_N = (64, 81, 125, 128, 243, 256, 289, 343, 361, 36, 72, 100, 360, 900, 6, 30, 210, 2310)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.integers(2, 400), st.sampled_from(GCD_RICH_N)),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from(SOLUTION_SETS),
)
@example(210, 1, 3, "Bprime")
@example(2310, 0, 5, "Bprime")
@example(2310, 2, 2, "B")
@example(72, 0, 0, "Bprime")
@example(100, 5, 1, "Bprime")
@example(360, 2, 2, "Bprime")
@example(900, 3, 1, "Bprime")
def test_brute_convolution_property(n, r, s, which):
    assert brute_convolution(r, s, n, which) == fused_brute_convolution(r, s, n, which)


RANGE_PAIRS = (*THEOREM_RS.values(), (0, 2), (2, 0))


def test_range_route_matches_per_n_route():
    # one call over 2..300 shares its tables; it must give the per-n values
    ns = range(2, 301)
    for r, s in RANGE_PAIRS:
        for which in SOLUTION_SETS:
            values = _convolutions(r, s, ns, which)
            assert values == [brute_convolution(r, s, n, which) for n in ns], (r, s, which)
            assert values[:59] == [fused_brute_convolution(r, s, n, which) for n in range(2, 61)]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(2, 400), st.sampled_from((2, *GCD_RICH_N))), min_size=1, max_size=8
    ),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from(SOLUTION_SETS),
)
@example([2310, 2, 210, 2, 2310], 1, 3, "Bprime")
@example([210, 7, 2, 210], 2, 2, "B")
def test_range_route_property(ns, r, s, which):
    # the point sets fit and validate pass: sparse, unsorted, with repeats
    assert _convolutions(r, s, ns, which) == [brute_convolution(r, s, n, which) for n in ns]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 400).flatmap(lambda hi: st.tuples(st.integers(2, hi), st.just(hi))),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from(SOLUTION_SETS),
)
@example((2, 2), 0, 0, "B")
@example((2, 60), 1, 83, "Bprime")
@example((40, 400), 12, 12, "B")
def test_product_route_matches_per_n_route(lo_hi, r, s, which):
    # the product route forced on every dense range, against brute_convolution
    # n by n; a single n never takes it, and (1, 83) is the high-degree pair
    ns = range(lo_hi[0], lo_hi[1] + 1)
    per_n = [brute_convolution(r, s, n, which) for n in ns]
    with mock.patch.object(lattice, "_product_is_cheaper", return_value=True):
        assert _convolutions(r, s, ns, which) == per_n


# n divisible by a cube, whose h(m) vanish at m = p**3, and a squarefree one
CUBE_N = (8, 27, 72, 216, 432, 2310)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(st.integers(2, 500), st.sampled_from(CUBE_N)), min_size=1, max_size=8),
        st.integers(3, 440).flatmap(lambda lo: st.integers(lo, lo + 120).map(lambda hi: range(lo, hi + 1))),
    ),
    st.integers(0, 5),
    st.integers(0, 5),
)
@example([2310, 8, 432, 27, 8, 216, 72], 1, 3)
@example(range(8, 73), 1, 3)
@example(range(200, 433), 0, 2)
@example(range(27, 28), 2, 1)
def test_dirichlet_pass_matches_per_n_inversion(ns, r, s):
    # the product route forced on sparse, unsorted and repeated lists and on
    # ranges from lo > 2: every M_B'(n) is solved from the memo and its twin
    # table by forward substitution, against brute_convolution's per-n Möbius step
    per_n = [brute_convolution(r, s, n, "Bprime") for n in ns]
    with mock.patch.object(lattice, "_product_is_cheaper", return_value=True):
        assert _convolutions(r, s, ns, "Bprime") == per_n


def test_moment_sums_of_no_moments_build_no_sieve(monkeypatch):
    # no moments sum to 0 at every n before any sieve: the left side of every
    # swap-symmetric f
    def refuse(*args):
        raise AssertionError("a sieve was built")

    monkeypatch.setattr(lattice, "_least_primes", refuse)
    for which in SOLUTION_SETS:
        assert _moment_sums({}, [5, 2, 5, 300], which) == [0, 0, 0, 0]
        assert _moment_sums({}, range(2, 151), which) == [0] * 149


def test_product_route_rule_decisions():
    # decided on numbers alone: the largest n, Σn and the degree
    for n in (2, 25, 2046, 150000):
        for degree in (0, 12, 24, 84):
            assert not _product_is_cheaper(n, n, degree), (n, degree)
    assert _product_is_cheaper(150, sum(range(2, 151)), 2)
    assert _product_is_cheaper(4400, sum(range(2, 4401)), 12)
    # its product ran 0.81 s against 0.68 s of dot products
    assert not _product_is_cheaper(3001, sum(range(2, 3002)), 84)


def test_moment_sums_takes_the_route_the_rule_picks(monkeypatch):
    # a single n fills its memo by dot products, a dense range from the product
    tops = []
    product_memo = lattice._product_memo

    def spy(terms, top):
        tops.append(top)
        return product_memo(terms, top)

    monkeypatch.setattr(lattice, "_product_memo", spy)
    brute_convolution(1, 1, 150, "Bprime")
    _convolutions(1, 1, range(2, 151), "B")
    assert tops == [150]


def test_product_memo_reads_every_slot():
    # slot N of the packed product is M_B(N) for N <= top, each term weighted
    # by its c; entries of 0 and of a full slot width keep their places
    tables = _g_tables([(0, 1), (2, 3)], _least_primes(31), 31)
    g, h = tables[0, 1], tables[2, 3]
    dot = [sum(g[m] * h[n - m] for m in range(1, n)) for n in range(31)]
    assert _product_memo([(1, g, h)], 30) == dot
    assert _product_memo([(3, g, h), (-1, h, g)], 30) == [2 * v for v in dot]
    assert _packed([0, 255, 1], 3, 1) == 0x01FF00
    assert _packed([0, 255, 1], 2, 2) == 0x00FF0000


def test_oracle_work_estimate():
    # the oracle's estimate is the core's for one moment of degree r + s
    assert _moment_work(4, [5, 3]) == lattice._TABLE_ENTRY_COST * 5 + 5 + 3
    # huge inputs are only estimated, never run: counting stops past the limit
    assert _moment_work(4, range(2, 10**8 + 1)) > arith._WORK_LIMIT
    assert _moment_work(4, [10**9]) > arith._WORK_LIMIT
    assert _moment_work(4, [2, 10**9, 3]) > arith._WORK_LIMIT
    # the largest calls of the tests, selftest and benchmark stay 10x below it
    for ns in ([2310], range(2, 301), [2310] * 8):
        assert 10 * _moment_work(12, ns) <= arith._WORK_LIMIT
    # more moments and rows scale it, and the weight covers both
    assert _moment_work(4, [5, 3], moments=3, rows=7) == 3 * (64 * 5 + 5 + 3) + 7
    assert _moment_work(2000, [200], moments=2, rows=10) == (2 * (64 * 200 + 200) + 10) * 32


def test_oracle_work_weighs_exponent_size():
    # weight 1 for exponents up to 12 at the largest admitted n
    top = arith._WORK_LIMIT // (lattice._TABLE_ENTRY_COST + 1)
    assert _moment_work(24, [top]) == (lattice._TABLE_ENTRY_COST + 1) * top
    # huge powers over a small n are refused from the estimate alone
    assert _moment_work(100001, [600]) > arith._WORK_LIMIT
    assert _moment_work(10**6 + 1, [600]) > arith._WORK_LIMIT
    assert _moment_work(10**6 + 1, [600]) > _moment_work(100001, [600])


def test_oracle_refuses_over_budget_before_building_tables(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(arith, "_WORK_LIMIT", 1000)
    monkeypatch.setattr(lattice, "_least_primes", no_tables)
    monkeypatch.setattr(lattice, "_g_tables", no_tables)
    monkeypatch.setattr(lattice, "divisors", no_tables)
    for which in SOLUTION_SETS:
        with pytest.raises(BudgetExceededError, match="limit is 1000"):
            brute_convolution(1, 3, 100, which)
        with pytest.raises(BudgetExceededError):
            _convolutions(1, 3, range(2, 40), which)


def test_plain_oracle_touches_no_divisor_cache():
    # the σ tables and the Möbius step read the oracle's own factor table, so
    # a call over either set neither reads nor fills the process-wide divisors
    # and factorize caches; 2310 is squarefree, 2048 a prime power
    before = divisors.cache_info(), factorize.cache_info()
    brute_convolution(1, 3, 2003, "B")
    brute_convolution(1, 3, 2310, "Bprime")
    brute_convolution(2, 2, 2048, "Bprime")
    assert (divisors.cache_info(), factorize.cache_info()) == before


def test_oracle_names_no_arith_kernel_function():
    # the oracle checks the kernel behind the closed forms, so it must not call it
    kernel = {"mobius", "divisors", "factorize", "sigma_k"}
    for func in (
        _convolutions,
        _convolution_work,
        _moment_sums,
        _least_primes,
        _g_tables,
        _g_pair,
        _g_one,
        _inversion_terms,
        _deconvolved,
        _product_is_cheaper,
        _product_memo,
        _packed,
    ):
        assert not code_names(func.__code__) & kernel, func.__name__


def test_closed_forms_name_no_psi():
    # psi is the Fraction reference that evaluate is tested against, so the
    # integer route must not fall back to it
    for func in (ClosedForm.evaluate, ClosedForm._values, ClosedForm.__new__, _design_rows):
        assert "psi" not in code_names(func.__code__), func.__qualname__


def test_factor_table_matches_factorize():
    # the least-prime sieve: every top up to 300 covers the edges where
    # top - 1 = p**2 (5, 10, 26, 50, 122, 170, ...), the last square the strike
    # must reach, and 5000 a sieve whose own primes come from a sieve of a sieve
    for top in [*range(2, 301), 5000]:
        least = _least_primes(top)
        assert least[:2] == [0, 1] and len(least) == top, top
        for m in range(2, top):
            assert least[m] == factorize(m)[0][0], (top, m)


def test_sigma_table_matches_sigma_k():
    # k = 0 checks sigma_0(p**e) = e + 1; the 13 keys take six two-key passes
    # and one pass alone
    tables = _g_tables([(0, k) for k in range(13)], _least_primes(2000), 2000)
    for k in range(13):
        assert tables[0, k][1:] == [sigma_k(k, m) for m in range(1, 2000)], k


def _literal_g(i, k, size):
    # [0, g(1), ..., g(size - 1)] for g(m) = Σ_{ax = m} a**i x**k
    return [0] + [sum(a**i * (m // a) ** k for a in divisors(m)) for m in range(1, size)]


def test_g_tables_fill_two_keys_a_pass_and_one_alone(monkeypatch):
    # each distinct key's table is built once: two keys share a pass, an odd
    # one out takes its own, and a repeated key (r = s) takes no second pass;
    # keys with i > 0 and i > k included, each against its literal sum
    passes = []

    def spy(name):
        build = getattr(lattice, name)

        def counting(*args):
            passes.append((name, args[:-2]))
            return build(*args)

        monkeypatch.setattr(lattice, name, counting)

    spy("_g_pair")
    spy("_g_one")
    least = _least_primes(601)
    for keys, expected in (
        ([(0, 3), (0, 3)], [("_g_one", (0, 3))]),
        ([(1, 2), (0, 5)], [("_g_pair", (1, 2, 0, 5))]),
        ([(2, 1), (0, 0), (2, 1), (3, 3), (0, 0)], [("_g_pair", (2, 1, 0, 0)), ("_g_one", (3, 3))]),
    ):
        passes.clear()
        tables = _g_tables(keys, least, 600)
        assert passes == expected, keys
        assert list(tables) == list(dict.fromkeys(keys))
        for i, k in tables:
            assert tables[i, k] == _literal_g(i, k, 600), (i, k)
    # the oracle builds its two σ tables in one pass, or one when r = s
    passes.clear()
    brute_convolution(1, 3, 300, "Bprime")
    brute_convolution(2, 2, 300, "B")
    assert passes == [("_g_pair", (0, 1, 0, 3)), ("_g_one", (0, 2))]


def test_moment_sums_build_g_tables_only_below_the_largest_n(monkeypatch):
    # both routes read g(m) for m < max(ns) only, so no moment table holds
    # entry max(ns); at n = 2 the tables are [0, g(1)] and no power is taken.
    # A B' range on the product route then builds one twin table per group
    # (i + j, k + l), up to max(ns) // 2; the dot route and B build none
    calls = []
    g_tables = lattice._g_tables

    def spy(*args):
        tables = g_tables(*args)
        calls.append([len(table) for table in tables.values()])
        return tables

    monkeypatch.setattr(lattice, "_g_tables", spy)
    # moment tables (1, 2), (0, 1) and (0, 2); groups, and so twins, (1, 3) and (2, 1)
    moments = {(1, 0, 2, 1): 3, (0, 2, 1, 0): -2}
    for which in SOLUTION_SETS:
        for ns in ([2], [30], range(2, 151), [17, 5, 40]):
            calls.clear()
            _moment_sums(moments, ns, which)
            twins = [[max(ns) // 2 + 1] * 2] if which == "Bprime" and ns == range(2, 151) else []
            nonempty = [sizes for sizes in calls if sizes]
            assert nonempty == [[max(ns)] * 3, *twins], (which, ns, calls)


def test_moment_tables_and_inversion_match_literal_sums():
    # g(m) = Σ_{ax = m} a**i x**k and h(m) = Σ_{de = m} μ(d) μ(e) d**u e**w,
    # each against its literal sum for m < 200
    least = _least_primes(200)
    tables = _g_tables([(i, k) for i in range(5) for k in range(5)], least, 200)
    for i in range(5):
        for k in range(5):
            assert tables[i, k] == _literal_g(i, k, 200), (i, k)
    for m in range(1, 200):
        for u in range(4):
            for w in range(4):
                literal = sum(mobius(d) * mobius(m // d) * d**u * (m // d) ** w for d in divisors(m))
                assert dict(_inversion_terms(u, w, m, least)).get(m, 0) == literal, (m, u, w)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(10**6), 10**6) | st.just(0), min_size=1, max_size=160),
    st.integers(0, 4),
    st.integers(0, 4),
)
@example([0] * 40, 0, 0)
@example([1], 3, 1)
@example([-1, 0, 5, 0, 0, 0, 7, -2], 2, 2)
def test_deconvolved_inverts_a_dirichlet_product(tail, u, w):
    # memo = g ⋆ x by its literal divisor sum, for x with x(0) = x(1) = 0 and
    # signed entries and zeros, and g a table from _g_tables up to top // 2
    x = [0, 0, *tail]
    top = len(x) - 1
    g = _g_tables([(u, w)], _least_primes(top // 2 + 1), top // 2 + 1)[u, w]
    memo = [0] + [sum(g[m] * x[n // m] for m in divisors(n) if m <= top // 2) for n in range(1, top + 1)]
    assert _deconvolved(memo, g) == x


def test_oracle_over_b_is_the_sigma_twin_of_the_oracle_over_b_prime():
    # M_B(n) = Σ_{m | n, m >= 2} σ_{r+s}(n / m) M_B'(m): gcd(a, b) and gcd(x, y)
    # taken out of each quadruple, read against arith's own σ kernel
    ns = range(2, 301)
    for r, s in ((0, 0), (1, 1), (1, 3), (2, 5), (4, 0), (3, 3)):
        over_b = dict(zip(ns, _convolutions(r, s, ns, "B")))
        over_b_prime = dict(zip(ns, _convolutions(r, s, ns, "Bprime")))
        for n in ns:
            twin = sum(sigma_k(r + s, n // m) * over_b_prime[m] for m in divisors(n) if m >= 2)
            assert over_b[n] == twin, (r, s, n)


def test_moment_sums_match_literal_moments():
    # a combination of mixed moments against sums over the enumerated sets
    moments = {(1, 0, 2, 1): 3, (0, 2, 1, 0): -2, (2, 1, 0, 0): 1, (0, 0, 0, 0): 5}
    for which in SOLUTION_SETS:
        ns = list(range(2, 25))
        expected = [
            sum(
                c * a**i * b**j * x**k * y**l
                for a, b, x, y in oracle_set(n, which == "Bprime")
                for (i, j, k, l), c in moments.items()
            )
            for n in ns
        ]
        assert _moment_sums(moments, ns, which) == expected, which


def test_inversion_terms_match_literal_weights():
    # h(m) = Σ_{de = m} μ(d) μ(e) e**w; the terms of n list the cube-free
    # divisors m of n, each once, so h(n) is the term at m = n or 0
    least = _least_primes(2001)
    for n in range(1, 2001):
        terms = [_inversion_terms(0, w, n, least) for w in range(13)]
        ms = [m for m, _ in terms[0]]
        assert sorted(ms) == [m for m in divisors(n) if all(e < 3 for _, e in factorize(m))]
        for w in range(13):
            literal = sum(mobius(d) * mobius(n // d) * (n // d) ** w for d in divisors(n))
            assert dict(terms[w]).get(n, 0) == literal, (n, w)


def test_brute_convolution_plain_equals_classical():
    for n in range(2, 60):
        for r, s in ((1, 1), (1, 3), (2, 2)):
            expected = sum(sigma_k(r, m) * sigma_k(s, n - m) for m in range(1, n))
            assert brute_convolution(r, s, n, "B") == expected


def test_pre_identity_examples():
    report = check_pre_identity(1, 3, 3)
    assert report.all_equal
    assert report.values() == (12, 12, 12, 12, 12, 12)
    report = check_pre_identity(1, 1, 2)
    assert report.all_equal
    assert report.values() == (1, 1, 1, 1, 1, 1)


def test_quadruple_bound_holds_over_the_admitted_range(monkeypatch):
    # quadruples admits n <= 8503; over B(n) at r = s = 0 the oracle gives
    # |B(n)| = Σ_{0<m<n} d(m) d(n - m), so the limit is raised to let it run
    admitted = [n for n in range(2, 10**4) if lattice._QUADRUPLE_COST * _quadruple_bound(n) <= 10**7]
    assert admitted == list(range(2, 8504))
    monkeypatch.setattr(arith, "_WORK_LIMIT", 10**9)
    sizes = _convolutions(0, 0, admitted, "B")
    assert sizes[:3] == [len(quadruples(n, "B")) for n in (2, 3, 4)]
    ratio, n = max((size / _quadruple_bound(n), n) for n, size in zip(admitted, sizes))
    assert (round(ratio, 3), n) == (0.755, 7560)


def _enumerated(*args):
    raise AssertionError("the quadruples were enumerated")


def test_quadruples_refuse_over_budget_before_enumerating(monkeypatch):
    # the streamer holds the gate, so listing and streaming refuse alike
    monkeypatch.setattr(lattice, "divisors", _enumerated)
    for which in SOLUTION_SETS:
        for route in (quadruples, enumerate_quadruples):
            with pytest.raises(BudgetExceededError) as info:
                route(8504, which)
            assert str(info.value) == (
                f"listing {which}(8504) needs about 10000704 units of work, the limit is 10000000"
            )
            # at the largest admitted n the call gets as far as enumerating
            with pytest.raises(AssertionError, match="enumerated"):
                route(8503, which)


def test_pre_identity_refuses_over_budget_before_its_sums(monkeypatch):
    monkeypatch.setattr(lattice, "_moment_sums", _enumerated)
    monkeypatch.setattr(lattice, "_sigma_prime_convolution", _enumerated)
    with pytest.raises(BudgetExceededError) as info:
        check_pre_identity(1, 1, 38168)
    assert str(info.value) == (
        "the pre-identity at (1, 1, 38168) needs about 10000016 units of work, the limit is 10000000"
    )
    # a moment of degree 32 over 16-bit n, 512 bits, counts twice
    with pytest.raises(BudgetExceededError, match="about 19999508 units"):
        check_pre_identity(32, 0, 38167)
    with pytest.raises(AssertionError, match="enumerated"):
        check_pre_identity(31, 0, 38167)


def test_pre_identity_refuses_negative_exponents_before_its_gate(monkeypatch):
    # before the gate, which would read a negative r + s as a degree
    monkeypatch.setattr(lattice, "_moment_sums", _enumerated)
    monkeypatch.setattr(lattice, "_sigma_prime_convolution", _enumerated)
    for r, s, n in ((-30, 0, 10**6), (-1, 0, 10**9), (-1, 0, 5), (0, -1, 5)):
        with pytest.raises(ValueError) as info:
            check_pre_identity(r, s, n)
        assert str(info.value) == f"check_pre_identity requires r, s >= 0, got ({r}, {s})"


def test_pre_identity_compares_its_two_routes(monkeypatch):
    convolution = lattice._sigma_prime_convolution

    def off_by_one(r, s, n):
        return convolution(r, s, n) + 1

    monkeypatch.setattr(lattice, "_sigma_prime_convolution", off_by_one)
    report = check_pre_identity(1, 3, 10)
    assert not report.all_equal
    assert report.conv_rs == report.xy_rs + 1


def test_pre_identity_matches_the_literal_sums():
    # the four quadruple sums, from the core in one call, against a literal
    # walk of B'(n): every r, s <= 5, r = s included, so swapped or merged
    # slots show, and one larger n
    def literal(r, s, quads):
        return (
            sum(x**r * y**s for _, _, x, y in quads),
            sum(x**s * y**r for _, _, x, y in quads),
            sum(a**r * b**s for a, b, _, _ in quads),
            sum(a**s * b**r for a, b, _, _ in quads),
        )

    def listed(n):
        quads = []
        enumerate_quadruples(n, "Bprime", lambda *quad: quads.append(quad))
        return quads

    for n in range(2, 61):
        quads = listed(n)
        for r in range(6):
            for s in range(6):
                report = check_pre_identity(r, s, n)
                assert report.values()[2:] == literal(r, s, quads), (r, s, n)
                assert report.all_equal, (r, s, n)
    report = check_pre_identity(1, 3, 2000)
    assert report.values()[2:] == literal(1, 3, listed(2000)) and report.all_equal


def test_pre_identity_small_grid():
    # full r, s <= 5 range is covered by the acceptance suite
    for r in range(4):
        for s in range(r, 4):
            for n in range(2, 26):
                assert check_pre_identity(r, s, n).all_equal
