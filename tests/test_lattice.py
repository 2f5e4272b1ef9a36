"""Solution set enumeration, sigma_prime, and the pre-identity."""

from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmaprime import lattice
from sigmaprime.arith import divisors, factorize, sigma_k
from sigmaprime.identities import THEOREM_RS
from sigmaprime.lattice import (
    SOLUTION_SETS,
    BudgetExceededError,
    _convolutions,
    _coprime_divisor_pairs,
    _oracle_work,
    brute_convolution,
    check_pre_identity,
    enumerate_quadruples,
    quadruples,
    sigma_prime,
)


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


def test_oracle_work_estimate():
    assert _oracle_work(1, 3, [5, 3]) == lattice._TABLE_ENTRY_COST * 5 + 5 + 3
    # huge inputs are only estimated, never run: counting stops past the limit
    assert _oracle_work(1, 3, range(2, 10**8 + 1)) > lattice._WORK_LIMIT
    assert _oracle_work(1, 3, [10**9]) > lattice._WORK_LIMIT
    assert _oracle_work(1, 3, [2, 10**9, 3]) > lattice._WORK_LIMIT
    # the largest calls of the tests, selftest and benchmark stay 10x below it
    for ns in ([2310], range(2, 301), [2310] * 8):
        assert 10 * _oracle_work(5, 7, ns) <= lattice._WORK_LIMIT


def test_oracle_work_weighs_exponent_size():
    # weight 1 for exponents up to 12 at the largest admitted n
    top = lattice._WORK_LIMIT // (lattice._TABLE_ENTRY_COST + 1)
    assert _oracle_work(12, 12, [top]) == (lattice._TABLE_ENTRY_COST + 1) * top
    # huge powers over a small n are refused from the estimate alone
    assert _oracle_work(100000, 1, [600]) > lattice._WORK_LIMIT
    assert _oracle_work(10**6, 1, [600]) > lattice._WORK_LIMIT
    assert _oracle_work(10**6, 1, [600]) > _oracle_work(100000, 1, [600])


def test_oracle_refuses_over_budget_before_building_tables(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(lattice, "_WORK_LIMIT", 1000)
    monkeypatch.setattr(lattice, "_sigma_table", no_tables)
    monkeypatch.setattr(lattice, "divisors", no_tables)
    for which in SOLUTION_SETS:
        with pytest.raises(BudgetExceededError, match="limit is 1000"):
            brute_convolution(1, 3, 100, which)
        with pytest.raises(BudgetExceededError):
            _convolutions(1, 3, range(2, 40), which)


def test_plain_oracle_touches_no_divisor_cache():
    # the σ tables are sieved, so a call over B(n) neither reads nor fills
    # the process-wide divisors and factorize caches
    before = divisors.cache_info(), factorize.cache_info()
    brute_convolution(1, 3, 2003, "B")
    assert (divisors.cache_info(), factorize.cache_info()) == before


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


def test_quadruples_memo_is_bounded():
    # the bound must hold the full pre-identity grid, 2 <= n <= 60
    maxsize = quadruples.cache_info().maxsize
    assert maxsize is not None and maxsize >= 59
    quadruples.cache_clear()
    for _ in range(2):
        for n in range(2, 61):
            quadruples(n, "Bprime")
    info = quadruples.cache_info()
    assert (info.misses, info.hits, info.currsize) == (59, 59, 59)


def test_coprime_divisor_pairs_memo_is_bounded():
    # the bound must hold every key (m, n - m) of the pre-identity grid, n <= 60
    maxsize = _coprime_divisor_pairs.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1770
    _coprime_divisor_pairs.cache_clear()
    for _ in range(2):
        for n in range(2, 61):
            for m in range(1, n):
                sigma_prime(1, 2, m, n - m)
    info = _coprime_divisor_pairs.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1770, 1770, 1770)


def test_pre_identity_small_grid():
    # full r, s <= 5 range is covered by the acceptance suite
    for r in range(4):
        for s in range(r, 4):
            for n in range(2, 26):
                assert check_pre_identity(r, s, n).all_equal
