"""Representation counters: raw enumeration vs the convolution oracle."""

from math import gcd

import pytest

from helpers import code_names
from sigmaprime.arith import divisors, sigma_k, totient
from sigmaprime import arith, lattice, representations
from sigmaprime.lattice import check_pre_identity, enumerate_quadruples, sigma_prime
from sigmaprime.representations import (
    COUNTERS,
    BudgetExceededError,
    CountSpec,
    _raw_count,
    count_fast,
    count_raw,
    verify_lm,
)


def test_count_examples():
    assert count_fast(CountSpec("L", 1, 1, 3)) == 6
    assert count_raw(CountSpec("L", 1, 1, 3)) == 6
    assert count_fast(CountSpec("Lprime", 1, 1, 2)) == 1
    assert count_raw(CountSpec("Lprime", 1, 1, 2)) == 1
    assert count_fast(CountSpec("Mprime", 3, 3, 3)) == 18
    assert count_raw(CountSpec("Mprime", 3, 3, 3)) == 18
    assert count_fast(CountSpec("L", 2, 1, 2)) == 1
    assert count_raw(CountSpec("L", 2, 1, 2)) == 1


def test_split_count_identities():
    # the raw loops lean on two elementary counts: an integer A has exactly
    # A ordered splits A = a + c with a >= 0, c > 0, and exactly phi(A)
    # of them with gcd(a, c) = 1 (convention gcd(0, c) = c)
    for upper in (1, 2, 3, 17, 100, 200):
        splits = sum(1 for a in range(upper) for c in (upper - a,) if c > 0)
        assert splits == upper
        coprime = sum(1 for a in range(upper) if gcd(a, upper - a) == 1)
        assert coprime == totient(upper)


def test_raw_matches_fast_small_grid():
    for r, s in ((1, 1), (1, 2), (2, 2)):
        for n in range(2, 11):
            for which in ("L", "M", "Lprime", "Mprime"):
                spec = CountSpec(which, r, s, n)
                assert count_raw(spec) == count_fast(spec), (which, r, s, n)


def _nested_raw(spec):
    # the literal tuple loop: every (a, b) pair for L, and for M every
    # (e, a, f, b) with e | u**r, f | v**s and both splits coprime
    quads = []
    enumerate_quadruples(spec.n, spec.solution_set, lambda u, v, x, y: quads.append((u, v)))
    total = 0
    for u, v in quads:
        ur, vs = u**spec.r, v**spec.s
        if spec.which in ("L", "Lprime"):
            for _a in range(ur):  # c = ur - a >= 1
                for _b in range(vs):  # d = vs - b >= 1
                    total += 1
            continue
        for e in divisors(ur):
            for a in range(e):
                if gcd(a, e - a) != 1:
                    continue
                for f in divisors(vs):
                    for b in range(f):
                        if gcd(b, f - b) == 1:
                            total += 1
    return total


def test_raw_matches_nested_tuple_loop():
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for n in range(2, 11):
                for which in COUNTERS:
                    spec = CountSpec(which, r, s, n)
                    assert count_raw(spec) == _nested_raw(spec), (which, r, s, n)


def test_raw_count_names_no_collapse_or_oracle():
    # the raw route checks the phi collapse and the convolution oracle, so it
    # must count splits itself rather than call either
    collapsed = {
        "totient",
        "mobius",
        "sigma_convolution",
        "_sigma_prime_convolution",
        "_convolutions",
        "brute_convolution",
        "count_fast",
    }
    assert not code_names(_raw_count.__code__) & collapsed


def test_split_counts_live_for_one_call():
    # the split table belongs to one count_raw or verify_lm call: no function
    # the module defines keeps counts between calls (divisors and sigma_k
    # are arith's caches, imported)
    own = [
        obj
        for obj in vars(representations).values()
        if getattr(obj, "__module__", None) == representations.__name__
    ]
    assert _raw_count in own and not any(hasattr(obj, "cache_info") for obj in own)
    assert verify_lm(3, 2, 2, 9) == verify_lm(3, 2, 2, 9)


def test_fast_equals_convolutions():
    for r, s in ((1, 1), (1, 3), (2, 2)):
        for n in range(2, 40):
            expected = sum(sigma_k(r, m) * sigma_k(s, n - m) for m in range(1, n))
            assert count_fast(CountSpec("L", r, s, n)) == expected
            assert count_fast(CountSpec("M", r, s, n)) == expected
            coprime = sum(sigma_prime(r, s, m, n - m) for m in range(1, n))
            assert count_fast(CountSpec("Lprime", r, s, n)) == coprime
            assert count_fast(CountSpec("Mprime", r, s, n)) == coprime


def test_fast_matches_literal_quadruple_sum():
    # count_fast is the convolution oracle; this differential check sums
    # u**r v**s over the enumerated quadruples instead
    for n in range(2, 61):
        for which in COUNTERS:
            spec = CountSpec(which, 1, 1, n)
            quads = []
            enumerate_quadruples(n, spec.solution_set, lambda u, v, x, y: quads.append((u, v)))
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    expected = sum(u**r * v**s for u, v in quads)
                    assert count_fast(CountSpec(which, r, s, n)) == expected, (which, r, s, n)


def test_counting_does_not_enumerate(monkeypatch):
    specs = [
        CountSpec(which, r, s, n) for which in COUNTERS for r, s in ((1, 1), (2, 3)) for n in (2, 12, 60)
    ]
    expected = [count_fast(spec) for spec in specs]
    expected_lm = verify_lm(2, 1, 2, 12, budget=1)

    def refuse(*args):
        raise AssertionError("enumerate_quadruples was called")

    monkeypatch.setattr(lattice, "enumerate_quadruples", refuse)
    assert [count_fast(spec) for spec in specs] == expected

    # an enumerator that visits nothing: the raw route sees empty sets, while
    # the fast column must not notice
    calls = []

    def empty(n, which, visit=None):
        calls.append((n, which))
        return 0

    monkeypatch.setattr(lattice, "enumerate_quadruples", empty)
    report = verify_lm(2, 1, 2, 12, budget=1)
    assert [row.fast for row in report.rows] == [row.fast for row in expected_lm.rows]
    # only at n = 2 is a fast count (1) within the budget
    assert calls == [(2, "B"), (2, "Bprime")]


def test_verify_lm_report():
    report = verify_lm(1, 1, 2, 10)
    assert report.all_pass
    assert not report.skipped_any
    assert len(report.rows) == 9
    report = verify_lm(2, 3, 2, 8)
    assert report.all_pass


def test_verify_lm_budget_skips_raw_but_keeps_fast_checks():
    report = verify_lm(1, 1, 2, 20, budget=1)
    assert report.all_pass
    assert report.skipped_any
    for row in report.rows:
        assert row.skipped  # every raw route exceeds a budget of 1


def test_budget_error():
    spec = CountSpec("M", 3, 3, 12)
    with pytest.raises(BudgetExceededError) as info:
        count_raw(spec, budget=1000)
    assert "budget" in str(info.value)
    # generous budget succeeds and agrees with the convolution oracle
    assert count_raw(spec, budget=10**7) == count_fast(spec)


def test_count_raw_enumerates_once(monkeypatch):
    spec = CountSpec("Mprime", 2, 1, 9)
    expected = count_fast(spec)
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_quadruples(*args)

    monkeypatch.setattr(lattice, "enumerate_quadruples", counted)
    assert count_raw(spec) == expected
    assert len(calls) == 1
    # the fast count alone is over budget: refused without enumerating
    with pytest.raises(BudgetExceededError) as info:
        count_raw(CountSpec("M", 3, 3, 12), budget=1000)
    assert str(info.value) == (
        "raw enumeration of M(3,3;12) needs at least 301070 tuple visits, budget is 1000"
    )
    assert len(calls) == 1
    # the fast count fits, the visit estimate does not: refused after one enumeration
    with pytest.raises(BudgetExceededError) as info:
        count_raw(CountSpec("M", 3, 3, 12), budget=301070)
    assert str(info.value) == (
        "raw enumeration of M(3,3;12) needs about 1082784 tuple visits, budget is 301070"
    )
    assert len(calls) == 2


def test_count_raw_refuses_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(lattice, "enumerate_quadruples", refuse)
    with pytest.raises(BudgetExceededError) as info:
        count_raw(CountSpec("L", 1, 1, 20000))
    prefix, sep, rest = str(info.value).partition("needs at least ")
    assert prefix == "raw enumeration of L(1,1;20000) " and sep
    visits, _, tail = rest.partition(" ")
    assert int(visits) > 10**8 and tail == "tuple visits, budget is 100000000"


def test_count_raw_refuses_to_list_past_the_limit(monkeypatch):
    # with the widest tuple budget the fast counts fit, but B(8504) and B'(8504)
    # are over the listing's work limit: refused before the first divisor list
    def refuse(*args):
        raise AssertionError("the set was enumerated")

    monkeypatch.setattr(lattice, "divisors", refuse)
    for which, listed in (("L", "B"), ("Mprime", "Bprime")):
        with pytest.raises(BudgetExceededError) as info:
            count_raw(CountSpec(which, 1, 1, 8504), budget=10**40)
        assert str(info.value) == (
            f"listing {listed}(8504) needs about 10000704 units of work, the limit is 10000000"
        )
    row = verify_lm(1, 1, 8504, 8504, budget=10**40).rows[0]
    assert row.skipped == COUNTERS and row.ok


def test_pre_identity_lists_no_set(monkeypatch):
    # the four quadruple sums come from the moment core: no set is listed,
    # streamed or split into divisors
    def refuse(*args):
        raise AssertionError("a solution set was enumerated")

    for name in ("enumerate_quadruples", "quadruples", "divisors"):
        monkeypatch.setattr(lattice, name, refuse)
    monkeypatch.setattr(arith, "divisors", refuse)
    for r, s, n in ((2, 1, 9), (3, 3, 40), (0, 0, 60)):
        assert check_pre_identity(r, s, n).all_equal


def test_verify_lm_enumerates_each_set_once_per_n(monkeypatch):
    expected = verify_lm(2, 1, 2, 12)
    calls = []

    def counted(n, which, visit=None):
        calls.append((n, which))
        return enumerate_quadruples(n, which, visit)

    monkeypatch.setattr(lattice, "enumerate_quadruples", counted)
    # L and M share B(n), Lprime and Mprime B'(n): one listing each per n
    assert verify_lm(2, 1, 2, 12) == expected
    assert calls == [(n, which) for n in range(2, 13) for which in ("B", "Bprime")]
    # nothing outlives the call: a second pass lists every set again
    calls.clear()
    assert verify_lm(2, 1, 2, 12) == expected
    assert calls == [(n, which) for n in range(2, 13) for which in ("B", "Bprime")]
    calls.clear()
    assert verify_lm(2, 1, 2, 12, budget=1).skipped_any
    # a set is enumerated only where its fast count fits: at n = 2 it is 1
    assert calls == [(2, "B"), (2, "Bprime")]
    with pytest.raises(ValueError):
        verify_lm(2, 1, 2, 12, budget=0)


def test_verify_lm_and_count_raw_refuse_alike():
    # budgets below, at and between each set's fast count and the M visit
    # estimate Σ sigma(u**r) * (1 + sigma(v**s)), computed here from the set
    for n in range(2, 15):
        sets = {}
        for ss in ("B", "Bprime"):
            quads = []
            enumerate_quadruples(n, ss, lambda u, v, x, y: quads.append((u, v)))
            sets[ss] = quads
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                budgets = set()
                for quads in sets.values():
                    fast = sum(u**r * v**s for u, v in quads)
                    est = sum(sigma_k(1, u**r) * (1 + sigma_k(1, v**s)) for u, v in quads)
                    budgets |= {fast - 1, fast, (fast + est) // 2, est}
                for budget in sorted(b for b in budgets if b >= 1):
                    row = verify_lm(r, s, n, n, budget).rows[0]
                    for which in COUNTERS:
                        try:
                            raw = count_raw(CountSpec(which, r, s, n), budget)
                        except BudgetExceededError:
                            assert which in row.skipped, (which, r, s, n, budget)
                            continue
                        assert which not in row.skipped, (which, r, s, n, budget)
                        assert row.raw[which] == raw, (which, r, s, n, budget)


def test_verify_lm_budget_refusals(monkeypatch):
    # M(3,3;12): the fast count 301070 fits, the visit estimate 1082784 does not
    report = verify_lm(3, 3, 12, 12, budget=301070)
    assert report.rows[0].skipped == ("M",)
    assert report.rows[0].raw == {"L": 301070, "Lprime": 96912, "Mprime": 96912}

    # from n = 3 on every fast count exceeds 1, so nothing is enumerated
    def refuse(*args):
        raise AssertionError("enumerate_quadruples was called")

    monkeypatch.setattr(lattice, "enumerate_quadruples", refuse)
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            report = verify_lm(r, s, 3, 60, budget=1)
            assert report.all_pass
            assert all(row.skipped == COUNTERS for row in report.rows)


def test_count_spec_validation():
    with pytest.raises(ValueError):
        CountSpec("K", 1, 1, 5)
    with pytest.raises(ValueError):
        CountSpec("L", 0, 1, 5)
    with pytest.raises(ValueError):
        CountSpec("L", 1, -2, 5)
    with pytest.raises(ValueError):
        CountSpec("L", 1, 1, 1)
    assert CountSpec("Mprime", 1, 1, 5).solution_set == "Bprime"
    assert CountSpec("M", 1, 1, 5).solution_set == "B"


def test_raw_counts_leave_no_power_in_arith_caches(monkeypatch):
    # the M scan lists the divisors of u**r from the factors of u, so every
    # key count_raw and verify_lm pass to arith's divisors and factorize
    # caches is below n, on runs whose M scans all go through
    seen = []

    def record(fn):
        def recorded(m):
            seen.append(m)
            return fn(m)

        return recorded

    for module in (arith, lattice, representations):
        for name in ("divisors", "factorize"):
            monkeypatch.setattr(module, name, record(getattr(arith, name)), raising=False)
    for which in COUNTERS:
        assert count_raw(CountSpec(which, 3, 3, 12), budget=10**7) == count_fast(
            CountSpec(which, 3, 3, 12)
        )
        assert seen and max(seen) < 12, which
        seen.clear()
    report = verify_lm(3, 2, 2, 14, budget=10**7)
    assert report.all_pass and not report.skipped_any
    assert seen and max(seen) < 14


def test_raw_m_estimate_passes_no_power_to_arith(monkeypatch):
    # the estimate takes sigma(u**r) from the factors of u, so no argument
    # above n reaches sigma_k or factorize.  The budget is the fast count, so
    # the estimate, computed here from the set, refuses and no scan runs
    seen = []

    def record(fn):
        def recorded(*args):
            seen.append(args[-1])
            return fn(*args)

        return recorded

    for which in ("M", "Mprime"):
        for r, s, n in ((5, 4, 40), (1, 6, 61), (6, 6, 23)):
            spec = CountSpec(which, r, s, n)
            fast = count_fast(spec)
            quads = []
            enumerate_quadruples(n, spec.solution_set, lambda u, v, x, y: quads.append((u, v)))
            est = sum(sigma_k(1, u**r) * (1 + sigma_k(1, v**s)) for u, v in quads)
            seen.clear()
            with monkeypatch.context() as patch:
                for module in (arith, representations):
                    for name in ("sigma_k", "factorize"):
                        patch.setattr(module, name, record(getattr(arith, name)), raising=False)
                with pytest.raises(BudgetExceededError) as info:
                    count_raw(spec, budget=fast)
            assert seen and max(seen) < n, (which, r, s, n, max(seen))
            assert str(info.value) == (
                f"raw enumeration of {which}({r},{s};{n}) needs about {est} tuple visits, "
                f"budget is {fast}"
            )
