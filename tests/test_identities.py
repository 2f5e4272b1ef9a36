"""Polynomial symmetry machinery, the main identity, and the named theorems."""

import ast
import concurrent.futures
import os
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaprime import arith, cli, identities, lattice, powersums
from sigmaprime.arith import divisors, sigma_convolution, sigma_k
from sigmaprime.identities import (
    PROOF_POLYNOMIALS,
    THEOREM_BY_RS,
    THEOREM_RS,
    Poly4,
    TheoremId,
    _sigma_twin,
    besge_check,
    eval_theorem,
    glaisher_check,
    main_identity_sides,
    parse_theorem_id,
    random_symmetric_poly,
    symmetry_holds,
    theorem_form,
    verify_theorem,
)
from sigmaprime.lattice import SOLUTION_SETS, BudgetExceededError, brute_convolution, quadruples


def six_term_oracle(f, n, which):
    """Both identity sides by calling f at six argument tuples per quadruple.

    The literal evaluation, kept as the independent reference that the
    weighted-sum engine is checked against.
    """
    lhs = 0
    for a, b, x, y in quadruples(n, which):
        lhs += (
            f(a, b, x, -y)
            - f(a, -b, x, y)
            + f(a, a - b, x + y, y)
            - f(a, a + b, y - x, y)
            + f(b - a, b, x, x + y)
            - f(a + b, b, x, x - y)
        )
    return lhs, six_row_oracle(f, n, which)


def six_row_oracle(f, n, which):
    """The identity's right side by calling f at its six literal rows per
    totative of n (B') or per de = n, 0 < x < d (B); it lists no quadruple,
    so it stays cheap at large n."""
    rhs = 0
    if which == "Bprime":
        for t in range(1, n):
            if gcd(t, n) != 1:
                continue
            rhs += (
                f(1, 0, n, t)
                - f(n, t, 1, 0)
                + f(0, 1, t, n)
                - f(t, n, 0, 1)
                + f(1, 1, n - t, -t)
                - f(n - t, -t, 1, 1)
            )
    else:
        for d in divisors(n):
            nd = n // d
            for x in range(1, d):
                rhs += (
                    f(0, nd, x, d)
                    + f(nd, 0, d, x)
                    + f(nd, nd, d - x, -x)
                    - f(x, x - d, nd, nd)
                    - f(x, d, 0, nd)
                    - f(d, x, nd, 0)
                )
    return rhs


def comb_left_moments_oracle(f):
    """The left side's moments {(i, j, k, l): c} by a fresh math.comb product
    for every (p, q), zero sign factors included, each raw key reduced to the
    least of its four images as it comes; the literal expansion that the
    engine's Pascal rows and parity steps are checked against."""
    moments = {}
    for (i, j, k, l), c in f.monomials.items():
        paired = [((i, j, k, l), (-1) ** l - (-1) ** j)]
        paired += (
            ((i + p, j - p, q, l + k - q), comb(j, p) * comb(k, q) * ((-1) ** (j - p) - (-1) ** q))
            for p in range(j + 1) for q in range(k + 1)
        )
        paired += (
            ((p, i - p + j, k + q, l - q), comb(i, p) * comb(l, q) * ((-1) ** p - (-1) ** (l - q)))
            for p in range(i + 1) for q in range(l + 1)
        )
        for (a, b, x, y), weight in paired:
            if weight:
                key = min((a, b, x, y), (b, a, y, x), (x, y, a, b), (y, x, b, a))
                moments[key] = moments.get(key, 0) + c * weight
    return {key: c for key, c in moments.items() if c}


def test_parser_round_trip():
    for text in ("1x^2", "1x^2y^2 - 10a b", "3a^7 - 2b^3x + 5y", "-1xy^5 + 1x^3y^3"):
        poly = Poly4.from_text(text)
        assert Poly4.from_text(poly.to_text()) == poly


def test_parser_whitespace_and_implicit_exponent():
    assert Poly4.from_text("2 x y") == Poly4.from_text("2xy")
    assert Poly4.from_text("1a^1b^1") == Poly4.from_text("1ab")
    # whitespace goes first, so split digits join; any Unicode decimal digit
    # reads as int() reads it, and an exponent may have leading zeros
    assert Poly4.from_text("1 2") == Poly4({(0, 0, 0, 0): 12})
    assert Poly4.from_text("\u0661x^\u0662") == Poly4({(0, 0, 2, 0): 1})
    assert Poly4.from_text("1x^02") == Poly4({(0, 0, 2, 0): 1})


def test_parser_rejects_bad_input():
    # every monomial needs an explicit integer coefficient; positions count
    # in the text with whitespace removed
    for text, message in (
        ("x^2", "expected an integer coefficient at position 0 of 'x^2'"),
        ("2x +", "expected an integer coefficient at position 3 of '2x +'"),
        ("3z^2", "expected '+' or '-' at position 1 of '3z^2'"),
        ("1x^", "expected an exponent at position 3 of '1x^'"),
        ("1a^b", "expected an exponent at position 3 of '1a^b'"),
        ("+-1", "expected an integer coefficient at position 1 of '+-1'"),
        ("", "empty polynomial text"),
    ):
        with pytest.raises(ValueError) as info:
            Poly4.from_text(text)
        assert str(info.value) == message


def test_poly_rejects_non_integer_terms():
    for terms in (
        {(True, 0, 0, 0): 1},
        {(0, 0, "2", 0): 1},
        {(0, 0, 2.0, 0): 1},
        {(0, 0, -1, 0): 1},
        {(0, 0, 2): 1},
    ):
        with pytest.raises(ValueError, match="bad exponent quadruple"):
            Poly4(terms)
    for coeff in (1.5, True, Fraction(1)):
        with pytest.raises(ValueError, match="is not an integer"):
            Poly4({(0, 0, 2, 0): coeff})


def test_parser_reads_a_long_text_in_linear_time():
    # 160k terms; reading each number from a copy of the unread tail took 18 s
    text = " + ".join(f"{i}a^{i % 7}b^{i % 5}x^{i % 11}y^{i % 13}" for i in range(1, 160001))
    start = time.perf_counter()
    poly = Poly4.from_text(text)
    assert time.perf_counter() - start < 5
    assert len(poly.monomials) == 7 * 5 * 11 * 13


def test_poly_evaluation():
    poly = Poly4.from_text("1x^2y^2 - 2ab")
    assert poly(3, 5, 2, 7) == (2 * 7) ** 2 - 2 * 3 * 5


def test_symmetry_spot_checks():
    assert not symmetry_holds(Poly4.from_text("1a"))
    assert not symmetry_holds(Poly4.from_text("1x"))
    assert symmetry_holds(Poly4.from_text("1xy"))
    assert symmetry_holds(Poly4.from_text("1x^2"))
    assert symmetry_holds(Poly4.from_text("1a^2"))
    # mixed front/back polynomial built as g + swap(g)
    g = Poly4.from_text("1a^2x")
    assert symmetry_holds(g + g.swapped())


exponent_quads = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(exponent_quads, st.integers(-3, 3), max_size=6), st.booleans(), st.booleans())
def test_symmetry_rule_matches_expansion(terms, symmetrize, add_even):
    # the literal expansion of the hypothesis is the reference; g + swap(g)
    # and even-degree monomials make qualified inputs common
    f = Poly4(terms)
    if symmetrize:
        f = f + f.swapped()
    if add_even:
        f = f + Poly4({(2, 0, 1, 1): 5})
    swapped = f.swapped()
    assert symmetry_holds(f) == (f - swapped == f.negated_front() - swapped.negated_front())


def test_warm_main_identity_sides_builds_no_poly(monkeypatch):
    f = PROOF_POLYNOMIALS[2]
    main_identity_sides(f, 12)
    built = []
    init = Poly4.__init__

    def counting_init(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(Poly4, "__init__", counting_init)
    lhs, rhs = main_identity_sides(f, 12)
    assert lhs == rhs
    assert built == []


def test_all_proof_polynomials_qualify():
    assert len(PROOF_POLYNOMIALS) == 9
    for poly in PROOF_POLYNOMIALS:
        assert symmetry_holds(poly)


def test_main_identity_shape_check_square():
    # f = x^2 collapses to 4 * sum(x y) on the left, and on the right to a
    # polynomial in t of degree two
    f = Poly4.from_text("1x^2")
    for n in range(2, 31):
        lhs, rhs = main_identity_sides(f, n, "Bprime")
        assert lhs == rhs
        assert lhs == 4 * brute_convolution(1, 1, n, "Bprime")
        coprime_t = [t for t in range(1, n + 1) if __import__("math").gcd(t, n) == 1]
        assert rhs == sum(2 * t * t - 2 * n * t + 2 * n * n - 2 for t in coprime_t)


def test_main_identity_shape_check_quartic():
    f = Poly4.from_text("1x^2y^2")
    for n in range(2, 25):
        lhs, rhs = main_identity_sides(f, n, "Bprime")
        assert lhs == rhs
        assert lhs == 8 * brute_convolution(3, 1, n, "Bprime")


def test_main_identity_proof_polynomials_both_sets():
    for poly in PROOF_POLYNOMIALS:
        for n in range(2, 16):
            lhs, rhs = main_identity_sides(poly, n, "Bprime")
            assert lhs == rhs, (poly.to_text(), n)
            lhs, rhs = main_identity_sides(poly, n, "B")
            assert lhs == rhs, (poly.to_text(), n)


def test_main_identity_random_polynomials():
    rng = random.Random(1201)
    for _ in range(25):
        poly = random_symmetric_poly(rng)
        for n in range(2, 11):
            lhs, rhs = main_identity_sides(poly, n, "Bprime")
            assert lhs == rhs, (poly.to_text(), n)
            lhs, rhs = main_identity_sides(poly, n, "B")
            assert lhs == rhs, (poly.to_text(), n)


@pytest.mark.parametrize("which", SOLUTION_SETS)
def test_main_identity_sides_match_per_quadruple_oracle(which):
    rng = random.Random(2357)
    family = list(PROOF_POLYNOMIALS) + [random_symmetric_poly(rng) for _ in range(25)]
    for n in range(2, 31):
        for f in family:
            expected = six_term_oracle(f, n, which)
            assert main_identity_sides(f, n, which) == expected, (f.to_text(), n, "cold")
            assert main_identity_sides(f, n, which) == expected, (f.to_text(), n, "warm")


# polynomials with a and b exponents, each qualified on its own or by its swap
_FRONT_POLYS = tuple(
    Poly4.from_text(text)
    for text in (
        "1a^4",
        "1a^2b^2x^2y^4 - 5a^1b^1",
        "3a^3b^1x^1y^1 + 3a^1b^1x^3y^1",
        "2a^5x^1y^2 + 2a^1b^2x^5 - 7b^2y^2",
    )
)


@pytest.mark.parametrize("which", SOLUTION_SETS)
def test_right_side_matches_the_literal_rows_at_large_n(which):
    rng = random.Random(3301)
    family = [*PROOF_POLYNOMIALS, *_FRONT_POLYS, *(random_symmetric_poly(rng) for _ in range(8))]
    for f in family:
        assert symmetry_holds(f), f.to_text()
        for n in (97, 210, 360, 997, 1000):
            assert main_identity_sides(f, n, which)[1] == six_row_oracle(f, n, which), (f.to_text(), n)
    for text in ("1x^190", "1x^100y^90"):
        f = Poly4.from_text(text)
        assert main_identity_sides(f, 200, which)[1] == six_row_oracle(f, 200, which), text


def test_right_side_sums_stay_within_the_rows_term(monkeypatch):
    # each monomial's rows are at most six power sums of at most n terms over
    # B'(n), and of fewer than n bits(n) terms over B(n) as sigma(n) < n bits(n);
    # within one _right_side call each pair (u, v), taken up to order, is summed
    # at most once, and no sum runs over an empty point set
    terms = []
    pairs = []  # per _right_side call, the pairs it summed
    power_sum = identities._power_sum
    right_side = identities._right_side

    def counting(pts, rest, u, v):
        terms.append(len(pts))
        pairs[-1].append((min(u, v), max(u, v)))
        return power_sum(pts, rest, u, v)

    def per_call(*args):
        pairs.append([])
        return right_side(*args)

    monkeypatch.setattr(identities, "_power_sum", counting)
    monkeypatch.setattr(identities, "_right_side", per_call)
    rng = random.Random(4409)
    family = [*PROOF_POLYNOMIALS, *_FRONT_POLYS, *(random_symmetric_poly(rng) for _ in range(12))]
    for f in family:
        for which in SOLUTION_SETS:
            for n in (2, 12, 97, 360, 1000):
                terms.clear()
                main_identity_sides(f, n, which)
                bound = 6 * n * len(f.monomials) * (n.bit_length() if which == "B" else 1)
                assert sum(terms) <= bound, (f.to_text(), n, which)
                assert len(terms) <= 6 * len(f.monomials) * (len(divisors(n)) if which == "B" else 1)
                assert all(terms), (f.to_text(), n, which)
                assert all(len(set(summed)) == len(summed) for summed in pairs), (f.to_text(), n, which)
                pairs.clear()


def test_swap_symmetric_polynomials_have_zero_sides():
    # f = f(x, y, a, b) adds nothing to either side: its left moments cancel
    # under the sets' (x, y, a, b) symmetry and the right side's rows pair off
    # under the swap, so only f's swap-antisymmetric part reaches the sums
    rng = random.Random(2203)
    for _ in range(12):
        g = Poly4({tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-9, 9) for _ in range(4)})
        f = g + g.swapped()
        assert identities._left_moments(f) == {}, f.to_text()
        for which in SOLUTION_SETS:
            for n in range(2, 31):
                assert main_identity_sides(f, n, which) == (0, 0), (f.to_text(), n, which)


def test_swap_symmetric_polynomials_sum_no_power(monkeypatch):
    # every right-side weight of f = f(x, y, a, b) is 0, and no power sum is
    # taken for a zero weight; an antisymmetric part brings its sums back
    def refuse(*args):
        raise AssertionError("a power sum was taken")

    monkeypatch.setattr(identities, "_power_sum", refuse)
    rng = random.Random(2207)
    for _ in range(12):
        g = Poly4({tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-9, 9) for _ in range(4)})
        f = g + g.swapped()
        for which in SOLUTION_SETS:
            for n in (2, 12, 97, 360):
                assert main_identity_sides(f, n, which) == (0, 0), (f.to_text(), n, which)
    with pytest.raises(AssertionError, match="power sum"):
        main_identity_sides(PROOF_POLYNOMIALS[0], 12, "B")


def _images(a, b, x, y):
    # the point's orbit under the two symmetries of B(n) and B'(n)
    return (a, b, x, y), (b, a, y, x), (x, y, a, b), (y, x, b, a)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 9)] * 4), st.integers(-9, 9), min_size=1, max_size=4),
    st.tuples(*[st.integers(-6, 6)] * 4),
)
def test_left_moments_are_the_six_terms_on_any_f(terms, point):
    # summed over the four images g·P of a point P, a moment's value does not
    # change when its key is replaced by an image of the key, so the literal
    # six terms and the returned moments agree there for any f, qualified or not
    f = Poly4(terms)
    literal = 0
    for a, b, x, y in _images(*point):
        literal += (
            f(a, b, x, -y)
            - f(a, -b, x, y)
            + f(a, a - b, x + y, y)
            - f(a, a + b, y - x, y)
            + f(b - a, b, x, x + y)
            - f(a + b, b, x, x - y)
        )
    moments = identities._left_moments(f)
    assert literal == sum(
        c * a**i * b**j * x**k * y**l
        for (i, j, k, l), c in moments.items()
        for a, b, x, y in _images(*point)
    )


def test_pascal_rows_match_comb():
    for k in range(301):
        assert identities._pascal_row(k) == [comb(k, q) for q in range(k + 1)], k


def test_left_moments_match_the_comb_oracle():
    rng = random.Random(6113)
    family = [
        *PROOF_POLYNOMIALS,
        *_FRONT_POLYS,
        *(random_symmetric_poly(rng) for _ in range(50)),
        Poly4.from_text("1x^200"),
        Poly4.from_text("1a^37b^41x^3y^5"),
    ]
    for f in family:
        assert identities._left_moments(f) == comb_left_moments_oracle(f), f.to_text()


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 9)] * 4), st.integers(-9, 9), min_size=1, max_size=5))
def test_left_moments_match_the_comb_oracle_on_any_f(terms):
    # qualified or not: the expansion never reads the symmetry hypothesis
    f = Poly4(terms)
    assert identities._left_moments(f) == comb_left_moments_oracle(f)


@pytest.mark.parametrize("which", SOLUTION_SETS)
def test_sides_over_a_range_match_the_one_n_calls(which):
    rng = random.Random(7919)
    family = [*PROOF_POLYNOMIALS, *_FRONT_POLYS, *(random_symmetric_poly(rng) for _ in range(8))]
    for f in family:
        for ns in (range(2, 41), (40, 2, 17, 17, 3)):
            expected = [main_identity_sides(f, n, which) for n in ns]
            assert identities._sides_over(f, ns, which) == expected, (f.to_text(), ns)


def test_sides_over_a_b_prime_range_mixes_both_routes(monkeypatch):
    # over these ranges the rule takes the product for the degree-4 group and
    # dot products for the degree-30 ones, so one B' range sums its left side by
    # the twin table's forward substitution and by the per-n Möbius step at once
    f = Poly4.from_text("1x^2y^2 + 1x^16y^14")
    routes = set()
    for name in ("_deconvolved", "_inversion_terms"):
        real = getattr(lattice, name)

        def spy(*args, real=real, name=name):
            routes.add(name)
            return real(*args)

        monkeypatch.setattr(lattice, name, spy)
    for ns in (range(2, 151), range(40, 151)):
        routes.clear()
        sides = identities._sides_over(f, ns, "Bprime")
        assert routes == {"_deconvolved", "_inversion_terms"}, ns
        assert sides == [main_identity_sides(f, n) for n in ns], ns


def test_sides_over_refuses_a_range_before_expanding(monkeypatch):
    # every n's gate runs first, so a range ending one past the pinned edge is
    # refused with that n's own message before any moment or sieve is built
    def refuse(*args):
        raise AssertionError("the moments were expanded")

    monkeypatch.setattr(identities, "_left_moments", refuse)
    monkeypatch.setattr(lattice, "_factor_table", refuse)
    f = Poly4.from_text("1x^2y^2")
    for which, top in (("B", 20833), ("Bprime", 25252)):
        with pytest.raises(BudgetExceededError) as info:
            identities._sides_over(f, range(top - 40, top + 2), which)
        work = identities._identity_work(f, top + 1, which)
        assert str(info.value) == (
            f"identity sides at n = {top + 1} need about {work} units of work, the limit is 10000000"
        )
        with pytest.raises(AssertionError, match="expanded"):
            identities._sides_over(f, range(top - 40, top + 1), which)
    # symmetry first, then each n in order: n < 2 or its gate
    with pytest.raises(ValueError, match="symmetry hypothesis"):
        identities._sides_over(Poly4.from_text("1a"), (1, 10**6), "B")
    with pytest.raises(ValueError, match="need n >= 2, got 1"):
        identities._sides_over(f, (5, 1, 10**6), "B")
    with pytest.raises(BudgetExceededError, match="at n = 1000000 need"):
        identities._sides_over(f, (5, 10**6, 1), "B")


def test_sides_over_admits_a_range_with_one_estimate(monkeypatch):
    # the estimate grows with n, so an admitted range costs one call of it,
    # at its largest n
    calls = []
    identity_work = identities._identity_work

    def counting(f, n, which):
        calls.append(n)
        return identity_work(f, n, which)

    monkeypatch.setattr(identities, "_identity_work", counting)
    f = Poly4.from_text("1x^2y^2")
    for which in SOLUTION_SETS:
        for ns in (range(2, 41), (40, 2, 17, 17, 3), (7,)):
            calls.clear()
            identities._sides_over(f, ns, which)
            assert calls == [max(ns)], (ns, which)


def test_identities_defines_no_lru_cache():
    # the engine keeps nothing between calls
    tree = ast.parse(Path(identities.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "lru_cache" not in names and "cache" not in names
    own = [obj for obj in vars(identities).values() if getattr(obj, "__module__", None) == identities.__name__]
    assert own and not any(hasattr(obj, "cache_info") for obj in own)


def test_main_identity_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a solution set was enumerated")

    for module in (lattice, identities):
        monkeypatch.setattr(module, "enumerate_quadruples", refuse, raising=False)
        monkeypatch.setattr(module, "quadruples", refuse, raising=False)
    for which in SOLUTION_SETS:
        for f in PROOF_POLYNOMIALS:
            lhs, rhs = main_identity_sides(f, 30, which)
            assert lhs == rhs


def test_main_identity_large_n_is_small_in_memory():
    # B(2000) with the t111 proof polynomial: a table of the left side's
    # argument rows, one per quadruple, would take about 100 MB; at B(20833)
    # and B'(25252), the largest admitted n for 1x^2y^2, the right side holds
    # one list of the points and one of their complements d - x, at most a
    # few hundred kB
    edge = Poly4.from_text("1x^2y^2")
    for f, n, which, limit in (
        (PROOF_POLYNOMIALS[6], 2000, "B", 16),
        (edge, 20833, "B", 4),
        (edge, 25252, "Bprime", 4),
    ):
        tracemalloc.start()
        try:
            lhs, rhs = main_identity_sides(f, n, which)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lhs == rhs
        assert peak < limit * 2**20, (f.to_text(), n, which, peak)


def test_main_identity_ceiling_refuses_before_enumerating(monkeypatch):
    # the estimate is the only n ceiling: for 1x^2y^2 (at most six moments,
    # one monomial) B(n) is admitted up to n = 20833 and B'(n) up to 25252
    def refuse(*args):
        raise AssertionError("the moments were expanded")

    monkeypatch.setattr(identities, "_left_moments", refuse)
    monkeypatch.setattr(lattice, "_factor_table", refuse)
    f = Poly4.from_text("1x^2y^2")
    for which, top in (("B", 20833), ("Bprime", 25252)):
        with pytest.raises(BudgetExceededError) as info:
            main_identity_sides(f, top + 1, which)
        assert str(info.value).startswith(f"identity sides at n = {top + 1} need about ")
        with pytest.raises(AssertionError, match="expanded"):
            main_identity_sides(f, top, which)
        with pytest.raises(BudgetExceededError) as info:
            main_identity_sides(f, 200000, which)


def test_identity_work_estimate():
    # moments bound Σ (j+1)(k+1) + (i+1)(l+1) over f's monomials; rows 6n per
    # monomial over B'(n) and 6n bits(n) over B(n); weighted by deg(f)
    work = identities._identity_work
    assert work(Poly4.from_text("1x^2y^2"), 60, "Bprime") == 6 * (64 * 60 + 60) + 6 * 60
    assert work(Poly4.from_text("1x^2y^2"), 60, "B") == 6 * (64 * 60 + 60) + 6 * 60 * 6
    assert work(Poly4.from_text("1x^2y^2 + 1a^2b^2"), 12, "Bprime") == 12 * (64 * 12 + 12) + 12 * 12
    assert work(Poly4.from_text("1x^2000"), 200, "B") == (2002 * 13000 + 6 * 200 * 8) * 32
    assert work(Poly4.from_text("0"), 60, "B") == 0
    # never evaluated: one power of 2**(10**11)
    assert work(Poly4.from_text("1x^100000000000"), 2, "B") > arith._WORK_LIMIT
    # every call of the full main-identity criterion is ten times under the limit
    rng = random.Random(20250819)
    family = list(PROOF_POLYNOMIALS) + [random_symmetric_poly(rng) for _ in range(50)]
    assert max(work(f, 60, which) for f in family for which in SOLUTION_SETS) < arith._WORK_LIMIT // 10


def test_main_identity_degree_refuses_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("the moments were expanded")

    monkeypatch.setattr(identities, "_left_moments", refuse)
    for poly in ("1x^20000", "1x^2000"):
        for which in SOLUTION_SETS:
            with pytest.raises(BudgetExceededError) as info:
                main_identity_sides(Poly4.from_text(poly), 200, which)
            work = identities._identity_work(Poly4.from_text(poly), 200, which)
            assert str(info.value) == (
                f"identity sides at n = 200 need about {work} units of work, the limit is 10000000"
            )
    # just under the limit the call gets as far as expanding the moments
    f = Poly4.from_text("1x^2000")
    monkeypatch.setattr(arith, "_WORK_LIMIT", identities._identity_work(f, 200, "B"))
    with pytest.raises(AssertionError, match="expanded"):
        main_identity_sides(f, 200, "B")
    monkeypatch.setattr(arith, "_WORK_LIMIT", identities._identity_work(f, 200, "B") - 1)
    with pytest.raises(BudgetExceededError):
        main_identity_sides(f, 200, "B")


def test_main_identity_rejects_unqualified_poly():
    with pytest.raises(ValueError):
        main_identity_sides(Poly4.from_text("1a"), 6, "B")
    with pytest.raises(ValueError):
        main_identity_sides(Poly4.from_text("1x^2"), 1, "B")


def test_theorem_id_parsing():
    tid = parse_theorem_id("t13:printed")
    assert tid == TheoremId("t13", "printed")
    assert str(tid) == "t13:printed"
    assert parse_theorem_id("t11") == TheoremId("t11", "corrected")
    assert str(parse_theorem_id("t11")) == "t11"
    with pytest.raises(ValueError):
        parse_theorem_id("t12")
    with pytest.raises(ValueError):
        parse_theorem_id("t13:guessed")
    # only t13 has genuinely distinct variants; elsewhere both names
    # resolve to the same stored form
    assert theorem_form(parse_theorem_id("t11:printed")) == theorem_form(parse_theorem_id("t11"))
    assert theorem_form(parse_theorem_id("t13:printed")) != theorem_form(parse_theorem_id("t13"))


def test_theorem_rs_table():
    assert THEOREM_RS["t11"] == (1, 1)
    assert THEOREM_RS["t57"] == (5, 7)
    assert THEOREM_BY_RS[(1, 3)] == "t13"
    assert len(THEOREM_RS) == 9


def test_eval_theorem_spot_values():
    assert eval_theorem(parse_theorem_id("t11"), 3) == 6
    assert eval_theorem(parse_theorem_id("t33"), 3) == 18
    assert eval_theorem(parse_theorem_id("t15"), 3) == 36
    assert eval_theorem(parse_theorem_id("t13"), 2) == 1
    assert eval_theorem(parse_theorem_id("t13:printed"), 2) == 8
    for name in ("t17", "t35", "t111", "t39", "t57"):
        assert eval_theorem(parse_theorem_id(name), 2) == 1


def test_theorem_form_coefficients_are_exact():
    form = theorem_form(parse_theorem_id("t11"))
    coeffs = {(power, order): coeff for coeff, power, order in form.terms}
    assert coeffs[(3, -1)] == Fraction(5, 12)
    assert coeffs[(1, -1)] == Fraction(-1, 2)
    assert coeffs[(1, 1)] == Fraction(1, 12)


def test_verify_theorem_corrected_forms_small_range():
    for name in ("t11", "t13", "t15", "t33"):
        report = verify_theorem(parse_theorem_id(name), 2, 40)
        assert report.all_pass
        assert report.first_counterexample is None
        assert len(report.rows) == 39


def test_verify_past_the_oracle_limit_is_refused_before_the_closed_form(monkeypatch):
    # the oracle's gate comes first, so no n is sieved or factorized for a
    # refused range; a small dense range reaches the sieve, a sparse set factorize
    def no_factorize(*args):
        raise AssertionError("a closed form sieved or factorized n")

    monkeypatch.setattr(powersums, "factorize", no_factorize)
    monkeypatch.setattr(powersums, "_psi_sieve", no_factorize)
    with pytest.raises(BudgetExceededError, match="the convolution oracle needs"):
        verify_theorem("t11", 2, 20000)
    with pytest.raises(AssertionError, match="sieved or factorized"):
        verify_theorem("t11", 2, 20)
    with pytest.raises(AssertionError, match="sieved or factorized"):
        theorem_form("t11")._values((2, 97))


def test_verify_theorem_printed_t13_fails_with_factor_eight():
    report = verify_theorem(parse_theorem_id("t13:printed"), 2, 10)
    assert not report.all_pass
    assert report.first_counterexample is not None
    assert report.first_counterexample.n == 2
    for row in report.rows:
        assert not row.ok
        assert row.closed == 8 * row.oracle


def test_verify_theorem_parallel_matches_serial():
    serial = verify_theorem(parse_theorem_id("t15"), 2, 30, jobs=1)
    parallel = verify_theorem(parse_theorem_id("t15"), 2, 30, jobs=2)
    assert serial == parallel


def test_verify_theorem_single_worker_runs_in_process(monkeypatch):
    # every accepted jobs value runs the rows here, and gives the jobs=1 report
    serial = {hi: verify_theorem("t11", 2, hi, jobs=1) for hi in (2, 30)}

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    for jobs in (2, identities._MAX_JOBS):
        for hi, report in serial.items():
            assert verify_theorem("t11", 2, hi, jobs=jobs) == report


PROCESS_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def test_package_starts_no_process():
    # fork-storm guard: no module imports process machinery or calls os.fork
    def banned(name):
        return name == "os.fork" or any(
            name == mod or name.startswith(mod + ".") for mod in PROCESS_MODULES
        )

    offenders = []
    for path in sorted(Path(identities.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names if banned(name)]
    assert offenders == []


def test_verify_theorem_rejects_jobs_over_ceiling(monkeypatch, capsys):
    # the library and the CLI refuse before any pool exists, so nothing starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for jobs in (0, identities._MAX_JOBS + 1, 10**6):
        with pytest.raises(ValueError, match="jobs must be between 1 and"):
            verify_theorem("t11", 2, 30, jobs=jobs)
        argv = ["verify", "--theorem", "t11", "--range", "2..30", "--jobs", str(jobs)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: jobs must be between 1 and {identities._MAX_JOBS}, got {jobs}\n"


def test_verify_theorem_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_theorem(parse_theorem_id("t11"), 1, 10)
    with pytest.raises(ValueError):
        verify_theorem(parse_theorem_id("t11"), 10, 5)


def test_besge_and_glaisher():
    for n in range(2, 51):
        assert besge_check(n)
        assert glaisher_check(n)


def besge(n):
    # Besge's sigma*sigma evaluation, as it is usually quoted
    return Fraction(5 * sigma_k(3, n) + (1 - 6 * n) * sigma_k(1, n), 12)


def glaisher(n):
    # Glaisher's sigma*sigma_3 evaluation, as it is usually quoted
    return Fraction(21 * sigma_k(5, n) + (10 - 30 * n) * sigma_k(3, n) - sigma_k(1, n), 240)


def test_twins_of_t11_and_t13_are_besge_and_glaisher():
    for n in range(1, 301):
        assert _sigma_twin("t11", n) == besge(n), n
        assert _sigma_twin("t13", n) == glaisher(n), n


def test_sigma_twins_match_the_b_oracle():
    # each stored form read as σ terms is the convolution over B(n)
    for tag, (r, s) in THEOREM_RS.items():
        for n in range(2, 301):
            twin = _sigma_twin(tag, n)
            assert twin == brute_convolution(r, s, n, "B") == sigma_convolution(r, s, n), (tag, n)


def test_printed_t13_twin_overshoots_the_b_oracle_by_eight():
    # the erratum shows over B(n) as over B'(n)
    for n in range(2, 301):
        assert _sigma_twin("t13:printed", n) == 8 * brute_convolution(1, 3, n, "B"), n


def test_stored_forms_hold_no_zero_term():
    # each form keeps only the nonzero columns of its (A, B, C, D) row
    lengths = {
        "t11": 3, "t13": 4, "t15": 4, "t33": 2, "t17": 4, "t35": 3, "t111": 4, "t39": 3, "t57": 3,
    }
    for tag, variant in identities._COEFFICIENTS:
        terms = theorem_form(TheoremId(tag, variant)).terms
        assert len(terms) == lengths[tag], (tag, variant)
        assert all(coeff for coeff, _, _ in terms), (tag, variant)
