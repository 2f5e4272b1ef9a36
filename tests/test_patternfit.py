"""Exact ansatz fitting against the enumeration oracle."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmaprime import arith, patternfit, powersums
from sigmaprime.identities import THEOREM_RS, _columns, parse_theorem_id
from sigmaprime.lattice import BudgetExceededError, _convolutions, _moment_work, brute_convolution
from sigmaprime.patternfit import (
    DEFAULT_TEST_NS,
    DEFAULT_TRAIN_NS,
    EVIDENCE_LABEL,
    WEIGHT10_PAIRS,
    PatternCoeffs,
    _design_rows,
    _solve_exact,
    fit,
    fit_and_validate,
    pattern_value,
    probe_weight10,
    theorem_pattern,
    validate,
)
from sigmaprime.powersums import psi


def test_fit_recovers_every_stored_theorem():
    for name, (r, s) in THEOREM_RS.items():
        report = fit(r, s, DEFAULT_TRAIN_NS)
        assert report.verdict == "consistent", name
        assert report.coefficients == theorem_pattern(parse_theorem_id(name)), name


def test_fit_and_validate_zero_residuals():
    for name, (r, s) in THEOREM_RS.items():
        report = fit_and_validate(r, s, DEFAULT_TRAIN_NS, DEFAULT_TEST_NS)
        assert report.verdict == "consistent", name
        assert all(res == 0 for res in report.residuals)
        assert report.test_ns == DEFAULT_TEST_NS


def test_t11_coefficients():
    coeffs = fit(1, 1, DEFAULT_TRAIN_NS).coefficients
    assert coeffs is not None
    assert (coeffs.A, coeffs.B, coeffs.C) == (Fraction(5, 12), Fraction(-1, 2), Fraction(1, 12))
    assert coeffs.D == 0
    assert coeffs.degenerate


def test_degenerate_collapse_only_when_r_equals_s():
    assert fit(3, 3, DEFAULT_TRAIN_NS).coefficients.degenerate
    assert not fit(1, 3, DEFAULT_TRAIN_NS).coefficients.degenerate
    # with r == s the two weight-mixing basis functions coincide, so the
    # fitter merges them into C and pins D to zero
    coeffs = fit(3, 3, DEFAULT_TRAIN_NS).coefficients
    assert coeffs.D == 0


def test_pattern_value_linearity():
    base = theorem_pattern("t13")
    doubled = PatternCoeffs(2 * base.A, 2 * base.B, 2 * base.C, 2 * base.D)
    for n in (2, 3, 7, 12):
        assert pattern_value(doubled, 1, 3, n) == 2 * pattern_value(base, 1, 3, n)


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=40)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[fractions] * 4), st.integers(1, 7), st.integers(1, 7), st.integers(2, 60))
@example((Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(3, 2)), 3, 3, 12)
def test_pattern_value_is_the_four_term_formula(coefficients, r, s, n):
    a, b, c, d = coefficients
    literal = (
        (a * Fraction(n) ** (r + s + 1) + b * n) * psi(-1, n)
        + c * Fraction(n) ** r * psi(s, n)
        + d * Fraction(n) ** s * psi(r, n)
    )
    assert pattern_value(PatternCoeffs(a, b, c, d, degenerate=r == s), r, s, n) == literal


def test_pattern_value_refuses_n_below_2():
    # the ansatz shares the domain of every closed form
    with pytest.raises(ValueError, match="n >= 2"):
        pattern_value(theorem_pattern("t13"), 1, 3, 1)


def test_printed_t13_residual_is_oracle_minus_ansatz():
    coeffs = theorem_pattern("t13:printed")
    report = validate(coeffs, 1, 3, (2,))
    assert report.verdict == "inconsistent"
    # oracle gives 1 at n = 2, the printed form gives 8
    assert report.residuals == (Fraction(-7),)
    assert brute_convolution(1, 3, 2, "Bprime") == 1


def test_fit_usage_errors():
    with pytest.raises(ValueError):
        fit(1, 1, (2, 3, 4, 5))  # too few points
    with pytest.raises(ValueError):
        fit(1, 1, (2, 3, 4, 5, 5))  # duplicates collapse below five
    with pytest.raises(ValueError):
        fit(1, 1, (1, 2, 3, 4, 5))  # points must be >= 2
    with pytest.raises(ValueError):
        fit(0, 1, DEFAULT_TRAIN_NS)
    # at a power of 2, psi_s(n) = 1 - 2**s does not depend on n, so the C
    # column n*psi_3(n) = -7n is -14 times the B column n*psi_{-1}(n) = n/2
    with pytest.raises(ValueError) as info:
        fit(1, 3, (2, 4, 8, 16, 32))
    assert str(info.value) == (
        "training system is rank deficient (column 2 has no pivot); "
        "choose structurally more diverse training points"
    )


def test_validate_usage_errors():
    coeffs = theorem_pattern("t11")
    with pytest.raises(ValueError):
        validate(coeffs, 1, 1, ())
    with pytest.raises(ValueError):
        validate(coeffs, 1, 1, (5, 11), train_ns=(2, 3, 4, 5, 7))
    with pytest.raises(ValueError):
        validate(coeffs, 1, 1, (1, 11))


def test_inconsistent_fit_checks_its_test_points():
    # fit's refusals come first, then the test points' as validate() makes them
    with pytest.raises(ValueError, match="at least 5 distinct training points"):
        fit_and_validate(5, 5, (2, 3, 4, 5), (2,))
    for test_ns, message in (((), "nonempty"), ((1, 11), ">= 2"), ((9, 11), r"\[9\] overlap")):
        with pytest.raises(ValueError, match=message):
            fit_and_validate(5, 5, DEFAULT_TRAIN_NS, test_ns)


def test_probe_weight10_labeled_and_restricted():
    for r, s in WEIGHT10_PAIRS:
        report = probe_weight10(r, s)
        assert report.label == EVIDENCE_LABEL
        # the four-term ansatz has no exact solution at weight 10 on the
        # default training set, and the probe reports that honestly
        assert report.verdict == "inconsistent"
        assert report.coefficients is None
    # exponent order is immaterial
    assert probe_weight10(9, 1).verdict == probe_weight10(1, 9).verdict
    with pytest.raises(ValueError):
        probe_weight10(2, 8)


def test_theorem_pattern_round_trip():
    # stored closed forms and fitted ansatz coefficients describe the same
    # function; spot-check by evaluation
    for name, (r, s) in THEOREM_RS.items():
        coeffs = theorem_pattern(name)
        for n in (2, 5, 9):
            assert pattern_value(coeffs, r, s, n) == brute_convolution(r, s, n, "Bprime")


def test_fit_refuses_before_factorizing(monkeypatch):
    # a design row trial-divides its point, so a point far over the oracle's
    # limit must be refused before any design row is built
    def refuse(*args):
        raise AssertionError("a point was factorized before the oracle's refusal")

    monkeypatch.setattr(powersums, "factorize", refuse)
    with pytest.raises(BudgetExceededError):
        fit(1, 3, (2, 3, 4, 5, 10**30))


def test_solve_work_estimate():
    work = patternfit._solve_work
    # 80 units per entry of each row update: points * unknowns * (unknowns + 1)
    assert work(1, 3, DEFAULT_TRAIN_NS, 4) == 80 * 6 * 4 * 5
    assert work(5, 5, tuple(range(2, 302)), 3) == 80 * 300 * 3 * 4
    # weight w = 1 + (r + s + 1) * bits(max n) // 512, counted as w * isqrt(w):
    # w = 104 passes the solve's gate at s = 13309 on the default points (the
    # sum with the oracle's estimate is then refused), and w = 105 refuses 13310
    assert work(1, 13309, DEFAULT_TRAIN_NS, 4) == 80 * 120 * 104 * 10 <= arith._WORK_LIMIT
    assert work(1, 13310, DEFAULT_TRAIN_NS, 4) == 80 * 120 * 105 * 10 > arith._WORK_LIMIT
    # every fit with r + s <= 12 on points up to 300 has weight 1
    assert work(5, 7, tuple(range(2, 302)), 4) == 80 * 300 * 20


def test_fit_refuses_its_solve_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the fit started its work")

    monkeypatch.setattr(patternfit, "_convolutions", no_work)
    monkeypatch.setattr(patternfit, "_solve_exact", no_work)
    # estimated only, never run: this fit took 41 s, most of it in the solve
    with pytest.raises(BudgetExceededError, match="the exact solve of the fit needs about"):
        fit(1, 99991, DEFAULT_TRAIN_NS)
    monkeypatch.setattr(arith, "_WORK_LIMIT", 10**4)
    with pytest.raises(BudgetExceededError) as info:
        fit(1, 3, tuple(range(2, 12)))
    assert str(info.value) == (
        "the exact solve of the fit needs about 16000 units of work, the limit is 10000"
    )


def test_fit_refuses_its_solve_and_oracle_together(monkeypatch):
    def no_work(*args):
        raise AssertionError("the fit started its work")

    monkeypatch.setattr(patternfit, "_convolutions", no_work)
    monkeypatch.setattr(patternfit, "_solve_exact", no_work)
    # estimated only, never run: each gate admits this fit, which took 1.45 s
    ns = tuple(range(2, 3002))
    assert patternfit._solve_work(1, 83, ns, 4) == 9600000
    assert _moment_work(84, ns) == 9393128
    with pytest.raises(BudgetExceededError) as info:
        fit(1, 83, ns)
    assert str(info.value) == (
        "the fit's solve and oracle together need about 18993128 units of work, "
        "the limit is 10000000"
    )


def test_one_spare_equation_decides_consistency():
    # five points for four unknowns leave exactly one row to check
    assert fit(1, 3, (2, 3, 4, 5, 7)).verdict == "consistent"
    for r, s in WEIGHT10_PAIRS:
        assert fit(r, s, (2, 3, 4, 5, 7)).verdict == "inconsistent"


def _fraction_solve(rows, rhs):
    # Gauss-Jordan over Fractions, the form _solve_exact had before it ran
    # on integer rows; kept as its oracle
    m, k = len(rows), len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(val)] for row, val in zip(rows, rhs)]
    rank = 0
    for col in range(k):
        pivot = max(range(rank, m), key=lambda i: abs(aug[i][col]), default=None)
        if pivot is None or aug[pivot][col] == 0:
            raise ValueError(
                f"training system is rank deficient (column {col} has no pivot); "
                "choose structurally more diverse training points"
            )
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[rank])]
        rank += 1
    for i in range(rank, m):
        if aug[i][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def _solve_outcome(solve, rows, rhs):
    try:
        return solve(rows, rhs)
    except ValueError as exc:
        return str(exc)


_ENTRIES = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _systems(draw):
    # 5-9 rows, 3-4 columns; a column may be zero or repeat an earlier one,
    # and the right-hand side is consistent unless one entry is perturbed
    m, k = draw(st.integers(5, 9)), draw(st.integers(3, 4))
    rows = [[draw(_ENTRIES) for _ in range(k)] for _ in range(m)]
    shape = draw(st.sampled_from(["plain", "zero", "repeat"]))
    if shape == "zero":
        j = draw(st.integers(0, k - 1))
        for row in rows:
            row[j] = Fraction(0)
    elif shape == "repeat":
        j = draw(st.integers(1, k - 1))
        i = draw(st.integers(0, j - 1))
        for row in rows:
            row[j] = row[i]
    x = [draw(_ENTRIES) for _ in range(k)]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, m - 1))] += draw(_ENTRIES.filter(bool))
    return rows, rhs


_UNIT_ROWS = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]


@settings(max_examples=300, deadline=None)
@given(_systems())
@example((_UNIT_ROWS, [1, 2, 3, 4, 10]))  # the spare row reduces to all zeros
@example((_UNIT_ROWS, [1, 2, 3, 4, 11]))  # the one spare row reads 0 == nonzero
def test_integer_solve_matches_fraction_solve(system):
    rows, rhs = system
    got = _solve_outcome(_solve_exact, rows, rhs)
    assert got == _solve_outcome(_fraction_solve, rows, rhs)
    if isinstance(got, list):
        assert all(type(v) is Fraction for v in got)


_FIT_PAIRS = sorted({*THEOREM_RS.values(), *WEIGHT10_PAIRS})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FIT_PAIRS), st.sets(st.integers(2, 40), min_size=5, max_size=8))
def test_integer_solve_matches_fraction_solve_on_fit_systems(pair, points):
    # the design rows and oracle values fit() builds, at random training sets
    r, s = pair
    ns = sorted(points)
    columns = _columns(r, s)[: 3 if r == s else 4]
    rows = _design_rows(columns, ns)
    rhs = _convolutions(r, s, ns, "Bprime")
    assert _solve_outcome(_solve_exact, rows, rhs) == _solve_outcome(_fraction_solve, rows, rhs)
