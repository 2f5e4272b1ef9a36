"""Exact ansatz fitting against the enumeration oracle."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmaprime import patternfit
from sigmaprime.identities import THEOREM_RS, parse_theorem_id
from sigmaprime.lattice import BudgetExceededError, brute_convolution
from sigmaprime.patternfit import (
    DEFAULT_TEST_NS,
    DEFAULT_TRAIN_NS,
    EVIDENCE_LABEL,
    WEIGHT10_PAIRS,
    PatternCoeffs,
    fit,
    fit_and_validate,
    pattern_value,
    probe_weight10,
    theorem_pattern,
    validate,
)
from sigmaprime.powersums import ClosedForm, psi


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


def test_theorem_pattern_rejects_off_ansatz_term(monkeypatch):
    form = ClosedForm(((Fraction(1), 5, -1), (Fraction(1), 2, 2)))
    monkeypatch.setattr(patternfit, "theorem_form", lambda tid: form)
    with pytest.raises(ValueError, match="does not fit the ansatz"):
        theorem_pattern("t13")


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


def test_validate_usage_errors():
    coeffs = theorem_pattern("t11")
    with pytest.raises(ValueError):
        validate(coeffs, 1, 1, ())
    with pytest.raises(ValueError):
        validate(coeffs, 1, 1, (5, 11), train_ns=(2, 3, 4, 5, 7))
    with pytest.raises(ValueError):
        validate(coeffs, 1, 1, (1, 11))


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
    # psi trial-divides, so a point far over the oracle's limit must be
    # refused before any design row is built
    def refuse(*args):
        raise AssertionError("psi ran before the oracle's refusal")

    monkeypatch.setattr(patternfit, "psi", refuse)
    with pytest.raises(BudgetExceededError):
        fit(1, 3, (2, 3, 4, 5, 10**30))
