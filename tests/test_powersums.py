"""psi and the coprime power sums: route agreement and closed-table checks."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaprime import arith, powersums
from sigmaprime.arith import BudgetExceededError, divisors, faulhaber_sum, mobius, totient
from sigmaprime.identities import _FORMS
from sigmaprime.powersums import COPRIME_POWER_FORMS, ClosedForm, coprime_power_sum, psi


def test_psi_examples():
    assert psi(-1, 2) == Fraction(1, 2)
    assert psi(3, 6) == 182  # (1 - 8)(1 - 27) = 182
    assert psi(1, 1) == 1
    assert psi(-5, 1) == 1


def test_psi_matches_moebius_sum():
    # oracle: the defining Moebius divisor sum
    for n in range(1, 400):
        for s in (-2, -1, 1, 2, 3):
            expected = sum(
                mobius(d) * Fraction(d) ** s for d in divisors(n) if mobius(d)
            )
            assert psi(s, n) == expected


def test_psi_rejects_zero_order():
    with pytest.raises(ValueError):
        psi(0, 6)


def test_totient_is_n_times_psi():
    for n in range(2, 800):
        assert totient(n) == n * psi(-1, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000), st.integers(2, 5000), st.sampled_from([-2, -1, 1, 3]))
def test_psi_multiplicative(m, n, s):
    if gcd(m, n) != 1:
        return
    assert psi(s, m * n) == psi(s, m) * psi(s, n)


def test_power_sum_examples():
    # S_0(10): totatives 1,3,7,9 -> 4; S_1(4): 1 + 3 -> 4; S_2(3): 1 + 4 -> 5
    assert coprime_power_sum(0, 10) == 4
    assert coprime_power_sum(1, 4) == 4
    assert coprime_power_sum(2, 3) == 5


def test_power_sum_zeroth_is_totient():
    for n in range(2, 300):
        assert coprime_power_sum(0, n) == totient(n)


def test_methods_agree_on_a_grid():
    # the acceptance criterion runs the full n <= 500 sweep; this keeps a
    # smaller always-on grid in the unit suite
    for n in range(2, 140):
        for k in range(13):
            direct = coprime_power_sum(k, n, "direct")
            assert direct == coprime_power_sum(k, n, "moebius_faulhaber")
            assert direct == coprime_power_sum(k, n, "closed_table")


def test_inner_limit_variants_agree():
    # the Moebius route may cap its inner sum at n/d or n/d - 1; the t = n
    # term it adds or drops telescopes to zero for every n > 1
    for n in range(2, 200):
        for k in (0, 1, 2, 5, 12):
            with_full = sum(
                mobius(d) * d**k * faulhaber_sum(k, n // d)
                for d in divisors(n)
                if mobius(d)
            )
            with_short = sum(
                mobius(d) * d**k * faulhaber_sum(k, n // d - 1)
                for d in divisors(n)
                if mobius(d)
            )
            assert with_full == with_short == coprime_power_sum(k, n, "direct")


def test_closed_table_shape():
    assert set(COPRIME_POWER_FORMS) == set(range(13))
    for form in COPRIME_POWER_FORMS.values():
        for coeff, power, order in form.terms:
            assert isinstance(coeff, Fraction)
            assert power >= 1
            assert order % 2 and order >= -1  # orders -1, 1, 3, ... only


def fraction_route(form, n):
    # term by term with n**power taken as a Fraction power
    return sum((c * Fraction(n) ** p * psi(o, n) for c, p, o in form.terms), Fraction(0))


def test_evaluate_keeps_negative_powers_exact():
    form = ClosedForm(((Fraction(3, 7), -2, 1), (Fraction(-1, 5), 0, -1), (Fraction(2), 3, 3)))
    for n in range(2, 60):
        value = form.evaluate(n)
        assert type(value) is Fraction
        assert value == fraction_route(form, n)


def test_evaluate_matches_fraction_route_on_stored_forms():
    # the theorem forms (both t13 variants) and the power-sum table
    for form in (*_FORMS.values(), *COPRIME_POWER_FORMS.values()):
        for n in range(2, 150):
            assert form.evaluate(n) == fraction_route(form, n)


def test_closed_table_rejects_large_k():
    with pytest.raises(ValueError):
        coprime_power_sum(13, 10, "closed_table")


def test_power_sum_domain_errors():
    with pytest.raises(ValueError):
        coprime_power_sum(2, 1)
    with pytest.raises(ValueError):
        coprime_power_sum(-1, 5)
    with pytest.raises(ValueError):
        coprime_power_sum(2, 10, "newton")


def test_direct_power_sum_refuses_over_budget_before_looping(monkeypatch):
    # n terms, each weighted 1 + k * bit_length(n) // 512 as the oracle weighs powers
    monkeypatch.setattr(arith, "_WORK_LIMIT", 1000)
    assert coprime_power_sum(2, 1000, "direct") == coprime_power_sum(2, 1000, "moebius_faulhaber")
    assert coprime_power_sum(600, 111, "direct") > 0  # weight 9: 999 units

    def no_loop(*args):
        raise AssertionError("the direct route looped")

    monkeypatch.setattr(powersums, "gcd", no_loop)
    for k, n in ((2, 1001), (600, 112)):
        with pytest.raises(BudgetExceededError, match="limit is 1000"):
            coprime_power_sum(k, n, "direct")


def test_moebius_power_sum_refuses_large_k_before_expanding(monkeypatch):
    work = powersums._moebius_work
    # estimated only, never run: k = 800 at n = 7 took 2.7 s
    assert work(800, 7) > arith._WORK_LIMIT
    assert work(10**6, 7) > work(800, 7)
    # every k <= 12 is far under the limit, even with 2048 squarefree divisors
    assert work(12, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31) < arith._WORK_LIMIT // 40

    def no_expansion(*args):
        raise AssertionError("Bernoulli numbers were expanded")

    monkeypatch.setattr(powersums, "faulhaber_sum", no_expansion)
    for k in (616, 10**6):
        with pytest.raises(BudgetExceededError) as info:
            coprime_power_sum(k, 7, "moebius_faulhaber")
        assert str(info.value) == (
            f"the Moebius-Faulhaber power sum needs about {work(k, 7)} units of work, "
            "the limit is 10000000"
        )
    assert work(616, 7) == 10010208
    # at the largest admitted k the call gets as far as expanding
    with pytest.raises(AssertionError, match="expanded"):
        coprime_power_sum(615, 7, "moebius_faulhaber")


def test_psi_refuses_huge_powers_before_factorizing(monkeypatch):
    # |s| * bit_length(n) bits against 2**20; psi(2**20, 2) stays cheap if the guard breaks
    assert psi(2**19, 2) == 1 - Fraction(2) ** 2**19
    assert psi(20000, 6) == (1 - Fraction(2) ** 20000) * (1 - Fraction(3) ** 20000)

    def no_factorize(*args):
        raise AssertionError("psi factorized n")

    monkeypatch.setattr(powersums, "factorize", no_factorize)
    for s, n in ((2**20, 2), (-(2**20), 2), (2**19 + 1, 2), (349526, 6)):
        with pytest.raises(BudgetExceededError) as info:
            psi(s, n)
        assert str(info.value) == f"psi({s}, {n}) needs powers of more than 1048576 bits"
