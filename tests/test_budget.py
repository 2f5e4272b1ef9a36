"""One work limit, in arith, bounds every work-estimating route."""

import pytest

from sigmaprime import arith, identities, lattice, powersums
from sigmaprime.arith import BudgetExceededError
from sigmaprime.identities import Poly4, main_identity_sides
from sigmaprime.lattice import brute_convolution, check_pre_identity, quadruples
from sigmaprime.powersums import coprime_power_sum


def _no_work(*args):
    raise AssertionError("the work started")


def test_one_patch_of_the_limit_moves_every_bound(monkeypatch):
    monkeypatch.setattr(arith, "_WORK_LIMIT", 1000)
    # each route's first step of work fails the test if it is reached
    for module, name in (
        (lattice, "_factor_table"),
        (identities, "_left_moments"),
        (powersums, "_direct_power_sum"),
        (powersums, "faulhaber_sum"),
        (lattice, "divisors"),
        (lattice, "_sigma_prime_convolution"),
    ):
        monkeypatch.setattr(module, name, _no_work)
    routes = [
        (
            lambda: brute_convolution(1, 3, 100, "B"),
            "the convolution oracle needs at least 6500 units of work",
        ),
        (
            lambda: main_identity_sides(Poly4.from_text("1x^2y^2 + 1a^2b^2"), 12),
            "identity sides at n = 12 need about 9504 units of work",
        ),
        (
            lambda: coprime_power_sum(2, 1001, "direct"),
            "the direct power sum needs 1001 units of work",
        ),
        (
            lambda: coprime_power_sum(20, 7, "moebius_faulhaber"),
            "the Moebius-Faulhaber power sum needs about 1176 units of work",
        ),
        (
            lambda: check_pre_identity(1, 1, 12),
            "the pre-identity at (1, 1, 12) needs about 3144 units of work",
        ),
        (lambda: quadruples(12, "B"), "listing B(12) needs about 1152 units of work"),
    ]
    for call, needs in routes:
        with pytest.raises(BudgetExceededError) as info:
            call()
        assert str(info.value) == f"{needs}, the limit is 1000"
