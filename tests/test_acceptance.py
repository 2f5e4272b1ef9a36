"""Acceptance checklist: every criterion at full depth, exact tolerance.

Each criterion prints its own PASS/FAIL line (run pytest with -s or -v plus
-rA to see them), and the same checklist backs ``sigmaprime selftest``.
All comparisons in the criteria are exact integer or rational equality;
there is no floating point anywhere, so the tolerance is zero.
"""

import pytest

from sigmaprime import acceptance, identities, lattice
from sigmaprime.acceptance import CRITERIA
from sigmaprime.identities import PROOF_POLYNOMIALS


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result = criterion.run(False)
    line = ("PASS" if result.passed else "FAIL") + f" {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_checklist_is_complete():
    names = [criterion.name for criterion in CRITERIA]
    assert len(names) == len(set(names)) == 11


def test_main_identity_criterion_enumerates_nothing(monkeypatch):
    # the identity engine sums moments: no solution set is walked or listed
    def refuse(*args):
        raise AssertionError("a solution set was enumerated")

    monkeypatch.setattr(lattice, "enumerate_quadruples", refuse)
    monkeypatch.setattr(lattice, "quadruples", refuse)
    passed, _detail = acceptance._c06_main_identity(25, 20, 12)
    assert passed


def test_main_identity_criterion_reports_the_first_failure_f_major(monkeypatch):
    # polynomial #0 fails over B at n = 5 and #1 over Bprime at n = 3; f is the
    # outer loop, so #0's failure is the one reported
    broken = {(PROOF_POLYNOMIALS[0], "B", 5), (PROOF_POLYNOMIALS[1], "Bprime", 3)}
    sides_over = identities._sides_over

    def breaking(f, ns, which):
        sides = sides_over(f, ns, which)
        return [(lhs, rhs + ((f, which, n) in broken)) for n, (lhs, rhs) in zip(ns, sides)]

    monkeypatch.setattr(acceptance, "_sides_over", breaking)
    passed, detail = acceptance._c06_main_identity(25, 20, 12)
    assert not passed
    assert detail.startswith("identity fails over B at n=5 for polynomial #0 (1 x^2): lhs ")
