"""Acceptance checklist: every criterion at full depth, exact tolerance.

Each criterion prints its own PASS/FAIL line (run pytest with -s or -v plus
-rA to see them), and the same checklist backs ``sigmaprime selftest``.
All comparisons in the criteria are exact integer or rational equality;
there is no floating point anywhere, so the tolerance is zero.
"""

import pytest

from sigmaprime import acceptance
from sigmaprime.acceptance import CRITERIA
from sigmaprime.identities import _argument_table


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result = criterion.run(False)
    line = ("PASS" if result.passed else "FAIL") + f" {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_checklist_is_complete():
    names = [criterion.name for criterion in CRITERIA]
    assert len(names) == len(set(names)) == 11


def test_main_identity_builds_each_table_once():
    # n outer, polynomials inner: one build per (n, set), and one table kept
    _argument_table.cache_clear()
    passed, _detail = acceptance._c06_main_identity(25, 20, 12)
    assert passed
    info = _argument_table.cache_info()
    assert (info.misses, info.currsize) == (24 + 19, 1)
