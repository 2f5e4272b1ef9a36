"""Fixtures shared by every test module."""

import pytest

from sigmaprime import lattice


@pytest.fixture(autouse=True)
def _empty_quadruples_memo():
    # the quadruples memo outlives a call: a test that patches the enumerator
    # with a fake must not leave fake sets for later tests to read
    lattice._quadruple_memo.clear()
