"""Helpers shared by the test modules."""

from types import CodeType


def code_names(code):
    # global and attribute names read by code and by every code object nested in it
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= code_names(const)
    return names
