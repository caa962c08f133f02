"""Run the doctests embedded in the library modules."""

import doctest

import pytest

from bweyl import patterns, polynomials, root_system, signed_perm, theorems, weak_order


@pytest.mark.parametrize(
    "module", [signed_perm, patterns, polynomials, root_system, weak_order, theorems],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
