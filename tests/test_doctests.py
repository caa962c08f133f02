"""Run the doctests embedded in the library modules and the README library tour."""

import doctest
from pathlib import Path

import pytest

from bweyl import patterns, polynomials, root_system, signed_perm, theorems, weak_order


@pytest.mark.parametrize(
    "module", [signed_perm, patterns, polynomials, root_system, weak_order, theorems],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_library_tour():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False)
    assert failures == 0 and tried > 0
