"""Run the doctest examples embedded in library docstrings."""

import doctest

import pytest

import repro.utils.registry
import repro.utils.timing

MODULES = [
    repro.utils.registry,
    repro.utils.timing,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
    assert result.attempted > 0, f"no doctests found in {module.__name__}"
