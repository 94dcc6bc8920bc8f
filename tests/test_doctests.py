import doctest
import importlib
import pkgutil

import pytest

import tropcount

MODULES = [
    importlib.import_module(f"tropcount.{info.name}")
    for info in pkgutil.iter_modules(tropcount.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0


def test_docstring_examples_exist_somewhere():
    total = sum(doctest.testmod(m).attempted for m in MODULES)
    assert total >= 10
