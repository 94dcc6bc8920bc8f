"""The package namespace: each name of __all__ loads its submodule on
first use and is that submodule's own object."""

import importlib

import pytest

import tropcount


def test_every_exported_name_is_its_defining_modules_object():
    assert sorted(tropcount._SUBMODULE) == sorted(tropcount.__all__)
    assert len(tropcount.__all__) == len(set(tropcount.__all__))
    for name in tropcount.__all__:
        module = importlib.import_module(
            f"tropcount.{tropcount._SUBMODULE[name]}")
        value = getattr(tropcount, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from tropcount import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tropcount.__all__)
    assert namespace["count_curves"] is tropcount.moduli.count_curves


def test_star_import_of_moduli_binds_its_all():
    # a name left in __all__ after its definition is gone fails here
    moduli = importlib.import_module("tropcount.moduli")
    namespace = {}
    exec("from tropcount.moduli import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(moduli.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tropcount.no_such_name
    assert not hasattr(tropcount, "no_such_name")
    # submodules still import as submodules, not through the table
    from tropcount import catalog
    assert catalog is importlib.import_module("tropcount.catalog")
    assert {"count_curves", "__version__"} <= set(dir(tropcount))
