"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import optrace

# `optrace.__main__` runs the command line when imported, and exports nothing.
MODULES = ["optrace"] + [
    f"optrace.{info.name}" for info in pkgutil.iter_modules(optrace.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []

