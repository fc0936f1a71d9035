"""Every name the modules export resolves, and the package itself exports none."""

import importlib
import pkgutil

import pytest

import optrace

# `optrace.__main__` runs the command line when imported, and exports nothing.
SUBMODULES = [info.name for info in pkgutil.iter_modules(optrace.__path__)]
MODULES = [f"optrace.{name}" for name in SUBMODULES if name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []


def test_the_package_defines_no_name_but_its_version():
    for name in MODULES:
        importlib.import_module(name)  # each import binds its submodule on the package
    defined = {name for name in vars(optrace) if not name.startswith("__")}
    assert defined - set(SUBMODULES) == set()
    assert isinstance(optrace.__version__, str)
