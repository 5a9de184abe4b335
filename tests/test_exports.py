"""Every name a pcqkit module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import pcqkit

MODULES = ["pcqkit"] + sorted(
    info.name for info in pkgutil.walk_packages(pcqkit.__path__, "pcqkit."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
