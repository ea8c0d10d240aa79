from __future__ import annotations

import importlib
import pkgutil

import pytest

import hfpc

MODULES = ["hfpc"] + sorted(
    "hfpc." + m.name for m in pkgutil.iter_modules(hfpc.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    """Every name in __all__ exists, so a star import cannot fail on it."""
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), "%s.__all__ names missing %r" % (name, attr)
    namespace: dict = {}
    exec("from %s import *" % name, namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
