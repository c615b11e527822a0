"""Every name a module exports resolves, so a deleted function cannot leave
a stale entry behind in an __all__."""

import importlib
import pkgutil

import pytest

import bandpos

MODULES = ["bandpos"] + [f"bandpos.{m.name}" for m in pkgutil.iter_modules(bandpos.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from bandpos import *", namespace)
    assert set(bandpos.__all__) <= set(namespace)
