"""Every exported name resolves, so no removal leaves a dangling export."""

import importlib
import pkgutil

import pytest

import f4decomp

MODULES = ["f4decomp"] + [f"f4decomp.{m.name}" for m in pkgutil.iter_modules(f4decomp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
