"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import emprank

MODULES = [emprank] + [importlib.import_module(f"emprank.{m.name}") for m in pkgutil.iter_modules(emprank.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
