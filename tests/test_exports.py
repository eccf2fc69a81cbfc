"""Every name a module exports through ``__all__`` exists, and each exported
name has one owner: the submodule that defines it."""

import importlib
import inspect
import pkgutil

import pytest

import emprank

MODULES = [emprank] + [importlib.import_module(f"emprank.{m.name}") for m in pkgutil.iter_modules(emprank.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


SUBMODULES = [m for m in MODULES[1:] if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_exported_definitions_live_in_their_module(module):
    objects = [getattr(module, name) for name in module.__all__]
    defined = [obj for obj in objects if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert [obj.__qualname__ for obj in defined if obj.__module__ != module.__name__] == []


def test_no_name_exported_by_two_submodules():
    owners = {}
    for module in SUBMODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
