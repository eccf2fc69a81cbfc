"""Every name a module exports through ``__all__`` exists, each exported
name has one owner, the submodule that defines it, and the package reads no
environment variable."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def test_package_reads_no_environment_variable():
    """Every setting reaches the package through an argument, an option or a
    config file, never through ``os.environ`` or ``os.getenv``."""
    src = Path(emprank.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name in ("environ", "getenv")]
    assert reads == []
