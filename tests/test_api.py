"""The public surface stays consistent: what a module declares exists, and what
the package re-exports is declared by the module it comes from."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import focklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(focklab.__path__))


def _reexports():
    tree = ast.parse(Path(focklab.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_declared_names_resolve(module):
    mod = importlib.import_module(f"focklab.{module}")
    declared = getattr(mod, "__all__", ())
    assert len(set(declared)) == len(declared)
    assert [name for name in declared if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module,name", _reexports(), ids=lambda x: x)
def test_reexport_is_declared(module, name):
    mod = importlib.import_module(f"focklab.{module}")
    assert getattr(focklab, name) is getattr(mod, name)
    if hasattr(mod, "__all__"):
        assert name in mod.__all__
    else:
        # a module without __all__ may only re-export what it defines
        assert getattr(mod, name).__module__ == mod.__name__
