"""The public surface stays consistent: what a module declares exists, and what
the package re-exports is declared by the module it comes from."""
import ast
import importlib
import pkgutil
import re
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


ROOT = Path(focklab.__file__).resolve().parents[2]
# a dotted identifier string, as perfbench/tracing.py names the layers it wraps
_TRACED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _reached(tree, skip=None, strings=False):
    """Identifiers that ``tree`` reads as names or attributes (and, with
    ``strings``, the parts of dotted-identifier string constants), ignoring
    the top-level statement that defines ``skip``."""
    out = set()
    for stmt in tree.body:
        if skip is not None and skip in _defines(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _TRACED_NAME.fullmatch(node.value)):
                out.update(node.value.split("."))
    return out


def _defines(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _trees(*dirs):
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def test_every_declared_name_is_reached():
    # a public name counts as used when the package (outside the name's own
    # definition and __init__.py), the benchmark or the scripts reach it;
    # tests alone do not keep a name alive
    elsewhere = set()
    for tree in _trees("scripts").values():
        elsewhere |= _reached(tree)
    for tree in _trees("perfbench").values():
        elsewhere |= _reached(tree, strings=True)
    package = {p.stem: tree for p, tree in _trees("src/focklab").items()
               if p.name != "__init__.py"}
    unreached = []
    for module in MODULES:
        for name in getattr(importlib.import_module(f"focklab.{module}"), "__all__", ()):
            if name in elsewhere or any(name in _reached(tree, skip=name if m == module else None)
                                        for m, tree in package.items()):
                continue
            unreached.append(f"{module}.{name}")
    assert unreached == []
