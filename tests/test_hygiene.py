"""Source hygiene checks that need no linter: every import is used, every
name a package module exports is bound in it, and no private definition in
the package is dead.

An import counts as used when the name it binds appears anywhere in the
module as a name (attribute chains count through their root) or is listed
in the module's ``__all__``.  ``from __future__`` imports are exempt.

A private definition is a module-level function, class or assigned name, or
a method, whose name starts with one underscore.  It counts as live when its
name is read somewhere in the package outside its own definition: as a name,
an attribute or an imported name.  Names are matched by spelling alone.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def bound_names(node):
    """(name, line) of every name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], node.lineno)
            for a in node.names if a.name != "*"]


def exported_names(tree):
    """Strings listed in a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    imported, used = [], exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(bound_names(node))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(name, line) for name, line in imported if name not in used]


def test_scan_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import fsum, log as ln\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f():\n"
        "    import re\n"
        "    return sys.argv, os.sep, ln(2)\n"
    )
    assert unused_imports(source) == [("np", 3), ("fsum", 5), ("re", 9)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_exports_are_bound(path):
    # the benchmark tracer getattr()s every ``__all__`` entry, so a stale one breaks it
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    module = importlib.import_module(".".join(p for p in parts if p != "__init__"))
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def private_definitions(tree):
    """(name, first line, last line) of each private module-level or method definition."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.extend((t.id, node) for tgt in targets for t in ast.walk(tgt)
                        if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defs.extend((m.name, m) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(name, node.lineno, node.end_lineno) for name, node in defs
            if name.startswith("_") and not name.startswith("__")]


def references(tree):
    """(name, line) of every name, attribute and imported name the module reads."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.end_lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((a.name, node.lineno) for a in node.names)
    return refs


def dead_private_definitions(sources):
    """``(module, name, line)`` of each private definition that no module reads
    outside the definition's own lines; ``sources`` maps module names to text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = {mod: references(tree) for mod, tree in trees.items()}
    dead = []
    for mod, tree in trees.items():
        for name, first, last in private_definitions(tree):
            if not any(ref == name and (other != mod or not first <= line <= last)
                       for other in refs for ref, line in refs[other]):
                dead.append((mod, name, first))
    return dead


def test_scan_sees_dead_and_live_private_definitions():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else _LIMIT\n"
            "class Box:\n"
            "    def _live(self):\n"
            "        return 1\n"
            "    def _dead(self):\n"
            "        return self._live()\n"
            "    def __len__(self):\n"
            "        return 0\n"
        ),
        "b": "from a import _imported\n",
        "c": "def _imported():\n    pass\n",
    }
    assert dead_private_definitions(sources) == [("a", "_UNUSED", 2), ("a", "_helper", 3),
                                                 ("a", "_dead", 8)]


def test_no_dead_private_definitions():
    paths = sorted((ROOT / "src").rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    assert dead_private_definitions(sources) == []
