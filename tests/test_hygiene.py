"""Source hygiene checks that need no linter: every import is used, and
every name a package module exports is bound in it.

An import counts as used when the name it binds appears anywhere in the
module as a name (attribute chains count through their root) or is listed
in the module's ``__all__``.  ``from __future__`` imports are exempt.
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
