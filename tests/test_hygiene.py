"""Source hygiene: every module in src/ricelab uses each name it imports.

A standard-library ``ast`` scan, so it runs wherever the tests run.  Names
listed in the module's ``__all__`` count as used (re-exports), and
``from __future__`` imports are exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ricelab"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = used | _exported_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in keep)


def test_scan_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .errors import ModelError\n"
        "__all__ = ['ModelError']\n"
        "def f(x: Mapping) -> int:\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
