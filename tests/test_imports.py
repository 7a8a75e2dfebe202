"""Every name a `semslam` module imports is used in that module."""

import ast
import os

import semslam

SRC = os.path.dirname(os.path.abspath(semslam.__file__))


def unused_imports(source: str):
    """Names bound by the imports of `source` that no expression reads and
    `__all__` does not list, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return sorted((line, name) for name, line in imported if name not in used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from typing import Dict, List as L\n"
        "from .x import y\n"
        "__all__ = ['y']\n"
        "def f() -> Dict:\n"
        "    return a.b.c(sys)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "L")]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}
