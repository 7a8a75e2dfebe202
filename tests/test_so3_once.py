"""The SO(3) and quaternion helpers have one implementation: `geometry`'s."""

import ast
import os

import semslam

SRC = os.path.dirname(os.path.abspath(semslam.__file__))


def is_so3_helper(name: str) -> bool:
    name = name.lstrip("_")
    return name in ("hat", "exp_so3", "log_so3") or name.startswith("quat_")


def so3_definitions(source: str):
    """(line, name) of every function, class or assigned name in `source`
    that is an SO(3) or quaternion helper, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for tgt in targets for t in ast.walk(tgt) if isinstance(t, ast.Name)]
    return sorted((line, name) for line, name in found if is_so3_helper(name))


def test_so3_definitions_are_found():
    source = (
        "from .geometry import quat_mul, hat as _h\n"
        "def _hat(v):\n"
        "    return v\n"
        "class Pose:\n"
        "    def quat_conj(self):\n"
        "        return self\n"
        "_log_so3 = _hat\n"
        "def hat_norm(v):\n"
        "    quat = v\n"
        "    return quat\n"
    )
    assert so3_definitions(source) == [(2, "_hat"), (5, "quat_conj"), (7, "_log_so3")]


def test_only_geometry_defines_so3_helpers():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "geometry.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                defined = so3_definitions(fh.read())
            if defined:
                found[name] = defined
    assert found == {}
