"""Module layout: triangles sits below symbolic, and every import is at module level."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import tanpoly

PACKAGE = Path(tanpoly.__file__).resolve().parent

# Load tanpoly.triangles under an empty stand-in for the package, so the
# package __init__ (which imports every module) does not run, and list the
# tanpoly modules that the import pulled in.
LOAD_TRIANGLES_ALONE = """
import importlib, sys, types
pkg = types.ModuleType("tanpoly")
pkg.__path__ = [sys.argv[1]]
sys.modules["tanpoly"] = pkg
importlib.import_module("tanpoly.triangles")
print(" ".join(sorted(name for name in sys.modules if name.startswith("tanpoly."))))
"""


def test_triangles_does_not_load_symbolic():
    result = subprocess.run(
        [sys.executable, "-c", LOAD_TRIANGLES_ALONE, str(PACKAGE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = result.stdout.split()
    assert "tanpoly.triangles" in loaded
    assert "tanpoly.symbolic" not in loaded


def test_no_imports_inside_functions():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
