"""Module layout: triangles and multiangle sit below the modules that use
them, the identity suites and their report live only in verify, and every
import is at module level."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import tanpoly
import tanpoly.cli

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

# The same for the module named by the second argument.
LOAD_MODULE_ALONE = LOAD_TRIANGLES_ALONE.replace('"tanpoly.triangles"', "sys.argv[2]")

# Import tanpoly.cli in a fresh interpreter and list the modules the import added.
IMPORT_CLI = """
import sys
before = set(sys.modules)
import tanpoly.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_triangles_does_not_load_symbolic():
    result = subprocess.run(
        [sys.executable, "-c", LOAD_TRIANGLES_ALONE, str(PACKAGE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = result.stdout.split()
    assert "tanpoly.triangles" in loaded
    assert "tanpoly.symbolic" not in loaded


def test_multiangle_loads_only_exact():
    result = subprocess.run(
        [sys.executable, "-c", LOAD_MODULE_ALONE, str(PACKAGE), "tanpoly.multiangle"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.split() == ["tanpoly.exact", "tanpoly.multiangle"]


def test_suites_and_report_live_in_verify():
    assert not (PACKAGE / "report.py").exists()
    defining = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "def verify_" in path.read_text(encoding="utf-8")
    ]
    assert defining == ["verify.py"]


def test_cli_import_skips_dataclasses_and_inspect():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    added = result.stdout.split()
    assert "tanpoly.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


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


def _is_sys_stdout(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "stdout"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    )


def test_cli_commands_yield_and_run_writes():
    # every _cmd_* is a generator that neither prints nor touches sys.stdout,
    # and the one sys.stdout.write in cli is _run's
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    commands = [func for func in funcs if func.name.startswith("_cmd_")]
    assert sorted(func.name for func in commands) == ["_cmd_poly", "_cmd_tan", "_cmd_triangle", "_cmd_verify"]
    for func in commands:
        nodes = list(ast.walk(func))
        assert any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in nodes), func.name
        assert not any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            for node in nodes
        ), func.name
        assert not any(_is_sys_stdout(node) for node in nodes), func.name
    writers = [
        func.name
        for func in funcs
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "write" and _is_sys_stdout(node.value)
    ]
    assert writers == ["_run"]


def test_deleted_row_wrappers_are_gone():
    # rows come from the sequences tilde_rows, m_row_seq and n_row_seq
    deleted = ("tilde_r_row", "tilde_t_row", "tilde_r_row_seq", "tilde_t_row_seq", "m_rec", "n_rec")
    for name in deleted:
        assert name not in tanpoly.__all__
        for module in (tanpoly, tanpoly.symbolic, tanpoly.triangles):
            assert not hasattr(module, name), (module.__name__, name)


def test_output_formats_and_aliases_are_gone():
    # cli writes every output format; records are built in verify._Tally.check
    deleted = [
        (tanpoly.YPoly, "serialize"),
        (tanpoly.VerifyReport, "summary"),
        (tanpoly.VerifyReport, "to_dict"),
        (tanpoly.verify, "failure"),
        (tanpoly.Rational, "num"),
        (tanpoly.Rational, "den"),
    ]
    for owner, name in deleted:
        assert not hasattr(owner, name), (owner.__name__, name)


def test_split_helpers_are_gone():
    # cli._fail writes every error line; symbolic._dz_step steps, checks and divides
    assert not hasattr(tanpoly.cli, "_usage_error")
    assert not hasattr(tanpoly.symbolic, "_extract_scaled")
