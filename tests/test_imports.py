"""Module layout: triangles and multiangle sit below the modules that use
them, the identity suites and their report live only in verify, importing
the package loads no module, and each command loads only the layers it
runs. Imports sit at module level, except at the top of cli's _cmd_*
commands and in the package __getattr__, which load a layer on first use."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanpoly
import tanpoly.cli

PACKAGE = Path(tanpoly.__file__).resolve().parent

# Import the module named by the first argument and list the tanpoly modules
# that the import pulled in.
LOAD_MODULE_ALONE = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(sorted(name for name in sys.modules if name.startswith("tanpoly."))))
"""

# Import tanpoly.cli in a fresh interpreter and list the modules the import added.
IMPORT_CLI = """
import sys
before = set(sys.modules)
import tanpoly.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

# Run the CLI on the given argv with its output discarded, then print the exit
# code and the tanpoly modules, json, fractions and decimal that are loaded.
RUN_CLI = """
import os, sys
sys.stdout = sys.stderr = open(os.devnull, "w")
from tanpoly import cli
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, *sorted(m for m in sys.modules if m.startswith("tanpoly.") or m in ("json", "fractions", "decimal")))
"""


def fresh(code: str, *args: str) -> list[str]:
    """Run code in a fresh interpreter without site, so nothing else loads the
    watched modules, and return its stdout split on whitespace."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return result.stdout.split()


def test_triangles_does_not_load_symbolic():
    assert fresh(LOAD_MODULE_ALONE, "tanpoly.triangles") == ["tanpoly.triangles"]


def test_multiangle_loads_only_exact():
    assert fresh(LOAD_MODULE_ALONE, "tanpoly.multiangle") == ["tanpoly.exact", "tanpoly.multiangle"]


def test_bare_import_loads_no_module():
    assert fresh(LOAD_MODULE_ALONE, "tanpoly") == []


TAN_LAYERS = {"tanpoly.cli", "tanpoly.exact", "tanpoly.multiangle", "fractions", "decimal"}
TRIANGLE_LAYERS = {"tanpoly.cli", "tanpoly.triangles"}
POLY_LAYERS = TRIANGLE_LAYERS | {"tanpoly.symbolic"}
ALL_LAYERS = TAN_LAYERS | POLY_LAYERS | {"tanpoly.verify"}

# command line -> the tanpoly modules, json, fractions and decimal it loads
LOADED_BY = {
    "--help": {"tanpoly.cli"},
    "tan --n 3 --t 1": TAN_LAYERS,
    "tan --n 3 --t 1/2 --method gaussian": TAN_LAYERS,
    "poly --family P --n 5": POLY_LAYERS,
    "poly --family R --n 5 --format csv": POLY_LAYERS,
    "poly --family Q --n 5 --format json": POLY_LAYERS,
    "triangle --name R --rows 3": TRIANGLE_LAYERS,
    "triangle --name Rtilde --rows 3": TRIANGLE_LAYERS,
    "triangle --name Ttilde --rows 3": TRIANGLE_LAYERS,
    "triangle --name Rtilde --rows 3 --format bfile": TRIANGLE_LAYERS,
    "triangle --name Ttilde --rows 3 --format json": TRIANGLE_LAYERS,
    "triangle --name M --rows 3 --format json": TRIANGLE_LAYERS,
    "verify --suite tables --max-n 3": ALL_LAYERS,
    "verify --suite tables --max-n 3 --json": ALL_LAYERS | {"json"},
}


@pytest.mark.parametrize("command", list(LOADED_BY))
def test_each_command_loads_only_its_layers(command):
    code, *modules = fresh(RUN_CLI, *command.split())
    assert code == "0"
    assert set(modules) == LOADED_BY[command]


def test_suites_and_report_live_in_verify():
    assert not (PACKAGE / "report.py").exists()
    defining = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "def verify_" in path.read_text(encoding="utf-8")
    ]
    assert defining == ["verify.py"]


def test_cli_import_skips_dataclasses_and_inspect():
    added = fresh(IMPORT_CLI)
    assert "tanpoly.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_imports_inside_functions_only_in_commands_and_getattr():
    # a command loads its layers when it runs and the package loads a name on
    # first use; every other import is at module level
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            allowed = (
                path.name == "cli.py" and func.name.startswith("_cmd_")
                or path.name == "__init__.py" and func.name == "__getattr__"
            )
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and not allowed
            ]
    assert found == []


# public name -> home module, as the package __init__ imported them eagerly
HOMES = {
    "exact": ["GaussianInt", "Rational"],
    "multiangle": ["DEFAULT_GRID", "POLE", "TanValue", "tan_addition", "tan_beeler", "tan_float_check", "tan_gaussian"],
    "symbolic": [
        "InternalInconsistencyError", "ReducedPair", "YPoly", "YZPoly", "apply_dz", "diff", "dz_iter", "hoffman_p",
        "hoffman_q", "r_poly_closed", "r_poly_dz", "reduce_z", "reduced_diff", "t_poly_closed", "t_poly_dz",
    ],
    "triangles": [
        "binom", "m_closed", "m_row", "n_closed", "n_row", "r_coef", "r_row", "t_coef", "t_row", "tilde_rows",
    ],
    "verify": [
        "RTILDE_GOLDEN", "TTILDE_GOLDEN", "VerifyReport", "run_all", "run_suite", "verify_closed_forms",
        "verify_hoffman", "verify_operator_expansion", "verify_rec_vs_closed", "verify_rt_recurrences",
        "verify_tables", "verify_triple_agreement",
    ],
}

SUBMODULES = ("cli", "exact", "multiangle", "symbolic", "triangles", "verify")

# After a bare import, list dir(), star-import every name, then read the submodules.
STAR_IMPORT = f"""
import tanpoly
listed = set(dir(tanpoly))
names = {{}}
exec("from tanpoly import *", names)
print({{*tanpoly.__all__, *{SUBMODULES}}} <= listed, set(tanpoly.__all__) <= set(names))
print(*(getattr(tanpoly, name).__name__ for name in {SUBMODULES}))
"""


class TestLazyNamespace:
    def test_all_is_unchanged(self):
        assert tanpoly.__all__ == sorted(name for names in HOMES.values() for name in names)

    @pytest.mark.parametrize("home", sorted(HOMES))
    def test_names_resolve_to_the_home_objects(self, home):
        module = getattr(tanpoly, home)
        assert module.__name__ == f"tanpoly.{home}"
        for name in HOMES[home]:
            assert getattr(tanpoly, name) is getattr(module, name), name

    def test_dir_star_import_and_submodules_after_a_bare_import(self):
        assert fresh(STAR_IMPORT) == ["True", "True", *(f"tanpoly.{name}" for name in SUBMODULES)]

    def test_unknown_names_raise_attribute_error(self):
        for name in ("no_such_name", "m_rec", "report", "_HOME_OF"):
            assert not hasattr(tanpoly, name), name
        with pytest.raises(AttributeError, match="no_such_name"):
            tanpoly.no_such_name


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


def test_ring_helpers_are_gone():
    # _SparsePoly.__mul__ holds the one product loop; sums are dict.get(key, 0) + c
    assert not hasattr(tanpoly.symbolic, "_add")
    assert not hasattr(tanpoly.YPoly, "_product")
    assert not hasattr(tanpoly.YZPoly, "_product")


def test_subclasses_supply_only_their_key(monkeypatch):
    # _SparsePoly evaluates and renders for both keys; diff and apply_dz are
    # _derive, the derivative of z^s * p, at s = 0 and s = 1
    for cls in (tanpoly.YPoly, tanpoly.YZPoly):
        assert not {"__call__", "_monomial"} & set(vars(cls)), cls.__name__
    assert {"__call__", "_monomial"} <= set(vars(tanpoly.symbolic._SparsePoly))
    selectors = []
    real = tanpoly.symbolic._derive

    def spy(p, s):
        selectors.append(s)
        return real(p, s)

    monkeypatch.setattr(tanpoly.symbolic, "_derive", spy)
    tanpoly.symbolic.diff(tanpoly.YZPoly.z())
    tanpoly.symbolic.apply_dz(tanpoly.YZPoly.z())
    assert selectors == [0, 1]


def test_triangle_rows_live_in_triangles():
    # cli reads all six triangles through triangles; symbolic keeps no second path
    assert not hasattr(tanpoly.symbolic, "tilde_rows")
    assert not hasattr(tanpoly.cli, "import_module")
