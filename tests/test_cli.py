"""CLI contract: outputs, formats, exit codes, and determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import count, islice
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanpoly import cli, multiangle, symbolic, triangles, verify
from tanpoly.exact import Rational
from tanpoly.multiangle import TanValue
from tanpoly.symbolic import YPoly
from tanpoly.triangles import m_row, n_row, r_row, t_row, tilde_rows
from tanpoly.verify import VerifyReport


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def full_str(value: object) -> str:
    """str(value) with the interpreter's int -> str digit limit lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def readme_examples() -> list[tuple[str, str]]:
    """(arguments, stdout) of each `$ tanpoly ...` example in the README's CLI
    block; an example's output is the lines under it, less the blank line
    that ends it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    examples = (example.split("\n", 1) for example in block.split("$ tanpoly ")[1:])
    return [(command, out.rstrip("\n") + "\n") for command, out in examples]


README_EXAMPLES = readme_examples()


def readme_library() -> tuple[str, list[tuple[str, str]]]:
    """The lines of the README's Library block that carry no comment, and
    (expression, comment) for each line that ends in a `# ...` comment."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0].splitlines()
    setup = "\n".join(line for line in lines if "#" not in line)
    return setup, [tuple(part.strip() for part in line.split("#", 1)) for line in lines if "#" in line]


README_SETUP, README_LIBRARY = readme_library()


class TestTriangleCommand:
    def test_rtilde_table(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--name", "Rtilde", "--rows", "5")
        assert code == 0
        assert out.splitlines()[-1] == "1 14 41 44 16"

    def test_ttilde_bfile(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--name", "Ttilde", "--rows", "3", "--format", "bfile"
        )
        assert code == 0
        assert out == "1 1\n2 2\n3 2\n4 3\n5 7\n6 4\n"

    def test_t_single_row_csv(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--name", "T", "--rows", "1", "--format", "csv")
        assert code == 0
        assert out == "1\n"

    def test_r_row_zero_is_empty(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--name", "R", "--rows", "3")
        assert code == 0
        assert out.splitlines() == ["", "1", "2"]
        # the empty row 0 takes no bfile index
        assert run_cli(capsys, "triangle", "--name", "R", "--rows", "3", "--format", "bfile") == (0, "1 1\n2 2\n", "")

    @pytest.mark.parametrize("fmt", ["table", "csv", "bfile"])
    def test_no_values_print_one_empty_line(self, capsys, fmt):
        # rows are written as they are made; with no values at all the output
        # is one empty line
        assert run_cli(capsys, "triangle", "--name", "R", "--rows", "1", "--format", fmt) == (0, "\n", "")

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--name", "M", "--rows", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "M" and doc["first_row"] == 0
        assert doc["rows"] == [["1"], ["2"], ["6", "2"], ["24", "24"]]

    def test_unknown_name_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--name", "X", "--rows", "3")
        assert code == 2

    def test_unknown_format_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--name", "R", "--rows", "3", "--format", "xml")
        assert code == 2

    def test_zero_rows_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--name", "R", "--rows", "0")
        assert code == 2
        assert "at least 1" in err

    def test_mn_row_cap(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--name", "M", "--rows", "61")
        assert code == 2
        assert "capped" in err
        code, out, _ = run_cli(capsys, "triangle", "--name", "N", "--rows", "60", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 60

    @pytest.mark.parametrize(
        "name,row_seq",
        [
            pytest.param("R", lambda: map(r_row, count(0)), id="R-r_row-0"),
            pytest.param("T", lambda: map(t_row, count(0)), id="T-t_row-0"),
            pytest.param("M", lambda: map(m_row, count(0)), id="M-m_row-0"),
            pytest.param("N", lambda: map(n_row, count(0)), id="N-n_row-0"),
            pytest.param("Rtilde", lambda: map(itemgetter(0), tilde_rows()), id="Rtilde-tilde_rows-1"),
            pytest.param("Ttilde", lambda: map(itemgetter(1), tilde_rows()), id="Ttilde-tilde_rows-1"),
        ],
    )
    def test_bfile_round_trip(self, capsys, name, row_seq):
        rows = 10
        code, out, _ = run_cli(
            capsys, "triangle", "--name", name, "--rows", str(rows), "--format", "bfile"
        )
        assert code == 0
        values = []
        for i, line in enumerate(out.splitlines(), start=1):
            index, value = line.split(" ")
            assert int(index) == i
            values.append(int(value))
        expected_rows = [list(row) for row in islice(row_seq(), rows)]
        rebuilt = []
        pos = 0
        for row in expected_rows:
            rebuilt.append(values[pos : pos + len(row)])
            pos += len(row)
        assert pos == len(values)
        assert rebuilt == expected_rows


class TestPolyCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "T", "--n", "3")
        assert code == 0
        assert out == "3y + 7y^3 + 4y^5\n"

    def test_p_zero(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "P", "--n", "0")
        assert code == 0
        assert out == "y\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "R", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[1, "2"], [3, "2"]]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "Q", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "0,1\n2,2\n"

    def test_rt_zero_index_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "poly", "--family", "R", "--n", "0")
        assert code == 2
        assert "at least 1" in err

    def test_pq_zero_index_ok_but_negative_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "--family", "Q", "--n", "0")
        assert code == 0
        code, _, _ = run_cli(capsys, "poly", "--family", "Q", "--n", "-1")
        assert code == 2

    def test_r_family_past_recursion_limit(self, capsys):
        # R_n has degree 2n - 1 with leading coefficient sum_k C(n, 2k+1) = 2^(n-1)
        code, out, _ = run_cli(capsys, "poly", "--family", "R", "--n", "1000", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == f"1999,{2**999}"

    def test_p_family_past_digit_limit(self, capsys):
        # P_n has leading term n! y^(n+1); 2000! has 5736 digits
        limit = digit_limit()
        code, out, _ = run_cli(capsys, "poly", "--family", "P", "--n", "2000", "--format", "csv")
        assert code == 0
        assert digit_limit() == limit
        assert out.splitlines()[-1] == f"2001,{full_str(math.factorial(2000))}"

    def test_digit_limit_set_at_start(self):
        # a limit set when the interpreter starts is lifted too; the digest
        # is the emit workload's pin of the same invocation
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONINTMAXSTRDIGITS="640")
        argv = [sys.executable, "-m", "tanpoly", "poly", "--family", "P", "--n", "1500", "--format", "json"]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True, timeout=120)
        assert done.stderr == b""
        digest = "8bc24e96c2b5cfb474202917757c8f65468bf493cbb8031ac032a413ba1a8a1f"
        assert hashlib.sha256(done.stdout).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, render",
        [
            ("table", str),
            ("csv", lambda poly: "\n".join(f"{a},{c}" for a, c in poly.terms())),
            ("json", lambda poly: json.dumps([[a, str(c)] for a, c in poly.terms()])),
        ],
        ids=["table", "csv", "json"],
    )
    def test_p_streams_the_whole_rendering(self, capsys, fmt, render):
        # P_1000's largest coefficients have over 2,500 digits, so poly converts
        # them by halves; written term by term, the text must equal the whole one
        code, out, _ = run_cli(capsys, "poly", "--family", "P", "--n", "1000", "--format", fmt)
        assert code == 0
        want = render(symbolic.hoffman_p(1000)) + "\n"
        same = out == want  # asserted by name: pytest's diff of two texts this long takes minutes
        assert same, f"differs from character {len(os.path.commonprefix([out, want]))}"

    def test_bfile_not_a_poly_format(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "--family", "R", "--n", "2", "--format", "bfile")
        assert code == 2


class TestTanCommand:
    def test_single_method(self, capsys):
        code, out, _ = run_cli(capsys, "tan", "--n", "3", "--t", "1/1", "--method", "beeler")
        assert code == 0
        assert out == "-1\n"

    def test_zero_n(self, capsys):
        code, out, _ = run_cli(capsys, "tan", "--n", "0", "--t", "5/3", "--method", "beeler")
        assert code == 0
        assert out == "0\n"

    def test_all_methods_pole(self, capsys):
        code, out, _ = run_cli(capsys, "tan", "--n", "2", "--t", "1/1", "--method", "all")
        assert code == 0
        assert out == "beeler: pole\naddition: pole\ngaussian: pole\nagree: yes\n"

    def test_all_methods_finite(self, capsys):
        code, out, _ = run_cli(capsys, "tan", "--n", "2", "--t", "1/2")
        assert code == 0
        assert out == "beeler: 4/3\naddition: 4/3\ngaussian: 4/3\nagree: yes\n"

    def test_value_past_digit_limit(self, capsys):
        code, out, _ = run_cli(capsys, "tan", "--n", "6000", "--t", "3/7")
        assert code == 0
        expected = full_str(multiangle.tan_gaussian(6000, Rational(3, 7)))
        assert len(expected) > 4300
        assert out == "".join(f"{name}: {expected}\n" for name in multiangle.METHODS) + "agree: yes\n"

    def test_t_past_digit_limit(self, capsys):
        # --t is parsed where the command runs, with the digit limit lifted
        t = "1" + "0" * 4400 + "/7"
        code, out, _ = run_cli(capsys, "tan", "--n", "2", "--t", t, "--method", "all")
        assert code == 0
        expected = full_str(multiangle.tan_gaussian(2, Rational(10**4400, 7)))
        assert len(expected) > 2 * 4400
        assert out == "".join(f"{name}: {expected}\n" for name in multiangle.METHODS) + "agree: yes\n"

    def test_malformed_t_exits_2(self, capsys):
        for bad in ("abc", "1/0", "1.5"):
            code, _, err = run_cli(capsys, "tan", "--n", "2", "--t", bad)
            assert code == 2
            assert "rational" in err

    def test_negative_n_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "tan", "--n", "-1", "--t", "1/2")
        assert code == 2

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(
            multiangle.METHODS, "addition", lambda n, t: TanValue(Rational(999))
        )
        code, out, _ = run_cli(capsys, "tan", "--n", "1", "--t", "1/2", "--method", "all")
        assert code == 1
        assert out.endswith("agree: no\n")


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(": pass (checked " in line for line in lines)

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "corollary", "--max-n", "25")
        assert code == 0
        assert out.startswith("corollary: pass")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tables", "--max-n", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["reports"][0]["suite"] == "tables"
        assert doc["reports"][0]["checked"] == 10

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    def test_bad_max_n_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "0")
        assert code == 2

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        broken = VerifyReport("tables", 1, ({"n": "1", "got": "[]", "want": "[1]"},))
        monkeypatch.setitem(verify.SUITES, "tables", lambda max_n: broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "tables")
        assert code == 1
        assert "FAIL" in out and "want=[1]" in out

    def test_interrupted_run_keeps_finished_suites(self, capsys, monkeypatch):
        # each suite's lines are written as it ends, before the next one runs
        finished = verify.SUITE_NAMES[: verify.SUITE_NAMES.index("hoffman")]
        assert finished == ("rt-recurrences", "corollary", "dz-expansion")
        want = "".join(run_cli(capsys, "verify", "--suite", name, "--max-n", "12")[1] for name in finished)

        def interrupted(max_n):
            raise RuntimeError("interrupted")

        monkeypatch.setitem(verify.SUITES, "hoffman", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            cli.main(["verify", "--suite", "all", "--max-n", "12"])
        assert capsys.readouterr().out == want
        assert want.count("\n") == 3


class TestHarness:
    @pytest.mark.parametrize("command, want", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
    def test_readme_example(self, capsys, command, want):
        assert run_cli(capsys, *command.split()) == (0, want, "")

    @pytest.mark.parametrize("expression, comment", README_LIBRARY, ids=[e for e, _ in README_LIBRARY])
    def test_readme_library_line(self, expression, comment):
        # the comment opens with the repr of the line's value; what follows a comma is a remark
        namespace: dict = {}
        exec(README_SETUP, namespace)
        value = repr(eval(expression, namespace))
        assert comment == value or comment.startswith(value + ", ")

    def test_missing_subcommand_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_console_script_is_cli_main(self, capsys):
        tomllib = pytest.importorskip("tomllib")  # new in 3.11
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert project["scripts"] == {"tanpoly": "tanpoly.cli:main"}
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "Ttilde", "--rows", "8", "--format", "bfile"),
            ("poly", "--family", "Q", "--n", "7", "--format", "json"),
            ("tan", "--n", "12", "--t", "-3/7", "--method", "all"),
            ("verify", "--suite", "tables", "--json"),
        ],
    )
    def test_output_is_deterministic(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == 0
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("poly", "--family", "P", "--n"),
            ("triangle", "--name", "R", "--rows"),
            ("triangle", "--name", "Rtilde", "--format", "csv", "--rows"),
            ("tan", "--t", "1", "--method", "addition", "--n"),
        ],
        ids=["poly", "triangle", "triangle-csv", "tan"],
    )
    def test_count_past_maxsize_exits_2(self, capsys, argv):
        # itertools.islice takes no index past sys.maxsize
        error = f"error: {argv[-1]} must be at most {sys.maxsize}\n"
        assert run_cli(capsys, *argv, str(sys.maxsize + 1)) == (2, "", error)


# sha256 of the text argparse writes at 80 columns, each --help page on
# stdout and each usage error on stderr, recorded before the commands loaded
# their own layers. argparse rewords and rewraps between patch releases, so
# only the interpreters these were recorded on are checked.
PARSER_TEXT = {
    ("--help",): "a8456387a19c7d5e10a484dc6d31b9e0efbfffaa0b2691c2d14b1778074dd259",
    ("triangle", "--help"): "346b3184663aa434f84fd308eedd05bc7d160a58d285cd6ec0e4c04c785093f7",
    ("poly", "--help"): "c81aeefcdc37d6afe2eab3f3434a2d94740fd00ab96451c9b4a4aa52f8ef2196",
    ("tan", "--help"): "3134e45f39c749bf7e315d19785a27dc17e850aae26fac74b9b14ac98b37e605",
    ("verify", "--help"): "573e3709babec4011f42030d1334d58a564c126da080bbd7b96c4062bb5e6939",
    (): "b2dfd25cec8bd72c28510b22ca25a10c871596d8dca2887ebb805f79cbeaa668",
    ("triangle", "--name", "X", "--rows", "3"): "581a476b303e5093f7ad10201df3c61d4f531fe3ae53ed07efe5edad7f7db056",
    ("poly", "--family", "Z", "--n", "3"): "44bb158577213ffd5673a09df327ecf23a1d99288ac2563659b617576db78d28",
    ("tan", "--n", "3", "--t", "1", "--method", "nope"): "ae66fef99948cdb8c07969725deb64c3af487ad64922a083a0dc4a372260ffa8",
    ("verify", "--suite", "nope"): "068d99eabf2e460b82062e247cb08ae59cfbb09ae1c734b10a4f29373a87497e",
}
PARSER_TEXT_BY_VERSION = {
    (3, 10, 13): PARSER_TEXT,
    (3, 11, 7): PARSER_TEXT,
    (3, 12, 1): PARSER_TEXT,
    (3, 13, 0): {
        **PARSER_TEXT,
        ("verify", "--help"): "76034721c036c2f0b78945cd43a804bb0ad49bc41dec85f10a2511ffc226eb45",
        ("verify", "--suite", "nope"): "9af38acced5c9d8ed128fbe26067a9631c6eebbde8155626f13cf914e6e38651",
    },
    (3, 13, 13): {
        **PARSER_TEXT,
        ("verify", "--help"): "76034721c036c2f0b78945cd43a804bb0ad49bc41dec85f10a2511ffc226eb45",
        ("triangle", "--name", "X", "--rows", "3"): "3e79ce77f4838ad967e4b1a1835183c8d67a06486cbfeada0c3aaba0842a8983",
        ("poly", "--family", "Z", "--n", "3"): "c2b73f77bfed96de8027f6d020be0afde1d4e90b6003eccf4d45f6f9bcbfc270",
        ("tan", "--n", "3", "--t", "1", "--method", "nope"):
            "94ab61b6cc8fe3c0670a0a931c0cb0cfb396f9f70d422c9b2c75cfee2fe05193",
        ("verify", "--suite", "nope"): "21b2c9284fe83255fd4932a753988369204dfac891eb812aaa5814c03f622935",
    },
}


def subcommand_choices(command: str, dest: str) -> tuple:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


class TestParser:
    def test_choices_match_the_registries(self):
        assert subcommand_choices("verify", "suite") == (*verify.SUITE_NAMES, "all")
        assert subcommand_choices("tan", "method") == (*sorted(multiangle.METHODS), "all")
        assert subcommand_choices("triangle", "name") == tuple(sorted(cli._TRIANGLES))
        assert subcommand_choices("poly", "family") == tuple(sorted(cli._FAMILIES))

    @pytest.mark.parametrize("argv", list(PARSER_TEXT), ids=lambda argv: " ".join(argv) or "no-args")
    def test_help_and_usage_text_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, *argv)
        assert code == (0 if "--help" in argv else 2)
        assert (out if code == 0 else err) != ""
        assert (err if code == 0 else out) == ""
        pins = PARSER_TEXT_BY_VERSION.get(sys.version_info[:3])
        if pins is None:
            pytest.skip(f"no argparse text recorded for Python {sys.version.split()[0]}")
        assert hashlib.sha256((out or err).encode()).hexdigest() == pins[argv]

    def test_commands_look_layer_functions_up_when_they_run(self, capsys, monkeypatch):
        monkeypatch.setattr(symbolic, "hoffman_p", lambda n: YPoly({n: 7}))
        assert run_cli(capsys, "poly", "--family", "P", "--n", "5") == (0, "7y^5\n", "")
        monkeypatch.setattr(triangles, "m_row_seq", lambda: iter([(5,), (6, 7)]))
        assert run_cli(capsys, "triangle", "--name", "M", "--rows", "2") == (0, "5\n6 7\n", "")
        monkeypatch.setitem(multiangle.METHODS, "gaussian", lambda n, t: TanValue(Rational(n, 11)))
        assert run_cli(capsys, "tan", "--n", "3", "--t", "1", "--method", "gaussian") == (0, "3/11\n", "")

    def test_traced_poly_records_the_symbolic_span(self, tmp_path):
        spans = tmp_path / "spans.jsonl"
        subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "tracer.py"), str(spans), "poly", "--family", "P", "--n", "5"],
            capture_output=True, check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        names = {(span["layer"], span["name"]) for span in map(json.loads, spans.read_text().splitlines())}
        assert ("symbolic", "hoffman_p") in names


T_VALUES = st.one_of(
    st.sampled_from(
        ["3/7", "-3/7", "3/-7", "+1/+2", " 7/2 ", "1_0/7"]
        + ["", "abc", "1/2/3", "1.5", "1e3", "3/", "/7", "1/0", "nan", "inf"]
    ),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-9, 9)),
)

# counts past sys.maxsize, which every command rejects before it starts
HUGE = st.integers(sys.maxsize + 1, 2**70)


@st.composite
def cli_argv(draw) -> list[str]:
    """Argument vectors for every subcommand: small, invalid or (except for
    verify) huge sizes, every choice."""
    command = draw(st.sampled_from(["triangle", "poly", "tan", "verify"]))
    if command == "triangle":
        rows = draw(st.integers(-2, 8) | HUGE)
        name = draw(st.sampled_from(sorted(cli._TRIANGLES)))
        fmt = draw(st.sampled_from(["table", "bfile", "csv", "json"]))
        return [command, "--name", name, "--rows", str(rows), "--format", fmt]
    if command == "poly":
        n = draw(st.integers(-3, 40) | HUGE)
        family = draw(st.sampled_from(sorted(cli._FAMILIES)))
        fmt = draw(st.sampled_from(["table", "csv", "json"]))
        return [command, "--family", family, "--n", str(n), "--format", fmt]
    if command == "tan":
        n = draw(st.integers(-3, 40) | HUGE)
        t = draw(T_VALUES)
        method = draw(st.sampled_from(sorted(multiangle.METHODS) + ["all"]))
        t_args = draw(st.sampled_from([[f"--t={t}"], ["--t", t]]))
        return [command, "--n", str(n), *t_args, "--method", method]
    max_n = draw(st.integers(-1, 6))
    suite = draw(st.sampled_from(list(verify.SUITE_NAMES) + ["all"]))
    return [command, "--suite", suite, "--max-n", str(max_n)] + draw(st.sampled_from([[], ["--json"]]))


class TestFuzz:
    @settings(deadline=None)
    @given(st.integers(-3, 40), T_VALUES)
    @example(12, "-3/7")
    @example(12, "-9/-9")
    @example(12, "-0/5")
    def test_t_as_its_own_token(self, n, t):
        # argparse reads a token that starts with - as an option unless it
        # looks like -2 or -.5; --t T must read T as --t=T does
        runs = []
        for t_args in (["--t", t], [f"--t={t}"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                runs.append((cli.main(["tan", "--n", str(n), *t_args, "--method", "all"]), out.getvalue()))
        assert runs[0] == runs[1]

    @settings(deadline=None)
    @given(cli_argv())
    def test_exit_code_and_streams(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith(("error:", "usage:"))
        else:
            assert out.getvalue()

    def test_whole_report_digest(self, capsys):
        # Pins every suite's count, pass flag and order at max_n = 60; the
        # README example above shows only the text summary at max_n = 15.
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "60", "--json")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "972dd159d6fbe2f668437cd661f99ba71856739a10b935a637abf6b43b217085"


class TestLargeOutputs:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ("triangle", "--name", "Ttilde", "--rows", "300", "--format", "bfile"),
                "a70775f6134c459b6efcb11d27bec61034cfa9aa0bd1271c4b04d88bee63e987",
                id="Ttilde-300-bfile",
            ),
            pytest.param(
                ("triangle", "--name", "Rtilde", "--rows", "300", "--format", "csv"),
                "8f8efc572024aee79558d9713fddaeb3efb5dd04da1e3d15b06c5879152d182e",
                id="Rtilde-300-csv",
            ),
            pytest.param(
                ("poly", "--family", "R", "--n", "1000", "--format", "json"),
                "41159de76afce7f07236f0a31cce6f5880f121fce218bd62ec741e6272670e41",
                id="R-1000-json",
            ),
            pytest.param(
                ("poly", "--family", "T", "--n", "999"),
                "4412b286e365f285c10654e345fb7fd1584551446721b56ebe5e1ec513bab871",
                id="T-999-table",
            ),
            pytest.param(
                ("triangle", "--name", "Rtilde", "--rows", "300", "--format", "json"),
                "9ec27e4f86bbe1f9bb93bbc8389a335c39576413d79d27df382e3ddfdfcc3c70",
                id="Rtilde-300-json",
            ),
            # the next three are also digests of the benchmark's emit check
            pytest.param(
                ("poly", "--family", "P", "--n", "1500", "--format", "json"),
                "8bc24e96c2b5cfb474202917757c8f65468bf493cbb8031ac032a413ba1a8a1f",
                id="P-1500-json",
            ),
            pytest.param(
                ("poly", "--family", "Q", "--n", "800"),
                "07bf471916a0aad295351a1a460d512c982cd86a0c00744c5825f6cf5fbd0b3b",
                id="Q-800-table",
            ),
            pytest.param(
                ("triangle", "--name", "Rtilde", "--rows", "200", "--format", "bfile"),
                "ec238df576a7cb88e24968b0d3d55a94c0d192f73d428c856954a4463f451c95",
                id="Rtilde-200-bfile",
            ),
            pytest.param(
                ("poly", "--family", "Q", "--n", "801", "--format", "csv"),
                "5afa16b5c77ae6aa067af0ac8c30aa5335cfef865570720720c710cca3af15f2",
                id="Q-801-csv",
            ),
            pytest.param(
                ("triangle", "--name", "Ttilde", "--rows", "301", "--format", "csv"),
                "38c9cf5d5df4a60884b4cc2804ecc0867f88cc16791910675e581e4fa744ff63",
                id="Ttilde-301-csv",
            ),
            pytest.param(
                ("triangle", "--name", "R", "--rows", "3", "--format", "json"),
                "3b4dfb7a91a59041210dc67f3c92303932c34da723ba0feccc994693c6fd8140",
                id="R-3-json",
            ),
            pytest.param(
                ("triangle", "--name", "M", "--rows", "60", "--format", "json"),
                "0b376f43f75d800611dea4af749c9eab008cf565048fbcdeba17778a7202793c",
                id="M-60-json",
            ),
        ],
    )
    def test_large_output_digest(self, capsys, argv, digest):
        # Large P/Q, closed-form R/T and tilde outputs; no other test goes
        # this far.
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    @pytest.mark.parametrize(
        "argv, bound_mb",
        [
            pytest.param(("poly", "--family", "R", "--n", "2000"), 100, id="R-2000"),
            # streamed row by row; a whole-document build peaks at 32 MB
            pytest.param(
                ("triangle", "--name", "Rtilde", "--rows", "300", "--format", "json"), 24, id="Rtilde-300-json"
            ),
            # written term by term; the whole JSON string built first peaks at 26 MB
            pytest.param(("poly", "--family", "P", "--n", "1500", "--format", "json"), 22, id="P-1500-json"),
        ],
    )
    def test_r_family_peak_memory(self, argv, bound_mb):
        # A child's ru_maxrss starts at its parent's RSS when it was spawned,
        # so the run is started and waited for by a small interpreter, not
        # by the test process.
        launcher = (
            "import os, subprocess, sys\n"
            f"argv = [sys.executable, '-m', 'tanpoly', *{list(argv)!r}]\n"
            "pid = subprocess.Popen(argv, stdout=subprocess.DEVNULL).pid\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", launcher], cwd=ROOT, env=env, capture_output=True, check=True
        ).stdout
        code, maxrss = map(int, out.split())
        assert code == 0
        # ru_maxrss is in bytes on macOS and in KiB elsewhere
        peak = maxrss if sys.platform == "darwin" else maxrss * 1024
        assert peak < bound_mb * 2**20


def run_child(argv, **kwargs) -> subprocess.Popen:
    """Start `python -m tanpoly argv` on this checkout, with stderr piped. Use
    it as a context manager, which closes the child's pipes and waits for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "tanpoly", *argv], cwd=ROOT, env=env, stderr=subprocess.PIPE, **kwargs
    )


@pytest.mark.skipif(os.name != "posix", reason="POSIX pipes, /dev/full and fd 1")
class TestWriteFailures:
    """A write that fails ends the run with its own exit code, never a traceback."""

    @staticmethod
    def reader_goes_after_one_byte(argv):
        """Start argv with its stdout on a pipe, read one byte and close the pipe;
        return the exit code and stderr."""
        with run_child(argv, stdout=subprocess.PIPE) as child:
            assert len(child.stdout.read(1)) == 1
            child.stdout.close()
            err = child.stderr.read()
            return child.wait(timeout=120), err

    def test_broken_pipe_exits_141_silently(self):
        # megabytes of output: the writer is still writing when the reader goes
        argv = ("triangle", "--name", "Rtilde", "--rows", "1000")
        assert self.reader_goes_after_one_byte(argv) == (141, b"")

    def test_broken_pipe_mid_poly_exits_141_silently(self):
        # P_1500 is written term by term, about 3 MB after the first byte
        argv = ("poly", "--family", "P", "--n", "1500", "--format", "json")
        assert self.reader_goes_after_one_byte(argv) == (141, b"")

    def test_help_to_a_pipe_without_reader_exits_141_silently(self):
        # the read end is closed before the child starts, so its first write fails
        read, write = os.pipe()
        os.close(read)
        try:
            child = run_child(("--help",), stdout=write)
        finally:
            os.close(write)
        with child:
            err = child.stderr.read()
            assert child.wait(timeout=120) == 141
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ("tan", "--n", "3", "--t", "1"),
            ("triangle", "--name", "Rtilde", "--rows", "300", "--format", "json"),
            ("--help",),
            ("verify", "--help"),
            ("poly", "--family", "P", "--n", "1500", "--format", "json"),
            ("verify", "--suite", "all", "--max-n", "30"),
        ],
    )
    def test_full_device_exits_74(self, argv):
        with open("/dev/full", "wb") as full, run_child(argv, stdout=full) as child:
            err = child.stderr.read().decode()
            assert child.wait(timeout=120) == 74
        assert err == "error: cannot write output: No space left on device\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("tan", "--n", "3", "--t", "1"),
            ("triangle", "--name", "M", "--rows", "3", "--format", "json"),
            ("--help",),
        ],
    )
    def test_closed_stdout_exits_74(self, argv):
        with run_child(argv, preexec_fn=lambda: os.close(1)) as child:
            err = child.stderr.read().decode()
            assert child.wait(timeout=120) == 74
        assert err == "error: cannot write output: stdout is closed\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX fds and /dev/full")
class TestClosedOrFailingStderr:
    """With stderr closed (fd 2 shut before the interpreter starts) or failing
    (/dev/full), buffered or not, each exit code stays as it is and nothing
    extra reaches stdout."""

    HELP = object()  # stands for the text of --help
    CASES = {
        "argparse-error": (("triangle", "--name", "R", "--rows", "abc"), 2, b""),
        "usage-error": (("triangle", "--name", "R", "--rows", "0"), 2, b""),
        "stdout-full": (("tan", "--n", "3", "--t", "1"), 74, None),
        "success": (("tan", "--n", "3", "--t", "1"), 0, b"beeler: -1\naddition: -1\ngaussian: -1\nagree: yes\n"),
        "help": (("--help",), 0, HELP),
        "help-stdout-full": (("--help",), 74, None),
    }

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("how", ["closed", "failing"])
    def test_exit_code_and_stdout(self, monkeypatch, how, case, unbuffered):
        argv, want_code, want_out = self.CASES[case]
        needs_full = how == "failing" or want_out is None
        if needs_full and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        # argparse sizes help to COLUMNS; the child and this process read the same
        monkeypatch.setenv("COLUMNS", "80")
        if want_out is self.HELP:
            want_out = cli.build_parser().format_help().encode()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full" if needs_full else os.devnull, "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "tanpoly", *argv], cwd=ROOT, env=env, timeout=120,
                stdout=full if want_out is None else subprocess.PIPE,
                stderr=full if how == "failing" else None,
                preexec_fn=(lambda: os.close(2)) if how == "closed" else None,
            )
        assert result.returncode == want_code
        if want_out is not None:
            assert result.stdout == want_out
