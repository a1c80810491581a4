"""The benchmark tracer runs the CLI unchanged and records one span tree.

benchmarks/tracer.py wraps the package's public functions and a few
methods (among them Rational.__init__) from outside. These tests run it
as a subprocess and check only its contract: same exit code and stdout as
a plain run, and well-formed spans under one cli.main root. Span names
below the root are left to the tracer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tan", "--n", "7", "--t", "3/7", "--method", "all"],
        ["verify", "--suite", "all", "--max-n", "4"],
        ["poly", "--family", "P", "--n", "5"],
    ],
)
def test_traced_run_matches_plain_run(tmp_path, argv):
    spans_path = tmp_path / "spans.jsonl"
    traced = run([str(ROOT / "benchmarks" / "tracer.py"), str(spans_path), *argv])
    plain = run(["-m", "tanpoly", *argv])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert spans
    roots = [span for span in spans if span["parent"] == 0]
    assert [(root["layer"], root["name"]) for root in roots] == [("cli", "main")]
    seen = set()
    for span in spans:
        assert span["parent"] == 0 or span["parent"] in seen
        seen.add(span["id"])
