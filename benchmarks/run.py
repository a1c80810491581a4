"""Benchmark harness for the tanpoly CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `python -m tanpoly ...` invocations one at a time,
each in a fresh interpreter (closed loop, one client, no warm-up), pass
after pass for about S seconds, and checks every output. With --trace 0
it reports the end-to-end metrics, with times scaled by the host speed
that benchmarks/calibrate.py measures between invocations; with --trace 1
it alternates untraced passes with passes run under benchmarks/tracer.py
and reports the per-layer metrics. The last line of stdout is one JSON
object; a record with sizes and environment goes to benchmarks/results/.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracer import LAYERS
from workloads import VERIFY_SUITES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
TRACER = BENCH / "tracer.py"
CALIBRATE = BENCH / "calibrate.py"
CALIBRATE_OUTPUT = b"701 701 130530 937620\n"
# Wall time of calibrate.py on the host the benchmark was tuned on (2 vCPU
# Xeon, Python 3.11). Scaled times are in seconds of a host that runs the
# calibration in this time.
CALIBRATE_REF_S = 0.5
# Without tracing, a calibration follows any invocation that brings the
# workload time since the last calibration to this many seconds or more.
CALIBRATE_EVERY_S = 1.0
SETUP_CODE = "import tanpoly.cli; tanpoly.cli.build_parser()"
SETUP_GROUPS, SETUP_PER_GROUP = 3, 5
MIN_PASSES = 3
# Every invocation is killed once the run is this old, so a run always ends.
HARD_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.main.s": "s", "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    **{f"verify.{suite}.s": "s" for suite in VERIFY_SUITES},
    "verify.checked": "count", "verify.self_s": "s",
    "symbolic.YPoly.mul.calls": "count", "symbolic.YPoly.mul.s": "s",
    "symbolic.YZPoly.mul.calls": "count", "symbolic.YZPoly.mul.s": "s",
    "symbolic.diff.calls": "count", "symbolic.diff.s": "s",
    "symbolic.apply_dz.calls": "count",
    "symbolic.reduce_z.calls": "count", "symbolic.reduce_z.s": "s",
    "symbolic.hoffman_p.s": "s", "symbolic.hoffman_q.s": "s",
    "symbolic.r_poly_closed.s": "s", "symbolic.t_poly_closed.s": "s",
    "symbolic.r_poly_dz.s": "s", "symbolic.t_poly_dz.s": "s",
    "symbolic.self_s": "s", "symbolic.max_coef_bits": "bits",
    "triangles.tilde_r_row.s": "s", "triangles.tilde_t_row.s": "s", "triangles.m_row.s": "s",
    "triangles.m_closed.calls": "count", "triangles.r_coef.calls": "count", "triangles.self_s": "s",
    "multiangle.tan_beeler.s": "s", "multiangle.tan_addition.s": "s",
    "multiangle.tan_gaussian.s": "s", "multiangle.self_s": "s",
    "exact.Rational.new.calls": "count", "exact.GaussianInt.pow.s": "s", "exact.self_s": "s",
    "trace.spans": "count", "trace.overhead_frac": "frac",
}


class Run:
    """One benchmark run: the child environment, its deadline and its tallies."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.seconds = seconds
        self.calls = WORKLOADS[workload](random.Random(seed))
        self.start = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.errors: list[str] = []
        self.invocations: list[dict] = []
        self.calibrations: list[dict] = []
        self.calibrating = False
        self.since_calibration = 0.0

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def spawn(self, cmd: list[str]) -> tuple[float, float, int, int, bytes, bytes]:
        """Run cmd to completion: wall s, cpu s, max RSS KiB, exit code, stdout, stderr."""
        with open(RESULTS / "stderr.txt", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(max(1.0, HARD_LIMIT_S - self.elapsed()), proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
            finally:
                killer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out, err.read()

    def calibrate(self) -> None:
        """Run calibrate.py once and record its wall and cpu seconds."""
        wall, cpu, _, code, out, err = self.spawn([sys.executable, str(CALIBRATE)])
        if code != 0 or out != CALIBRATE_OUTPUT:
            sys.exit(f"calibration failed with exit code {code}: {out[:80]!r} {err.decode(errors='replace')[-400:]}")
        self.calibrations.append({"wall_s": wall, "cpu_s": cpu})
        self.since_calibration = 0.0

    def measure_setup(self) -> tuple[float, float]:
        """Median wall time, scaled and raw, of a fresh interpreter that imports the CLI and builds its parser.

        Groups of samples alternate with calibrations, which scale the median.
        """
        first = len(self.calibrations)
        samples = []
        self.calibrate()
        for _ in range(SETUP_GROUPS):
            for _ in range(SETUP_PER_GROUP):
                wall, _, _, code, _, err = self.spawn([sys.executable, "-c", SETUP_CODE])
                if code != 0:
                    sys.exit(f"set-up failed with exit code {code}: {err.decode(errors='replace')[-400:]}")
                samples.append(wall)
            self.calibrate()
        raw = statistics.median(samples)
        return scaled(raw, self.calibrations[first:]), raw

    def run_pass(self, traced: bool) -> dict:
        """All of the workload's invocations in sequence; returns the pass totals."""
        totals = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "stdout_bytes": 0, "spans": []}
        for i, (argv, check) in enumerate(self.calls):
            spans = RESULTS / f"spans-{i}.jsonl"
            prefix = [str(TRACER), str(spans)] if traced else ["-m", "tanpoly"]
            wall, cpu, rss_kib, code, out, err = self.spawn([sys.executable, *prefix, *argv])
            totals["wall_s"] += wall
            totals["cpu_s"] += cpu
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], rss_kib / 1024)
            totals["stdout_bytes"] += len(out)
            self.attempted += 1
            problem = f"exit code {code}: {err.decode(errors='replace')[-300:]}" if code else check(out)
            if traced and problem is None:
                problem = _read_spans(spans, totals["spans"])
            if problem:
                self.errors.append(f"{' '.join(argv)}: {problem}")
            self.invocations.append({
                "argv": list(argv), "n": _size_arg(argv), "traced": traced, "exit_code": code,
                "stdout_bytes": len(out), "max_digits": max(map(len, re.findall(rb"\d+", out)), default=0),
                "wall_s": wall, "ok": problem is None,
            })
            if self.calibrating:
                self.since_calibration += wall
                if self.since_calibration >= CALIBRATE_EVERY_S:
                    self.calibrate()
        return totals

    def passes(self, traced_too: bool) -> tuple[list[dict], list[dict], list[dict]]:
        """Run passes until the time is spent; traced ones alternate with untraced ones.

        Returns the untraced and the traced passes, and the calibrations made
        among them: when nothing is traced, one before the first pass and
        one after any invocation that brings the workload time since the
        last to CALIBRATE_EVERY_S, and one at the end.
        """
        plain, traced = [], []
        begin = perf_counter()
        first = len(self.calibrations)
        self.calibrating = not traced_too
        if self.calibrating:
            self.calibrate()
        while True:
            plain.append(self.run_pass(traced=False))
            if traced_too:
                traced.append(self.run_pass(traced=True))
            if self.elapsed() > HARD_LIMIT_S:
                break
            if len(plain) >= MIN_PASSES:
                per_round = (perf_counter() - begin) / len(plain)
                if self.elapsed() + per_round > self.seconds:
                    break
        if self.calibrating and self.since_calibration:
            self.calibrate()
        self.calibrating = False
        return plain, traced, self.calibrations[first:]


def scaled(seconds: float, calibrations: list[dict], key: str = "wall_s") -> float:
    """seconds × CALIBRATE_REF_S ÷ the mean calibration time."""
    return seconds * CALIBRATE_REF_S / statistics.mean(c[key] for c in calibrations)


def _size_arg(argv) -> int | None:
    for flag in ("--n", "--rows", "--max-n"):
        if flag in argv:
            return int(argv[argv.index(flag) + 1])
    return None


def _read_spans(path: Path, into: list) -> str | None:
    """Append one invocation's spans to `into` if they form one tree under cli.main."""
    with open(path, encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    roots = [(s["layer"], s["name"]) for s in spans if s["parent"] == 0]
    if roots != [("cli", "main")] or any(s["parent"] > len(spans) for s in spans):
        return f"spans do not form one tree under cli.main: roots {roots}"
    into.append(spans)
    return None


def layer_metrics(invocations: list[list[dict]], stdout_bytes: int) -> dict[str, float]:
    """Per-layer totals over the invocations of one traced pass.

    Inclusive `.s` counts only spans with no enclosing span of the same name,
    so recursion is not counted twice; self time is a span's duration minus
    its child spans' durations, summed per layer.
    """
    ns: dict[str, int] = defaultdict(int)
    values: dict[str, float] = defaultdict(int)
    for spans in invocations:
        dur = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
        child = defaultdict(int)
        for s in spans:
            child[s["parent"]] += dur[s["id"]]
        for s in spans:
            key = f"{s['layer']}.{s['name']}"
            ns[f"{s['layer']}.self_s"] += dur[s["id"]] - child[s["id"]]
            values[f"{key}.calls"] += 1
            if not s["nested"]:
                ns[f"{key}.s"] += dur[s["id"]]
            attrs = s.get("attrs") or {}
            if "coef_bits" in attrs:
                values["symbolic.max_coef_bits"] = max(values["symbolic.max_coef_bits"], attrs["coef_bits"])
            values["verify.checked"] += attrs.get("checked", 0)
        values["trace.spans"] += len(spans)
    self_total = sum(ns[f"{layer}.self_s"] for layer in LAYERS)
    if self_total != ns["cli.main.s"]:
        raise RuntimeError(f"layer self times {self_total} ns != cli.main {ns['cli.main.s']} ns")
    values.update({key: v / 1e9 for key, v in ns.items()})
    values["cli.stdout_bytes"] = stdout_bytes
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "tanpoly" / "cli.py").is_file():
        print(f"error: no tanpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds)

    if args.trace:
        plain, traced, _ = run.passes(traced_too=True)
        # Every per-layer number comes from one traced pass, the one with the
        # median cli.main time, so the layer self times add up to cli.main.s.
        per_pass = sorted((layer_metrics(p["spans"], p["stdout_bytes"]) for p in traced),
                          key=lambda m: m.get("cli.main.s", 0))
        metrics = {name: per_pass[(len(per_pass) - 1) // 2].get(name, 0) for name in PER_LAYER}
        metrics["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                          / statistics.median(p["wall_s"] for p in plain) - 1)
        units = PER_LAYER
        raw = {}
    else:
        setup, raw_setup = run.measure_setup()
        plain, traced, calibrations = run.passes(traced_too=False)
        # Mean pass time over mean calibration time: both sample the host's
        # speed across the same stretch of the run, so its swings cancel.
        raw = {name: statistics.mean(p[name] for p in plain) for name in ("wall_s", "cpu_s")}
        metrics = {name: scaled(raw[name], calibrations, name) for name in raw}
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        metrics["setup_s"] = setup
        raw["setup_s"] = raw_setup
        units = END_TO_END

    failed = len(run.errors)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain), "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in plain], "pass_cpu_s": [p["cpu_s"] for p in plain],
        "calibrations": run.calibrations, "calibrate_ref_s": CALIBRATE_REF_S, "unscaled": raw,
        "attempted": run.attempted, "failed": failed, "fail_frac": failed / run.attempted,
        "errors": run.errors, "metrics": metrics, "invocations": run.invocations,
    }
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for error in run.errors:
        print(f"FAIL {error}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes, {len(traced)} traced, "
          f"python {record['python']}, nproc {record['nproc']}")
    for name in units:
        unscaled = f" (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{unscaled}")
    print(f"fail_frac {record['fail_frac']:.6g} frac ({failed}/{run.attempted})")
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
