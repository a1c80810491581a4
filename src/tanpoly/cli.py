"""Command-line interface.

Subcommands: triangle (emit rows of one of the six triangles), poly (emit
one polynomial from the R/T/P/Q families), tan (evaluate tan(n*x) exactly
from t = tan(x)), verify (run the identity suites). Each is a generator
_cmd_* that yields its text a row, term or suite at a time, as it is made,
and returns the exit code; _run alone writes each piece as it is drawn.

A command imports its layers when it runs and looks their functions up
through the module, so parsing and --help load none. tan loads exact and
multiangle; poly loads symbolic, with triangles under it; triangle loads
triangles alone, which makes the rows of all six; verify loads all five;
json is loaded only for verify --json. The --method and --suite choices
are literals, in the order of sorted(multiangle.METHODS) and
verify.SUITE_NAMES.

Exit codes: 0 success or all checks pass, 1 verification disagreement, 2
usage error, 74 output not written, 141 broken pipe (silent, as with
SIGPIPE). With stderr closed or failing the codes are the same and
nothing extra reaches stdout; _fail writes every error line, and
argparse's help and usage messages go through the same writers. Output for
fixed arguments is byte-identical across runs; every number is printed
as an exact decimal string, and poly converts big coefficients by halves
(symbolic._digits). The bfile format is one "index value" pair per line
with a single space, indices starting at 1, triangles flattened row by row
from the left.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from collections.abc import Generator
from itertools import count, islice

_TRIANGLES = {
    # name: (rows from the first row on given the triangles module, first row index, row cap)
    "R": (lambda tri: map(tri.r_row, count(0)), 0, None),
    "T": (lambda tri: map(tri.t_row, count(0)), 0, None),
    "M": (lambda tri: tri.m_row_seq(), 0, 60),
    "N": (lambda tri: tri.n_row_seq(), 0, 60),
    "Rtilde": (lambda tri: map(operator.itemgetter(0), tri.tilde_rows()), 1, None),
    "Ttilde": (lambda tri: map(operator.itemgetter(1), tri.tilde_rows()), 1, None),
}

_FAMILIES = {
    # family: (name of the polynomial function in symbolic, smallest valid index)
    "R": ("r_poly_closed", 1),
    "T": ("t_poly_closed", 1),
    "P": ("hoffman_p", 0),
    "Q": ("hoffman_q", 0),
}


def _fail(code: int, message: str) -> int:
    """Write the one error line for code; a closed or failing stderr leaves
    the code and stdout as they are."""
    _flush(sys.stderr, f"error: {message}\n")
    return code


def _flush(stream, text: str = "") -> None:
    """Write text to stream and flush it. If that fails, point the stream's fd
    at os.devnull, or the flush at interpreter exit fails on the same bytes."""
    try:
        print(text, end="", file=stream, flush=True)
    except OSError:
        if stream is sys.__stdout__ or stream is sys.__stderr__:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())


def _cmd_triangle(args: argparse.Namespace) -> Generator[str, None, int]:
    from . import triangles
    rows_fn, first, cap = _TRIANGLES[args.name]
    if args.rows < 1:
        return _fail(2, "--rows must be at least 1")
    if cap is not None and args.rows > cap:
        return _fail(2, f"--rows is capped at {cap} for {args.name}")
    if args.rows > sys.maxsize:
        return _fail(2, f"--rows must be at most {sys.maxsize}")
    rows = islice(rows_fn(triangles), args.rows)
    if args.format == "json":  # json.dumps text: the name is an ASCII choice and each value an int string
        yield f'{{"name": "{args.name}", "first_row": {first}, "rows": ['
        for i, row in enumerate(rows):
            yield (", " if i else "") + "[" + ", ".join(f'"{v}"' for v in row) + "]"
        yield "]}\n"
    elif args.format == "bfile":
        index = count(1)  # zip(row, index): zip(index, row) skips one at each row end
        for row in rows:
            yield "".join(f"{i} {v}\n" for v, i in zip(row, index))
        if next(index) == 1:  # R --rows 1 has no values and prints one empty line
            yield "\n"
    else:
        sep = " " if args.format == "table" else ","
        for row in rows:
            yield sep.join(map(str, row)) + "\n"
    return 0


def _cmd_poly(args: argparse.Namespace) -> Generator[str, None, int]:
    from . import symbolic
    poly_name, min_n = _FAMILIES[args.family]
    if args.n < min_n:
        return _fail(2, f"--n must be at least {min_n} for family {args.family}")
    if args.n > sys.maxsize:
        return _fail(2, f"--n must be at most {sys.maxsize}")
    poly, digits = getattr(symbolic, poly_name)(args.n), symbolic._digits
    if args.format == "table":
        yield from poly._pieces()
    elif args.format == "csv":
        for i, (a, c) in enumerate(poly.terms()):
            yield ("\n" if i else "") + f"{a},{digits(c)}"
    else:  # json.dumps([[a, str(c)], ...])
        yield "["
        for i, (a, c) in enumerate(poly.terms()):
            yield (", " if i else "") + f'[{a}, "{digits(c)}"]'
        yield "]"
    yield "\n"
    return 0


def _cmd_tan(args: argparse.Namespace) -> Generator[str, None, int]:
    from . import multiangle
    from .exact import Rational
    if args.n < 0:
        return _fail(2, "--n must be nonnegative")
    if args.n > sys.maxsize:
        return _fail(2, f"--n must be at most {sys.maxsize}")
    try:
        t = Rational.parse(args.t)
    except (ValueError, ZeroDivisionError):
        return _fail(2, f"--t must be an exact rational like 3/7, got {args.t!r}")
    if args.method != "all":
        yield f"{multiangle.METHODS[args.method](args.n, t)}\n"
        return 0
    values = {name: fn(args.n, t) for name, fn in multiangle.METHODS.items()}
    for name, value in values.items():
        yield f"{name}: {value}\n"
    agree = len(set(values.values())) == 1
    yield f"agree: {'yes' if agree else 'no'}\n"
    return 0 if agree else 1


def _cmd_verify(args: argparse.Namespace) -> Generator[str, None, int]:
    from . import verify
    if args.max_n < 1:
        return _fail(2, "--max-n must be at least 1")
    reports = []
    for name in verify.SUITE_NAMES if args.suite == "all" else (args.suite,):
        report = verify.run_suite(name, args.max_n)
        reports.append(report)
        if not args.json:
            counts = "" if report.passed else f", failures {len(report.failures)}"
            yield f"{report.suite}: {'pass' if report.passed else 'FAIL'} (checked {report.checked}{counts})\n"
            for record in report.failures:
                yield "  " + " ".join(f"{key}={value}" for key, value in record.items()) + "\n"
    all_pass = all(report.passed for report in reports)
    if args.json:
        import json
        docs = [
            {"suite": r.suite, "checked": r.checked, "pass": r.passed, "failures": r.failures, "notes": r.notes}
            for r in reports
        ]
        yield json.dumps({"pass": all_pass, "reports": docs}, indent=2) + "\n"
    return 0 if all_pass else 1


class _Parser(argparse.ArgumentParser):
    """argparse with its output on cli's writers. Messages for stderr go
    through _flush, so a failing stderr leaves the exit code as it is; help
    and usage for stdout are written and flushed here, so a failing stdout
    leaves parse_args as OSError and main turns it into 74 or 141. Subparsers
    are made with the parser's own class."""

    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stderr:
            _flush(file, message)
        elif file is None:  # sys.stdout, as in _run
            raise OSError("stdout is closed")
        else:
            print(message, end="", file=file, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tanpoly",
        description="Exact tangent multiple-angle triangles, polynomial families, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="emit rows of one coefficient triangle")
    p_tri.add_argument("--name", required=True, choices=sorted(_TRIANGLES))
    p_tri.add_argument("--rows", required=True, type=int, help="number of rows to emit")
    p_tri.add_argument("--format", default="table", choices=["table", "bfile", "csv", "json"])
    p_tri.set_defaults(func=_cmd_triangle)

    p_poly = sub.add_parser("poly", help="emit one polynomial from a family")
    p_poly.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p_poly.add_argument("--n", required=True, type=int, help="index within the family")
    p_poly.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p_poly.set_defaults(func=_cmd_poly)

    p_tan = sub.add_parser("tan", help="evaluate tan(n*x) exactly from t = tan(x)")
    p_tan.add_argument("--n", required=True, type=int)
    p_tan.add_argument("--t", required=True, help="rational value of tan(x), e.g. 3/7 or -2")
    p_tan.add_argument("--method", default="all", choices=("addition", "beeler", "gaussian", "all"))
    p_tan.set_defaults(func=_cmd_tan)

    p_ver = sub.add_parser("verify", help="run identity verification suites")
    suites = ("rt-recurrences", "corollary", "dz-expansion", "hoffman", "theorem2", "tables", "beeler", "all")
    p_ver.add_argument("--suite", required=True, choices=suites)
    p_ver.add_argument("--max-n", type=int, default=12)
    p_ver.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # fd 2 was closed when the interpreter started
        sys.stderr = open(os.devnull, "w")
    try:
        code = _run(argv)
    except BrokenPipeError:
        code = 141
    except OSError as exc:
        code = _fail(74, f"cannot write output: {exc.strerror or exc}")
    _flush(sys.stdout)
    return code


def _run(argv: list[str] | None) -> int:
    """Parse argv and run its command; a closed or failing stdout raises OSError."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; keep main()
        # returning an int so callers and tests never see SystemExit.
        return exc.code
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError("stdout is closed")
    # Every number is printed in full, past the int -> str digit limit (4300
    # by default, none before 3.10.7, where it reads as 0); lift it meanwhile.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    command = args.func(args)
    try:
        while True:
            sys.stdout.write(next(command))
    except StopIteration as done:
        code = done.value
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
