"""Acceptance suite: one test per criterion, run at the stated tolerance.

Every criterion is exact (zero tolerance) except the float sanity bridge,
which is bounded by 1e-9. Each test prints one pass/fail line including
its wall-clock time against the stated budget; run with -s to see the
lines as they go.
"""

from __future__ import annotations

import json
import random
import time
from itertools import count
from operator import itemgetter

from tanpoly import cli
from tanpoly.exact import Rational
from tanpoly.multiangle import tan_addition, tan_beeler, tan_float_check, tan_gaussian
from tanpoly.symbolic import (
    YPoly,
    YZPoly,
    diff,
    dz_iter,
    hoffman_p,
    hoffman_q,
    r_poly_closed,
    r_poly_dz,
    reduce_z,
    reduced_diff,
    t_poly_closed,
    t_poly_dz,
)
from tanpoly.triangles import (
    binom,
    m_closed,
    m_row,
    m_row_seq,
    n_closed,
    n_row,
    n_row_seq,
    r_coef,
    r_row,
    t_coef,
    t_row,
    tilde_rows,
)

GOLDEN_RTILDE = [[1], [1, 2], [1, 5, 4], [1, 9, 16, 8], [1, 14, 41, 44, 16]]
GOLDEN_TTILDE = [[1], [2, 2], [3, 7, 4], [4, 16, 20, 8], [5, 30, 61, 52, 16]]

LISTED_R = {1: {0: 1}, 2: {1: 2, 3: 2}, 3: {0: 1, 2: 5, 4: 4}, 4: {1: 4, 3: 16, 5: 20, 7: 8}}
LISTED_T = {1: {1: 1}, 2: {0: 1, 2: 2}, 3: {1: 3, 3: 7, 5: 4}, 4: {0: 1, 2: 9, 4: 16, 6: 8}}

GRID = (
    Rational(0),
    Rational(1), Rational(-1),
    Rational(1, 2), Rational(-1, 2),
    Rational(2), Rational(-2),
    Rational(1, 3), Rational(-1, 3),
    Rational(3, 7), Rational(-3, 7),
    Rational(7, 2), Rational(-7, 2),
)


def _finish(num: int, label: str, budget: float, start: float, failures: list) -> None:
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget
    print(f"acceptance {num:2d} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.3f}s / {budget:.0f}s]")
    assert not failures, f"criterion {num}: first failures {failures[:5]}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.3f}s over budget {budget}s"


def test_criterion_01_golden_tables():
    start = time.perf_counter()
    failures = []
    for n, (r_row, t_row) in zip(range(1, 6), tilde_rows()):
        if list(r_row) != GOLDEN_RTILDE[n - 1]:
            failures.append(("Rtilde", n, r_row))
        if list(t_row) != GOLDEN_TTILDE[n - 1]:
            failures.append(("Ttilde", n, t_row))
    _finish(1, "golden tilde tables rows 1-5", 1.0, start, failures)


def test_criterion_02_listed_polynomials():
    start = time.perf_counter()
    failures = []
    for n in range(1, 5):
        for label, got in (
            ("R closed", r_poly_closed(n)),
            ("R operator", r_poly_dz(n)),
        ):
            if got != YPoly(LISTED_R[n]):
                failures.append((label, n, got.terms()))
        for label, got in (
            ("T closed", t_poly_closed(n)),
            ("T operator", t_poly_dz(n)),
        ):
            if got != YPoly(LISTED_T[n]):
                failures.append((label, n, got.terms()))
    _finish(2, "listed R_1..R_4 and T_1..T_4, both routes", 1.0, start, failures)


def test_criterion_03_factorial_closed_forms():
    start = time.perf_counter()
    failures = []
    for n, rec_m, rec_n in zip(range(26), m_row_seq(), n_row_seq()):
        for k in range(n // 2 + 1):
            if rec_m[k] != m_closed(n, k):
                failures.append(("M", n, k, rec_m[k], m_closed(n, k)))
        for k in range((n + 1) // 2 + 1):  # N's wider index range
            if rec_n[k] != n_closed(n, k):
                failures.append(("N", n, k, rec_n[k], n_closed(n, k)))
    _finish(3, "M/N recurrences equal n!*binomial closed forms, n<=25", 1.0, start, failures)


def test_criterion_04_expansion_structure():
    start = time.perf_counter()
    failures = []
    p = YZPoly.z()
    q = YZPoly.y()
    for n in range(16):
        want_m = {(n - 2 * k, n + 2 * k + 1): m_closed(n, k) for k in range(n // 2 + 1)}
        if dict(p.terms()) != want_m:
            failures.append(("M", n))
        want_n = {(n - 2 * k + 1, n + 2 * k): n_closed(n, k) for k in range((n + 1) // 2 + 1)}
        if dict(q.terms()) != want_n:
            failures.append(("N", n))
        p = dz_iter(1, p)
        q = dz_iter(1, q)
    _finish(4, "operator iterates carry exactly the M/N monomials, n<=15", 5.0, start, failures)


def test_criterion_05_hoffman_consistency():
    start = time.perf_counter()
    failures = []
    dy = YZPoly.y()
    dz = YZPoly.z()
    for n in range(16):
        pair = reduce_z(dy)
        if pair.f != hoffman_p(n) or pair.g:
            failures.append(("P", n))
        pair = reduce_z(dz)
        if pair.g != hoffman_q(n) or pair.f:
            failures.append(("Q", n))
        dy = diff(dy)
        dz = diff(dz)
    _finish(5, "n-th derivatives reduce to (P_n, 0) and (0, Q_n), n<=15", 5.0, start, failures)


def test_criterion_06_quotient_well_definedness():
    start = time.perf_counter()
    failures = []
    rng = random.Random(56242)
    nonzero = [c for c in range(-9, 10) if c]
    for i in range(200):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[(rng.randint(0, 6), rng.randint(0, 6))] = rng.choice(nonzero)
        p = YZPoly(terms)
        if reduce_z(diff(p)) != reduced_diff(reduce_z(p)):
            failures.append((i, terms))
    _finish(6, "reduce o diff == reduced_diff o reduce on 200 random inputs", 1.0, start, failures)


def test_criterion_07_triple_agreement():
    start = time.perf_counter()
    failures = []
    for n in range(21):
        for t in GRID:
            a = tan_beeler(n, t)
            b = tan_addition(n, t)
            c = tan_gaussian(n, t)
            if not (a == b == c):
                failures.append((n, str(t), str(a), str(b), str(c)))
    _finish(7, "three tan routes agree on the 13-point grid, n<=20", 1.0, start, failures)


def test_criterion_08_rt_recurrences():
    start = time.perf_counter()
    failures = []
    for n in range(1, 26):
        for k in range((n + 1) // 2 + 2):
            lhs = n * r_coef(n + 1, k)
            rhs = (n + 2 * k + 1) * r_coef(n, k) + (n - 2 * k + 1) * r_coef(n, k - 1)
            if lhs != rhs:
                failures.append(("R", n, k, lhs, rhs))
            lhs = n * t_coef(n + 1, k)
            rhs = (n + 2 * k) * t_coef(n, k) + (n - 2 * k + 2) * t_coef(n, k - 1)
            if lhs != rhs:
                failures.append(("T", n, k, lhs, rhs))
    _finish(8, "R/T binomial recurrences hold exactly, n<=25", 1.0, start, failures)


def test_criterion_09_float_sanity():
    start = time.perf_counter()
    failures = []
    for n in (2, 3, 5, 7):
        for t in (Rational(1, 3), Rational(1, 7), Rational(2, 9)):
            gap = tan_float_check(n, t)
            if gap is None or gap >= 1e-9:
                failures.append((n, str(t), gap))
    _finish(9, "float bridge within 1e-9 on the sample points", 1.0, start, failures)


def test_criterion_10_cli_contract(capsys):
    start = time.perf_counter()
    failures = []

    code = cli.main(["verify", "--suite", "all", "--max-n", "12"])
    capsys.readouterr()
    if code != 0:
        failures.append(("verify all exit code", code))

    row_sources = {
        "R": (map(r_row, count(0)), 0),
        "T": (map(t_row, count(0)), 0),
        "M": (map(m_row, count(0)), 0),
        "N": (map(n_row, count(0)), 0),
        "Rtilde": (map(itemgetter(0), tilde_rows()), 1),
        "Ttilde": (map(itemgetter(1), tilde_rows()), 1),
    }
    for name, (rows, first) in row_sources.items():
        code = cli.main(["triangle", "--name", name, "--rows", "10", "--format", "bfile"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append((name, "exit code", code))
            continue
        values = []
        for i, line in enumerate(out.splitlines(), start=1):
            index_text, value_text = line.split(" ")
            if int(index_text) != i:
                failures.append((name, "bfile index", i, line))
            values.append(int(value_text))
        pos = 0
        for n, row in zip(range(first, first + 10), rows):
            if values[pos : pos + len(row)] != list(row):
                failures.append((name, "row", n))
            pos += len(row)
        if pos != len(values):
            failures.append((name, "length", pos, len(values)))

    # sanity: binom feeding the whole chain is still exact at depth
    if binom(30, 15) != 155117520:
        failures.append(("binom(30,15)", binom(30, 15)))

    _finish(10, "CLI verify-all exits 0 and bfile round-trips all triangles", 10.0, start, failures)


def test_acceptance_report_is_json_clean(capsys):
    # not a numbered criterion: the machine-readable report must parse and pass
    code = cli.main(["verify", "--suite", "all", "--max-n", "12", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["reports"]) == 7
