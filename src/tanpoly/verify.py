"""Suite registry and golden rows for the verification command.

The embedded rows are the first five rows of A056242 (k-part
order-consecutive partition counts) and of A210753. They are test data,
not inputs: the triangles are always computed from the polynomial
families, and this suite checks the computation against the published
rows verbatim.
"""

from __future__ import annotations

from typing import Callable

from . import multiangle, symbolic, triangles
from .report import VerifyReport, failure

RTILDE_GOLDEN: tuple[tuple[int, ...], ...] = (
    (1,),
    (1, 2),
    (1, 5, 4),
    (1, 9, 16, 8),
    (1, 14, 41, 44, 16),
)

TTILDE_GOLDEN: tuple[tuple[int, ...], ...] = (
    (1,),
    (2, 2),
    (3, 7, 4),
    (4, 16, 20, 8),
    (5, 30, 61, 52, 16),
)


def verify_tables(max_n: int = 5) -> VerifyReport:
    """Compare computed Rtilde/Ttilde rows with the golden rows.

    Golden data covers rows 1..5; larger max_n checks the same five rows
    per family (rows beyond 5 are covered by the cross-method suites).
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    rows = min(max_n, len(RTILDE_GOLDEN))
    failures = []
    checked = 0
    for n in range(1, rows + 1):
        checked += 1
        got = symbolic.tilde_r_row(n)
        want = list(RTILDE_GOLDEN[n - 1])
        if got != want:
            failures.append(failure(family="Rtilde", n=n, got=got, want=want))
        checked += 1
        got = symbolic.tilde_t_row(n)
        want = list(TTILDE_GOLDEN[n - 1])
        if got != want:
            failures.append(failure(family="Ttilde", n=n, got=got, want=want))
    return VerifyReport("tables", checked, tuple(failures))


SUITES: dict[str, Callable[[int], VerifyReport]] = {
    "rt-recurrences": triangles.verify_rt_recurrences,
    "corollary": triangles.verify_rec_vs_closed,
    "dz-expansion": symbolic.verify_operator_expansion,
    "hoffman": symbolic.verify_hoffman,
    "theorem2": symbolic.verify_closed_forms,
    "tables": verify_tables,
    "beeler": multiangle.verify_triple_agreement,
}

SUITE_NAMES: tuple[str, ...] = tuple(SUITES)


def run_suite(name: str, max_n: int) -> VerifyReport:
    """Run one suite by registry name; raises ValueError for unknown names."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return suite(max_n)


def run_all(max_n: int) -> list[VerifyReport]:
    """Run every registered suite in registry order."""
    return [run_suite(name, max_n) for name in SUITE_NAMES]
