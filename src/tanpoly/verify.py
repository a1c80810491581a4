"""The identity suites, their registry, and the report type they share.

Each suite compares two or three independent routes to the same values
and returns a VerifyReport: how many comparisons it made and which ones
failed. The iterated routes are the lazy sequences symbolic and triangles
own; a suite zips each sequence once against range(...), range first, so
no item past max_n is drawn, and steps only the plain diff route of
hoffman itself. Each reference value is read once: rt-recurrences reads
each R and T row through r_row/t_row, and corollary and dz-expansion make
one closed M and N row per n. Reports are plain data;
output formats, rendering and exit-code policy live in the cli module.
rt-recurrences, corollary and theorem2 compare whole rows, dz-expansion
the iterates' coefficient dicts and beeler each route's unreduced integer
pair; only a row or point that differs goes through _Tally.check, which
builds failure records that keep every value as an exact decimal string (a
row is written as a list, [1, 5, 4]), so reports serialize without
floating point. A wrong-length row gives records unless it only adds zeros.

The embedded rows are the first five rows of A056242 (k-part
order-consecutive partition counts) and of A210753. They are test data,
not inputs: the triangles are always computed from the polynomial
families, and the tables suite checks the computation against the
published rows verbatim.
"""

from __future__ import annotations

from itertools import count, pairwise, zip_longest
from typing import Callable, Mapping, NamedTuple

from .exact import GaussianInt
from .multiangle import DEFAULT_GRID, _addition_pairs, _alternating_sums, _pair_value
from .symbolic import ReducedPair, YPoly, YZPoly, diff, dz_seq, hoffman_p_seq, hoffman_q_seq, reduce_z
from .symbolic import _binomial_closed_row, _dz_rows, _stride_poly
from .triangles import _mn_closed_row, m_row_seq, n_row_seq, r_row, t_row, tilde_rows

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


class VerifyReport(NamedTuple):
    """Outcome of one verification suite."""

    suite: str
    checked: int
    failures: tuple[Mapping[str, str], ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


class _Tally:
    """Bookkeeping for one suite run: rejects max_n below the suite's floor,
    counts comparisons and keeps a record of each failed one. A suite that
    finds whole rows equal adds the comparisons they stand for to checked.
    """

    def __init__(self, suite: str, max_n: int, least: int, notes: tuple[str, ...] = ()):
        if max_n < least:
            raise ValueError(f"max_n must be at least {least}")
        self.suite = suite
        self.notes = notes
        self.checked = 0
        self.failures: list[Mapping[str, str]] = []

    def check(self, agree: bool, **fields: object) -> None:
        """Count one comparison; record str() of each field when the routes disagree."""
        self.checked += 1
        if not agree:
            self.failures.append({key: str(value) for key, value in fields.items()})

    def report(self) -> VerifyReport:
        return VerifyReport(self.suite, self.checked, tuple(self.failures), self.notes)


def verify_rt_recurrences(max_n: int) -> VerifyReport:
    """Check n*R(n+1,k) and n*T(n+1,k) against their two-term recurrences.

    Runs for 1 <= n <= max_n with k covering the full row plus one index on
    each side, so the out-of-range zero convention is exercised too. Row m,
    read once through r_row/t_row, is padded with zeros to every k it is read
    at, whatever its length. Each side is a list over k; records (R, then T,
    at each k) are made only at an n where a pair of lists differs.
    """
    tally = _Tally("rt-recurrences", max_n, 1)
    rows = ([[0, *row, *[0] * ((m + 1) // 2 + 2 - len(row))] for row in (r_row(m), t_row(m))] for m in count(1))
    for n, ((r_n, t_n), (r_next, t_next)) in zip(range(1, max_n + 1), pairwise(rows)):
        width = (n + 1) // 2 + 2
        r_lhs = [n * c for c in r_next[1 : width + 1]]
        r_rhs = [(n + 2 * k + 1) * a + (n - 2 * k + 1) * b for k, a, b in zip(range(width), r_n[1:], r_n)]
        t_lhs = [n * c for c in t_next[1 : width + 1]]
        t_rhs = [(n + 2 * k) * a + (n - 2 * k + 2) * b for k, a, b in zip(range(width), t_n[1:], t_n)]
        if r_lhs == r_rhs and t_lhs == t_rhs:
            tally.checked += 2 * width
        else:
            for k in range(width):
                tally.check(r_lhs[k] == r_rhs[k], family="R", n=n, k=k, lhs=r_lhs[k], rhs=r_rhs[k])
                tally.check(t_lhs[k] == t_rhs[k], family="T", n=n, k=k, lhs=t_lhs[k], rhs=t_rhs[k])
    return tally.report()


def verify_rec_vs_closed(max_n: int) -> VerifyReport:
    """Check the recurrence values against the factorial closed forms.

    M is compared for k <= floor(n/2) and N for k <= floor((n+1)/2); checked
    counts the row entries compared. Each n draws one recurrence row and one
    closed row (_mn_closed_row) per family; rows that differ read as 0 past
    their end, so a wrong length gives records unless it only adds zeros.
    """
    note = (
        "N is checked on its full defining range k <= floor((n+1)/2), "
        "one column wider than the M range k <= floor(n/2); the closed "
        "form holds on the wider range as well."
    )
    tally = _Tally("corollary", max_n, 1, notes=(note,))
    for n, m_row, n_row in zip(range(max_n + 1), m_row_seq(), n_row_seq()):
        for s, family, rec_row in ((0, "M", m_row), (1, "N", n_row)):
            closed_row = _mn_closed_row(n, s)
            if rec_row == closed_row:
                tally.checked += len(closed_row)
                continue
            for k, (rec, closed) in enumerate(zip_longest(rec_row, closed_row, fillvalue=0)):
                tally.check(rec == closed, family=family, n=n, k=k, rec=rec, closed=closed)
    return tally.report()


def _mn_terms(n: int, s: int) -> dict[tuple[int, int], int]:
    """The closed row n of M (s = 0) or N (s = 1) as YZPoly coefficients:
    entry k at y^(n-2k+s) z^(n+2k+1-s)."""
    return {(n - 2 * k + s, n + 2 * k + 1 - s): c for k, c in enumerate(_mn_closed_row(n, s))}


def verify_operator_expansion(max_n: int) -> VerifyReport:
    """Check the iterates on z and y monomial-by-monomial against M and N.

    The n-th iterate on z must consist of exactly the monomials
    y^(n-2k) z^(n+2k+1) with coefficient M(n, k), and the iterate on y of
    y^(n-2k+1) z^(n+2k) with coefficient N(n, k); nothing else may appear.
    The coefficients are one closed row (_mn_closed_row) per family and n.
    Each iterate's coefficient dict is compared with the closed row's; the
    sorted term lists, and the M and N records, are made only at an n where
    one differs.
    """
    tally = _Tally("dz-expansion", max_n, 0)
    for n, p, q in zip(range(max_n + 1), dz_seq(YZPoly.z()), dz_seq(YZPoly.y())):
        m_terms, n_terms = _mn_terms(n, 0), _mn_terms(n, 1)
        if p._coef == m_terms and q._coef == n_terms:
            tally.checked += 2
            continue
        for family, poly, terms in (("M", p, m_terms), ("N", q, n_terms)):
            got, want = poly.terms(), sorted(terms.items())
            tally.check(got == want, family=family, n=n, got=got, want=want)
    return tally.report()


def verify_hoffman(max_n: int) -> VerifyReport:
    """Check n-fold plain derivatives of y and z against the P and Q recurrences.

    diff steps y and z once per n here; P_n and Q_n come from hoffman_p_seq
    and hoffman_q_seq, the parity-stride row sequences behind
    hoffman_p/hoffman_q.
    """
    tally = _Tally("hoffman", max_n, 0)
    dy, dz = YZPoly.y(), YZPoly.z()
    for n, p, q in zip(range(max_n + 1), hoffman_p_seq(), hoffman_q_seq()):
        if n:
            dy, dz = diff(dy), diff(dz)
        got = reduce_z(dy)
        tally.check(got == ReducedPair(p, YPoly.zero()), family="P", n=n, got=got, want=p)
        got = reduce_z(dz)
        tally.check(got == ReducedPair(YPoly.zero(), q), family="Q", n=n, got=got, want=q)
    return tally.report()


def verify_closed_forms(max_n: int) -> VerifyReport:
    """Check the binomial closed forms against the operator extraction route
    and against the recurrence rows of the tilde triangles.

    The operator route is the (row, parity) pairs of _dz_rows and the
    recurrence is tilde_rows, each swept once over n; the closed forms are
    direct (row, parity) pairs, R then T. Row n of Rtilde is compared with the
    closed row of parity 0 (y^0, y^2, ..., y^(2n-2)) and row n of Ttilde with
    the other one (y^1, ..., y^(2n-1)): only the rows' parity picks them. The
    records, and the R and T YPolys, are made only at an n where a row differs.
    """
    tally = _Tally("theorem2", max_n, 1)
    routes = zip(range(1, max_n + 1), _dz_rows(0), _dz_rows(1), tilde_rows())
    for n, r_operator, t_operator, (r_tilde, t_tilde) in routes:
        r_closed, t_closed = _binomial_closed_row(n, 0), _binomial_closed_row(n, 1)
        even, odd = (r_closed[0], t_closed[0]) if r_closed[1] == 0 else (t_closed[0], r_closed[0])
        if (r_closed, t_closed, tuple(even), tuple(odd)) == (r_operator, t_operator, r_tilde, t_tilde):
            tally.checked += 4
            continue
        for family, closed, operator in (("R", r_closed, r_operator), ("T", t_closed, t_operator)):
            closed, operator = _stride_poly(*closed), _stride_poly(*operator)
            tally.check(closed == operator, family=family, n=n, closed=closed, operator=operator)
        tally.check(tuple(even) == r_tilde, family="Rtilde", n=n, closed=even, recurrence=list(r_tilde))
        tally.check(tuple(odd) == t_tilde, family="Ttilde", n=n, closed=odd, recurrence=list(t_tilde))
    return tally.report()


def verify_tables(max_n: int) -> VerifyReport:
    """Compare the Rtilde/Ttilde rows of tilde_rows with the golden rows.

    Golden data covers rows 1..5; larger max_n checks the same five rows
    per family (rows beyond 5 are covered by the cross-method suites).
    """
    tally = _Tally("tables", max_n, 1)
    rows = zip(range(1, max_n + 1), RTILDE_GOLDEN, TTILDE_GOLDEN, tilde_rows())
    for n, r_want, t_want, (r_got, t_got) in rows:
        tally.check(r_got == r_want, family="Rtilde", n=n, got=list(r_got), want=list(r_want))
        tally.check(t_got == t_want, family="Ttilde", n=n, got=list(t_got), want=list(t_want))
    return tally.report()


def verify_triple_agreement(max_n: int) -> VerifyReport:
    """Evaluate all three routes over 0 <= n <= max_n on the grid.

    Points are visited in a fixed (n, t) order so the report is
    deterministic. Each route stops at its unreduced pair (p : q): the
    binomial sums (_alternating_sums), one _addition_pairs sequence per grid
    point, advanced once per n, and the n-th power of one GaussianInt
    b + a*i per grid point t = a/b. A point is decided once, by integers: it
    passes when no pair is (0, 0) and the pairs are proportional,
    p1*q2 == p2*q1 and p1*q3 == p3*q1; (0, 0), which _pair_value reads as
    the pole, is proportional to every pair, so it fails even where the
    true value is the pole. Only a point that fails makes the three
    TanValues, which _Tally.check records; it does not compare them.
    """
    tally = _Tally("beeler", max_n, 0)
    points = [(t, _addition_pairs(t), GaussianInt(t.denominator, t.numerator)) for t in DEFAULT_GRID]
    for n in range(max_n + 1):
        for t, additions, base in points:
            p1, q1 = _alternating_sums(n, t)
            p2, q2 = next(additions)
            g = base**n
            p3, q3 = g.im, g.re
            agree = (p1 or q1) and (p2 or q2) and (p3 or q3) and p1 * q2 == p2 * q1 and p1 * q3 == p3 * q1
            if agree:
                tally.checked += 1
                continue
            by_ratio, by_addition, by_gaussian = _pair_value(p1, q1), _pair_value(p2, q2), _pair_value(p3, q3)
            tally.check(agree, n=n, t=t, beeler=by_ratio, addition=by_addition, gaussian=by_gaussian)
    return tally.report()


SUITES: dict[str, Callable[[int], VerifyReport]] = {
    "rt-recurrences": verify_rt_recurrences,
    "corollary": verify_rec_vs_closed,
    "dz-expansion": verify_operator_expansion,
    "hoffman": verify_hoffman,
    "theorem2": verify_closed_forms,
    "tables": verify_tables,
    "beeler": verify_triple_agreement,
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
