"""Triangle families: closed forms, recurrences, and golden rows.

Binomials are checked against rows built with the plain Pascal addition
rule, independent of the implementation's route.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import itemgetter

import pytest

from tanpoly import symbolic
from tanpoly.triangles import (
    _mn_closed_row,
    _rt_row,
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
from tanpoly.verify import verify_rec_vs_closed, verify_rt_recurrences


def tilde_r_rows(count: int) -> list[tuple[int, ...]]:
    """Rtilde rows 1..count."""
    return [r for r, _ in islice(tilde_rows(), count)]


def tilde_t_rows(count: int) -> list[tuple[int, ...]]:
    """Ttilde rows 1..count."""
    return [t for _, t in islice(tilde_rows(), count)]


def pascal_rows(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


class TestBinom:
    def test_small_values(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binom(4, -1) == 0
        assert binom(4, 5) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            binom(-1, 0)

    def test_against_pascal_recurrence(self):
        rows = pascal_rows(30)
        for n in range(31):
            for k in range(n + 1):
                assert binom(n, k) == rows[n][k]
        assert binom(30, 15) == rows[30][15] == 155117520


class TestRTCoefficients:
    def test_examples(self):
        assert r_coef(5, 1) == 10
        assert t_coef(0, 0) == 1
        assert t_coef(2, 1) == 1

    def test_rows(self):
        assert r_row(0) == []
        assert r_row(5) == [5, 10, 1]
        assert t_row(0) == [1]
        assert t_row(4) == [1, 6, 1]

    def test_row_sums_are_powers_of_two(self):
        for n in range(1, 26):
            assert sum(r_row(n)) == 2 ** (n - 1)
            assert sum(t_row(n)) == 2 ** (n - 1)

    def test_rows_are_pascal_halves(self):
        # the odd and even entries of Pascal's row n, built by addition alone
        rows = pascal_rows(60)
        for n in range(61):
            odd, even = rows[n][1::2], rows[n][0::2]
            assert r_row(n) == _rt_row(n, 0) == odd, n
            assert t_row(n) == _rt_row(n, 1) == even, n
            for k in range(-2, n // 2 + 3):
                assert r_coef(n, k) == (odd[k] if 0 <= k < len(odd) else 0), (n, k)
                assert t_coef(n, k) == (even[k] if 0 <= k < len(even) else 0), (n, k)

    def test_recurrence_hand_instances(self):
        # n=2, k=0: 2*R(3,0) = 6 = 3*R(2,0) + 3*R(2,-1)
        assert 2 * r_coef(3, 0) == (2 + 1) * r_coef(2, 0) + (2 + 1) * r_coef(2, -1) == 6
        # n=1, k=0 for T: 1*T(2,0) = 1 = 1*T(1,0) + 3*T(1,-1)
        assert 1 * t_coef(2, 0) == (1 + 0) * t_coef(1, 0) + (1 + 2) * t_coef(1, -1) == 1

    def test_verify_rt_recurrences(self):
        report = verify_rt_recurrences(25)
        assert report.passed
        assert report.suite == "rt-recurrences"
        assert report.checked > 0


class TestMN:
    def test_recurrence_examples(self):
        assert m_row(1)[0] == 2
        assert n_row(1)[0] == 1 and n_row(1)[1] == 1
        # two applications of the weighted operator to z give 6y^2z^3 + 2z^5
        assert m_row(2)[0] == 6 and m_row(2)[1] == 2

    def test_closed_examples(self):
        assert m_closed(1, 0) == 2
        assert m_closed(2, 1) == 2
        assert n_closed(3, 2) == 6

    def test_row_shapes(self):
        for n in range(20):
            assert len(m_row(n)) == n // 2 + 1
            assert len(n_row(n)) == (n + 1) // 2 + 1

    def test_recurrence_equals_closed_form(self):
        for n, m, nn in zip(range(26), m_row_seq(), n_row_seq()):
            for k in range(n // 2 + 1):
                assert m[k] == m_closed(n, k)
            for k in range((n + 1) // 2 + 1):
                assert nn[k] == n_closed(n, k)

    def test_row_sums(self):
        for n in range(1, 20):
            assert sum(m_row(n)) == math.factorial(n) * 2**n

    def test_negative_row_rejected(self):
        for row in (m_row, n_row, r_row, t_row):
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                row(-1)

    def test_deep_rows_from_cold_cache(self):
        # built by one sweep; one stack frame per row would pass the recursion limit
        n = 600
        assert m_row(n) == _mn_closed_row(n, 0)
        assert n_row(n) == _mn_closed_row(n, 1)

    def test_closed_rows(self):
        # one n! per row; the reference takes its own n! for every entry
        for n in range(201):
            for s in (0, 1):
                row = _mn_closed_row(n, s)
                assert type(row) is tuple and len(row) == (n + s) // 2 + 1
                assert row == tuple(math.factorial(n) * math.comb(n + 1, 2 * k + 1 - s) for k in range(len(row)))

    def test_closed_entries_read_the_row(self):
        for n in range(13):
            m, nn = _mn_closed_row(n, 0), _mn_closed_row(n, 1)
            assert [m_closed(n, k) for k in range(-2, len(m) + 2)] == [0, 0, *m, 0, 0]
            assert [n_closed(n, k) for k in range(-2, len(nn) + 2)] == [0, 0, *nn, 0, 0]
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            m_closed(-1, 0)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            n_closed(-1, 0)

    def test_even_row_edge_is_factorial(self):
        for m in range(13):
            assert m_row(2 * m)[m] == math.factorial(2 * m)

    def test_verify_rec_vs_closed(self):
        report = verify_rec_vs_closed(25)
        assert report.passed
        # one M row entry count plus one N row entry count per n; the two
        # row lengths always sum to n + 2
        assert report.checked == sum(n + 2 for n in range(26))
        assert report.notes


class TestTildeRows:
    def test_golden_rows(self):
        assert next(tilde_rows()) == ((1,), (1,))
        assert tilde_r_rows(5)[4] == (1, 14, 41, 44, 16)
        assert tilde_t_rows(5)[4] == (5, 30, 61, 52, 16)
        assert tilde_r_rows(5) == [
            (1,),
            (1, 2),
            (1, 5, 4),
            (1, 9, 16, 8),
            (1, 14, 41, 44, 16),
        ]
        assert tilde_t_rows(5) == [
            (1,),
            (2, 2),
            (3, 7, 4),
            (4, 16, 20, 8),
            (5, 30, 61, 52, 16),
        ]

    def test_shape_and_edges(self):
        for n, (r, t) in zip(range(1, 11), tilde_rows()):
            assert len(r) == n and len(t) == n
            assert t[0] == n
            assert r[-1] == 2 ** (n - 1) and t[-1] == 2 ** (n - 1)
            assert all(v > 0 for v in r) and all(v > 0 for v in t)

    def test_rows_match_polynomial_coefficients(self):
        # row 7 is odd, so Rtilde comes from the R family and Ttilde from T
        r7 = symbolic.r_poly_closed(7)
        t7 = symbolic.t_poly_closed(7)
        assert tilde_r_rows(7)[6] == tuple(r7.coefficient(2 * k - 2) for k in range(1, 8))
        assert tilde_t_rows(7)[6] == tuple(t7.coefficient(2 * k - 1) for k in range(1, 8))

    def test_rows_are_whole_source_polynomials(self):
        # The rows are read straight off the closed-form coefficient list, so
        # each must be the whole source polynomial at y^0, y^2, ... or y^1, y^3, ...
        for n, (r_row, t_row) in zip(range(1, 41), tilde_rows()):
            r, t = symbolic.r_poly_closed(n), symbolic.t_poly_closed(n)
            even, odd = (r, t) if n % 2 else (t, r)
            assert symbolic.YPoly({2 * k: c for k, c in enumerate(r_row)}) == even
            assert symbolic.YPoly({2 * k + 1: c for k, c in enumerate(t_row)}) == odd


class TestImmutableRows:
    """A caller that draws a row cannot change the rows drawn after it."""

    @pytest.mark.parametrize(
        "rows",
        [lambda: map(itemgetter(0), tilde_rows()), lambda: map(itemgetter(1), tilde_rows()), m_row_seq, n_row_seq],
        ids=["Rtilde", "Ttilde", "M", "N"],
    )
    def test_row_edit_raises_and_later_rows_hold(self, rows):
        fresh = list(islice(rows(), 60))
        seq = rows()
        drawn = list(islice(seq, 3))
        for row in drawn:
            for k in range(len(row)):
                with pytest.raises(TypeError):
                    row[k] += 98
        drawn += islice(seq, 57)
        assert drawn == fresh
