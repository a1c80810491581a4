"""The six exact coefficient triangles.

Two binomial families: R(n, k) = C(n, 2k+1) and T(n, k) = C(n, 2k), the
odd- and even-column halves of Pascal's triangle (A034867 and A034839),
which the package reads only as the rows of r_row/t_row.
Two factorial-scaled families M and N, the coefficients of the iterated
operator p -> d/dx(sec(x) * p) expanded over tan and sec monomials; they
are computed from their two-term recurrences and, independently, from the
closed forms n! * C(n+1, 2k+1) and n! * C(n+1, 2k): _mn_closed_row is n!
times row n + 1 of R or T; m_closed/n_closed read one entry of it, and
the corollary and dz-expansion suites draw one row per n. The recurrence rows
are the lazy sequences m_row_seq and n_row_seq of tuples, which m_row/n_row
read and the corollary suite and triangle command sweep. _item is the one
per-n lookup into a sequence; symbolic reads its own through it too. The
two reduced families Rtilde and Ttilde (A056242 and A210753) collect the
coefficients of the reduced polynomial families; tilde_rows makes their rows
by the Fibonacci-type recurrence, as tuples, and the theorem2 and tables
suites and the triangle command sweep it. This module imports nothing from
the package.

Every per-entry accessor returns 0 outside its family's index range, which
makes the recurrences total. Nothing is cached.
"""

from __future__ import annotations

import math
import operator
from itertools import count, islice
from typing import Iterator


def binom(n: int, k: int) -> int:
    """C(n, k), with value 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def r_coef(n: int, k: int) -> int:
    """C(n, 2k+1): numerator coefficient of the tan(nx) expansion."""
    return binom(n, 2 * k + 1)


def t_coef(n: int, k: int) -> int:
    """C(n, 2k): denominator coefficient of the tan(nx) expansion."""
    return binom(n, 2 * k)


def r_row(n: int) -> list[int]:
    """Row n of the R triangle: k = 0 .. floor((n-1)/2). Row 0 is empty."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [r_coef(n, k) for k in range((n - 1) // 2 + 1)]


def t_row(n: int) -> list[int]:
    """Row n of the T triangle: k = 0 .. floor(n/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [t_coef(n, k) for k in range(n // 2 + 1)]


def _mn_row_seq(s: int) -> Iterator[tuple[int, ...]]:
    """Rows 0, 1, ... of M (s = 0) or N (s = 1), row n of length
    floor((n+s)/2) + 1, from X(m+1, k) = (m+2k+2-s) X(m, k) + (m-2k+2+s) X(m, k-1).
    """
    row = (1,)
    for m in count():
        yield row
        padded = (0, *row, 0)
        row = tuple(
            (m + 2 * k + 2 - s) * padded[k + 1] + (m - 2 * k + 2 + s) * padded[k]
            for k in range((m + 1 + s) // 2 + 1)
        )


def m_row_seq() -> Iterator[tuple[int, ...]]:
    """Rows 0, 1, ... of the M triangle by recurrence."""
    return _mn_row_seq(0)


def n_row_seq() -> Iterator[tuple[int, ...]]:
    """Rows 0, 1, ... of the N triangle by recurrence."""
    return _mn_row_seq(1)


def tilde_rows() -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(Rtilde row n, Ttilde row n) for n = 1, 2, ... by the Fibonacci-type
    recurrence of R_n and T_n, with w = 1 + y^2:

        X_{n+1} = w * (2y X_n + X_{n-1})   if n % 2 == odd,
        X_{n+1} = 2y X_n + w X_{n-1}       otherwise,

    where R takes odd = 1 from (R_1, R_2) = (1, 2y + 2y^3) and T takes
    odd = 0 from (T_1, T_2) = (y, 1 + 2y^2). Row n of Rtilde holds R_n for
    odd n and T_n for even n, Ttilde the other one, so at every n the first
    rule makes Ttilde and the second Rtilde:

        Rtilde_{n+1} = 2y Ttilde_n + w Rtilde_{n-1}
        Ttilde_{n+1} = w * (2y Rtilde_n + Ttilde_{n-1})

    On the rows, y times a Ttilde row (odd powers) is a 0 put in front, y
    times an Rtilde row (even powers) is the same tuple, and w times a tuple
    is one shift-add. Row n has n entries, so the shorter tuple is padded
    before each elementwise add. Rtilde rows are the coefficients of y^0,
    y^2, ..., y^(2n-2) and rows 1..5 reproduce A056242; Ttilde rows those of
    y^1, y^3, ..., y^(2n-1) and rows 1..5 reproduce A210753.
    """
    r_prev, t_prev, r, t = (1,), (1,), (1, 2), (2, 2)
    yield r_prev, t_prev
    while True:
        yield r, t
        w_r_prev = map(operator.add, (*r_prev, 0), (0, *r_prev))
        sum_t = tuple(map(operator.add, map(operator.add, r, r), (*t_prev, 0)))
        r_prev, t_prev = r, t
        r = tuple(map(operator.add, (0, *map(operator.add, t, t)), (*w_r_prev, 0)))
        t = tuple(map(operator.add, (*sum_t, 0), (0, *sum_t)))


def _item(seq: Iterator, n: int):
    """Item n of seq, whose items are numbered from 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return next(islice(seq, n, None))


def m_row(n: int) -> tuple[int, ...]:
    """Row n of the M triangle by recurrence: k = 0 .. floor(n/2)."""
    return _item(m_row_seq(), n)


def n_row(n: int) -> tuple[int, ...]:
    """Row n of the N triangle by recurrence: k = 0 .. floor((n+1)/2)."""
    return _item(n_row_seq(), n)


def _mn_closed_row(n: int, s: int) -> tuple[int, ...]:
    """Row n of M (s = 0) or N (s = 1) in closed form: n! times row n + 1 of
    R or T, n! * C(n+1, 2k+1-s) for k = 0 .. floor((n+s)/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    scale = math.factorial(n)
    return tuple(scale * c for c in (t_row if s else r_row)(n + 1))


def _row_entry(row: tuple[int, ...], k: int) -> int:
    """row[k], or 0 outside the row."""
    return row[k] if 0 <= k < len(row) else 0


def m_closed(n: int, k: int) -> int:
    """M(n, k) in closed form: n! * C(n+1, 2k+1), entry k of _mn_closed_row(n, 0).
    Each call makes the whole row."""
    return _row_entry(_mn_closed_row(n, 0), k)


def n_closed(n: int, k: int) -> int:
    """N(n, k) in closed form: n! * C(n+1, 2k), entry k of _mn_closed_row(n, 1).
    Each call makes the whole row."""
    return _row_entry(_mn_closed_row(n, 1), k)
