"""The six exact coefficient triangles.

Two binomial families: R(n, k) = C(n, 2k+1) and T(n, k) = C(n, 2k), the
odd- and even-column halves of Pascal's triangle (A034867 and A034839).
Two factorial-scaled families M and N, the coefficients of the iterated
operator p -> d/dx(sec(x) * p) expanded over tan and sec monomials; they
are computed from their two-term recurrences and, independently, from the
closed forms n! * C(n+1, 2k+1) and n! * C(n+1, 2k). The two reduced
families Rtilde and Ttilde (A056242 and A210753) collect the coefficients
of the reduced polynomial families, so their rows live in the symbolic
module, which builds on this one; this module imports nothing from it.

Every accessor returns 0 outside its family's index range, which makes the
recurrences total. Row caches hold immutable tuples and are safe for
concurrent readers.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .report import VerifyReport, failure


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
    return [r_coef(n, k) for k in range((n - 1) // 2 + 1)]


def t_row(n: int) -> list[int]:
    """Row n of the T triangle: k = 0 .. floor(n/2)."""
    return [t_coef(n, k) for k in range(n // 2 + 1)]


@lru_cache(maxsize=None)
def _mn_row(n: int, s: int) -> tuple[int, ...]:
    """Row n of M (s = 0) or N (s = 1), of length floor((n+s)/2) + 1, from
    X(m+1, k) = (m+2k+2-s) X(m, k) + (m-2k+2+s) X(m, k-1).

    The rows below n are fetched in ascending order first, so each is built
    from a cached predecessor and the stack stays shallow for any n.
    """
    if n == 0:
        return (1,)
    for below in range(1, n):
        _mn_row(below, s)
    prev = _mn_row(n - 1, s)
    m = n - 1
    size = len(prev)
    return tuple(
        (m + 2 * k + 2 - s) * (prev[k] if k < size else 0)
        + (m - 2 * k + 2 + s) * (prev[k - 1] if 1 <= k <= size else 0)
        for k in range((n + s) // 2 + 1)
    )


def m_row(n: int) -> list[int]:
    """Row n of the M triangle by recurrence: k = 0 .. floor(n/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_mn_row(n, 0))


def n_row(n: int) -> list[int]:
    """Row n of the N triangle by recurrence: k = 0 .. floor((n+1)/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_mn_row(n, 1))


def m_rec(n: int, k: int) -> int:
    """M(n, k) from the recurrence M(n+1,k) = (n+2k+2)M(n,k) + (n-2k+2)M(n,k-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n // 2:
        return 0
    return _mn_row(n, 0)[k]


def n_rec(n: int, k: int) -> int:
    """N(n, k) from the recurrence N(n+1,k) = (n+2k+1)N(n,k) + (n-2k+3)N(n,k-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > (n + 1) // 2:
        return 0
    return _mn_row(n, 1)[k]


def m_closed(n: int, k: int) -> int:
    """M(n, k) in closed form: n! * C(n+1, 2k+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.factorial(n) * binom(n + 1, 2 * k + 1)


def n_closed(n: int, k: int) -> int:
    """N(n, k) in closed form: n! * C(n+1, 2k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.factorial(n) * binom(n + 1, 2 * k)


def verify_rt_recurrences(max_n: int) -> VerifyReport:
    """Check n*R(n+1,k) and n*T(n+1,k) against their two-term recurrences.

    Runs for 1 <= n <= max_n with k covering the full row plus one index on
    each side, so the out-of-range zero convention is exercised too.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        for k in range((n + 1) // 2 + 2):
            lhs = n * r_coef(n + 1, k)
            rhs = (n + 2 * k + 1) * r_coef(n, k) + (n - 2 * k + 1) * r_coef(n, k - 1)
            checked += 1
            if lhs != rhs:
                failures.append(failure(family="R", n=n, k=k, lhs=lhs, rhs=rhs))
            lhs = n * t_coef(n + 1, k)
            rhs = (n + 2 * k) * t_coef(n, k) + (n - 2 * k + 2) * t_coef(n, k - 1)
            checked += 1
            if lhs != rhs:
                failures.append(failure(family="T", n=n, k=k, lhs=lhs, rhs=rhs))
    return VerifyReport("rt-recurrences", checked, tuple(failures))


def verify_rec_vs_closed(max_n: int) -> VerifyReport:
    """Check the recurrence values against the factorial closed forms.

    M is compared for k <= floor(n/2) and N for k <= floor((n+1)/2); the
    checked count is the total number of row entries compared.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    failures = []
    checked = 0
    for n in range(max_n + 1):
        for k in range(n // 2 + 1):
            checked += 1
            if m_rec(n, k) != m_closed(n, k):
                failures.append(
                    failure(family="M", n=n, k=k, rec=m_rec(n, k), closed=m_closed(n, k))
                )
        for k in range((n + 1) // 2 + 1):
            checked += 1
            if n_rec(n, k) != n_closed(n, k):
                failures.append(
                    failure(family="N", n=n, k=k, rec=n_rec(n, k), closed=n_closed(n, k))
                )
    note = (
        "N is checked on its full defining range k <= floor((n+1)/2), "
        "one column wider than the M range k <= floor(n/2); the closed "
        "form holds on the wider range as well."
    )
    return VerifyReport("corollary", checked, tuple(failures), notes=(note,))
