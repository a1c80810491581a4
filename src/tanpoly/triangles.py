"""The six exact coefficient triangles.

Two binomial families: R(n, k) = C(n, 2k+1) and T(n, k) = C(n, 2k), the
odd- and even-column halves of Pascal's triangle (A034867 and A034839).
Two factorial-scaled families M and N, the coefficients of the iterated
operator p -> d/dx(sec(x) * p) expanded over tan and sec monomials; they
are computed from their two-term recurrences and, independently, from the
closed forms n! * C(n+1, 2k+1) and n! * C(n+1, 2k). The two reduced
families Rtilde and Ttilde (A056242 and A210753) collect the coefficients
of the reduced polynomial families, so their rows live in the symbolic
module, which builds on this one; this module imports nothing from the
package.

Every accessor returns 0 outside its family's index range, which makes the
recurrences total. Row caches hold immutable tuples and are safe for
concurrent readers.
"""

from __future__ import annotations

import math
from functools import lru_cache


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

