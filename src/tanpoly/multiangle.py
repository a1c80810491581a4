"""Exact evaluation of tan(n*x) from t = tan(x), by three independent routes.

The primary route is the alternating binomial ratio

    tan(nx) = sum_k (-1)^k C(n,2k+1) t^(2k+1) / sum_k (-1)^k C(n,2k) t^(2k).

For t = a/b in lowest terms both sums are taken scaled by b^n, so they
are plain integers: one walk along the Pascal row, with the exact step
C(n,j+1) a^(j+1) b^(n-j-1) = C(n,j) a^j b^(n-j) * (n-j) a / ((j+1) b),
adds term j to one of four sums by j mod 4; the numerator is the sum of
j = 1 less that of j = 3, and the denominator that of j = 0 less that of
j = 2. The ratio is reduced once, by a single gcd, at the end.

The two cross-checks are iterated tangent angle addition, carried as a
projective integer pair (p : q) so intermediate poles pass through
cleanly, and powers of the Gaussian integer q + p*i for t = p/q, whose
real and imaginary parts are exactly the alternating sums above scaled by
q^n. A pole is a value, not an error: it occurs exactly when the
denominator sum vanishes. For n = 0 the numerator sum is empty and the
result is 0. The pairs of one t form a lazy sequence, _addition_pairs,
which the beeler suite sweeps; tan_addition(n, t) reduces only item n.

Every route takes t as any fractions.Fraction or int (Rational arithmetic
returns plain Fractions) and reads only its numerator and denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .exact import GaussianInt, Rational


class TanValue(NamedTuple):
    """A finite rational tangent value, or the pole."""

    value: Fraction | None = None

    @property
    def is_pole(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "pole" if self.value is None else str(self.value)


POLE = TanValue()

DEFAULT_GRID: tuple[Rational, ...] = (
    Rational(0),
    Rational(1), Rational(-1),
    Rational(1, 2), Rational(-1, 2),
    Rational(2), Rational(-2),
    Rational(1, 3), Rational(-1, 3),
    Rational(3, 7), Rational(-3, 7),
    Rational(7, 2), Rational(-7, 2),
)

# Skip the float sanity bridge when the denominator is this close to a
# pole; conditioning makes a double-precision comparison meaningless.
FLOAT_SKIP_THRESHOLD = 1e-6


def _alternating_sums(n: int, t: Fraction | int) -> tuple[int, int]:
    """Numerator and denominator sums of the binomial ratio, times b^n for t = a/b."""
    a, b = t.numerator, t.denominator
    sums = [0, 0, 0, 0]  # the terms of j = 0, 1, 2, 3 (mod 4)
    term = b**n  # C(n, j) * a^j * b^(n-j), starting at j = 0
    for j in range(n + 1):
        sums[j & 3] += term
        term = term * ((n - j) * a) // ((j + 1) * b)
    s0, s1, s2, s3 = sums
    return s1 - s3, s0 - s2


def _pair_value(p: int, q: int) -> TanValue:
    """The TanValue of the pair (p : q), reduced by one gcd, or the pole when
    q = 0; each route ends with its own pair here."""
    if q == 0:
        return POLE
    return TanValue(Rational(p, q))


def tan_beeler(n: int, t: Fraction | int) -> TanValue:
    """tan(n * arctan(t)) by the alternating binomial ratio."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pair_value(*_alternating_sums(n, t))


def _addition_pairs(t: Fraction | int) -> Iterator[tuple[int, int]]:
    """Projective pairs (p, q) with tan(n * arctan(t)) = p/q for n = 0, 1, ...

    Each step is the tangent angle-addition formula, (p, q) -> (p*b + a*q,
    q*b - a*p) for t = a/b. The pair never collapses to (0, 0) because each
    step multiplies by a matrix of determinant a^2 + b^2 > 0, so poles (q = 0)
    propagate consistently. No gcd is taken, so the pairs grow like (a^2 + b^2)^(n/2).
    """
    a, b = t.numerator, t.denominator
    p, q = 0, 1
    while True:
        yield p, q
        p, q = p * b + a * q, q * b - a * p


def tan_addition(n: int, t: Fraction | int) -> TanValue:
    """tan(n * arctan(t)) by iterating the tangent angle-addition formula,
    item n of _addition_pairs: the pair is reduced once, after the last step."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pair_value(*next(islice(_addition_pairs(t), n, None)))


def tan_gaussian(n: int, t: Fraction | int) -> TanValue:
    """tan(n * arctan(t)) from the n-th power of q + p*i, for t = p/q.

    The q^n scale factors cancel in im/re, and re = 0 is exactly the pole
    condition of the binomial ratio.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = GaussianInt(t.denominator, t.numerator) ** n
    return _pair_value(g.im, g.re)


METHODS = {
    "beeler": tan_beeler,
    "addition": tan_addition,
    "gaussian": tan_gaussian,
}


def tan_float_check(n: int, t: Fraction | int) -> float | None:
    """Absolute difference between the exact value (as a double) and
    math.tan(n * math.atan(t)).

    Returns None (not applicable) at a pole, when the exact denominator
    is within FLOAT_SKIP_THRESHOLD of zero after float conversion, and
    when the denominator or the exact value lies outside the range of a
    double.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    num, den = _alternating_sums(n, t)
    if not den:
        return None
    try:
        # Correctly rounded int divisions: the same doubles as the reduced fractions give.
        if abs(den / t.denominator**n) < FLOAT_SKIP_THRESHOLD:
            return None
        exact = num / den
    except OverflowError:
        return None
    approx = math.tan(n * math.atan(float(t)))
    return abs(exact - approx)

