"""Exact arithmetic substrate: reduced fractions and Gaussian integers.

Integer coefficients throughout the package are plain Python ints, which
are arbitrary precision already. This module adds the two value types the
multiple-angle evaluator needs. Rational is a fractions.Fraction that only
accepts int numerator and denominator, so a float, string or Decimal can
never slip in as an approximate tan(x); its arithmetic is Fraction's and
returns plain Fraction values. GaussianInt, an exact complex integer, is
kept as a small class of its own. Its powering, which tan_gaussian runs,
works on plain ints and builds one GaussianInt at the end; __mul__, which
it does not call, is the oracle the tests compare powers with.
Values are immutable after construction and all operations are pure, so
they are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction


class Rational(Fraction):
    """Fraction built from ints only; denominator > 0; canonical zero is 0/1.

    A zero denominator raises ZeroDivisionError, which callers use for
    pole detection.
    """

    __slots__ = ()

    def __init__(self, num: int, den: int = 1):
        """Refuse non-int input; Fraction.__new__ has already reduced the value."""
        if not (isinstance(num, int) and isinstance(den, int)):
            raise TypeError("Rational takes an int numerator and denominator")

    @classmethod
    def parse(cls, text: str) -> Rational:
        """Parse 'p' or 'p/q' (optional sign, q nonzero)."""
        num_text, slash, den_text = text.strip().partition("/")
        num = int(num_text)
        den = int(den_text) if slash else 1
        return cls(num, den)


class GaussianInt:
    """Exact complex integer re + im*i with +, *, ** by an int >= 0 and ==.

    Immutable, so it can be hashed: setting or deleting an attribute after
    construction raises AttributeError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GaussianInt is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GaussianInt is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple[type[GaussianInt], tuple[int, int]]:
        # copy and pickle rebuild through __init__, not by setting the slots
        return GaussianInt, (self.re, self.im)

    def __add__(self, other: GaussianInt) -> GaussianInt:
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other: GaussianInt) -> GaussianInt:
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __pow__(self, n: int) -> GaussianInt:
        """Binary powering on ints; the base a + b*i squares to (a^2 - b^2) + 2ab*i."""
        if n < 0:
            raise ValueError("negative exponent")
        re, im, a, b = 1, 0, self.re, self.im
        while n:
            if n & 1:
                re, im = re * a - im * b, re * b + im * a
            n >>= 1
            if n:
                a, b = a * a - b * b, 2 * a * b
        return GaussianInt(re, im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"
