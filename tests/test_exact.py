"""Rational and GaussianInt: examples, invariants, and ring properties.

Rational is the standard library Fraction restricted to int input, so
its tests pin that restriction, parsing and printing, not the arithmetic;
Gaussian powers are checked against a plain repeated-multiplication loop.
"""

from __future__ import annotations

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanpoly.exact import GaussianInt, Rational

gaussians = st.builds(GaussianInt, st.integers(-15, 15), st.integers(-15, 15))


def test_coefficient_substrate_holds_large_factorials():
    # the triangle entries reach 30!-sized values; they must stay exact
    import math

    assert math.factorial(30) == 265252859812191058636308480000000


class TestRational:
    def test_normalizes_on_construction(self):
        assert Rational(2, 4) == Rational(1, 2)
        assert Rational(1, -2) == Rational(-1, 2)
        assert Rational(-3, -6) == Rational(1, 2)

    def test_canonical_zero(self):
        r = Rational(0, 7)
        assert r.numerator == 0 and r.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1, 0)

    def test_add(self):
        assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)

    def test_mul_cancels(self):
        assert Rational(2, 3) * Rational(3, 2) == Rational(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1) / Rational(0)

    def test_pow(self):
        assert Rational(-2, 3) ** 3 == Rational(-8, 27)
        assert Rational(0) ** 0 == Rational(1)
        assert Rational(1, 2) ** -1 == 2

    def test_str(self):
        assert str(Rational(-1)) == "-1"
        assert str(Rational(4, 3)) == "4/3"
        assert str(Rational(3, -7)) == "-3/7"

    def test_repr(self):
        assert repr(Rational(-1, 1)) == "Rational(-1, 1)"

    @pytest.mark.parametrize(
        "args", [(0.5,), ("3",), (1, 2.0), (Decimal(1),), (Fraction(1, 2),)]
    )
    def test_rejects_non_int_input(self, args):
        with pytest.raises(TypeError):
            Rational(*args)

    def test_is_a_fraction(self):
        r = Rational(1, 2)
        assert isinstance(r, Fraction)
        assert r == Fraction(1, 2)
        assert hash(r) == hash(Fraction(1, 2))

    @pytest.mark.parametrize(
        "text,expected",
        [("3/7", Rational(3, 7)), ("-1/3", Rational(-1, 3)), ("2", Rational(2)), (" 7/2 ", Rational(7, 2))],
    )
    def test_parse(self, text, expected):
        assert Rational.parse(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/2/3", "1.5", "3/"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            Rational.parse(text)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Rational.parse("1/0")


class TestGaussianInt:
    def test_mul_examples(self):
        assert GaussianInt(1, 1) * GaussianInt(1, 1) == GaussianInt(0, 2)
        assert GaussianInt(1, 0) * GaussianInt(-3, 5) == GaussianInt(-3, 5)
        # (1 + 2i)(3 + 4i) = 3 + 4i + 6i - 8
        assert GaussianInt(1, 2) * GaussianInt(3, 4) == GaussianInt(-5, 10)

    def test_pow_examples(self):
        assert GaussianInt(1, 1) ** 0 == GaussianInt(1, 0)
        assert GaussianInt(1, 1) ** 2 == GaussianInt(0, 2)
        assert GaussianInt(1, 1) ** 4 == GaussianInt(-4, 0)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            GaussianInt(1, 1) ** -1

    @given(gaussians, st.integers(0, 70))
    def test_pow_matches_repeated_mul(self, a, n):
        expected = GaussianInt(1, 0)
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    @given(gaussians, st.integers(0, 10), st.integers(0, 10))
    def test_pow_is_homomorphic(self, a, m, n):
        assert a ** (m + n) == (a**m) * (a**n)

    @given(gaussians, gaussians, gaussians)
    def test_ring_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    def test_other_operators_raise(self):
        # + and * take a GaussianInt only, and there is no - at all
        g = GaussianInt(1, 2)
        for op in (lambda: g + 1, lambda: g * 1, lambda: -g, lambda: g - GaussianInt(0, 1)):
            with pytest.raises(TypeError):
                op()

    def test_immutable_and_hash_stable(self):
        g = GaussianInt(1, 2)
        seen = {g}
        for name in ("re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 5)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert (g.re, g.im) == (1, 2)
        assert g in seen and hash(g) == hash(GaussianInt(1, 2))
        assert copy.copy(g) == copy.deepcopy(g) == pickle.loads(pickle.dumps(g)) == g
        assert repr(g) == "GaussianInt(1, 2)"
        assert g != (1, 2)
