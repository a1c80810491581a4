"""Exact tan(n*x): route agreement, symmetry, poles, and the float bridge."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanpoly import multiangle
from tanpoly.exact import GaussianInt, Rational
from tanpoly.multiangle import (
    DEFAULT_GRID,
    POLE,
    TanValue,
    _alternating_sums,
    tan_addition,
    tan_beeler,
    tan_float_check,
    tan_gaussian,
)
from tanpoly.triangles import r_coef, t_coef
from tanpoly.verify import verify_triple_agreement

small_rationals = st.builds(Rational, st.integers(-9, 9), st.integers(1, 9))


class TestTanValue:
    def test_pole_flag(self):
        assert POLE.is_pole
        assert not TanValue(Rational(1, 2)).is_pole

    def test_str(self):
        assert str(POLE) == "pole"
        assert str(TanValue(Rational(-4, 3))) == "-4/3"

    def test_equality(self):
        assert TanValue(Rational(2, 4)) == TanValue(Rational(1, 2))
        assert POLE == TanValue()
        assert POLE != TanValue(Rational(0))


class TestBeelerRoute:
    def test_identity_at_n1(self):
        t = Rational(3, 7)
        assert tan_beeler(1, t) == TanValue(t)

    def test_n0_is_zero(self):
        assert tan_beeler(0, Rational(5, 3)) == TanValue(Rational(0))

    def test_pole_at_right_angle(self):
        assert tan_beeler(2, Rational(1)) == POLE

    def test_value_past_pole(self):
        # (3t - t^3)/(1 - 3t^2) at t = 1 is 2/(-2)
        assert tan_beeler(3, Rational(1)) == TanValue(Rational(-1))

    def test_negative_n_rejected(self):
        for method in (tan_beeler, tan_addition, tan_gaussian):
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                method(-1, Rational(1))


class TestIntegerSums:
    def test_sums_are_the_scaled_triangle_sums(self):
        # the paper's form: sum (-1)^k R(n,k) t^(2k+1) over sum (-1)^k T(n,k) t^(2k), times b^n
        for n in range(81):
            for t in DEFAULT_GRID:
                a, b = t.numerator, t.denominator
                num = sum(
                    (-1) ** k * r_coef(n, k) * a ** (2 * k + 1) * b ** (n - 2 * k - 1)
                    for k in range((n - 1) // 2 + 1)
                )
                den = sum(
                    (-1) ** k * t_coef(n, k) * a ** (2 * k) * b ** (n - 2 * k)
                    for k in range(n // 2 + 1)
                )
                assert _alternating_sums(n, t) == (num, den)

    @given(st.integers(0, 400), st.builds(Rational, st.integers(-30, 30), st.integers(1, 30)))
    def test_matches_gaussian_route(self, n, t):
        assert tan_beeler(n, t) == tan_gaussian(n, t)

    def test_large_n_is_fast_and_exact(self):
        t = Rational(29, 30)
        start = time.perf_counter()
        value = tan_beeler(5000, t)
        elapsed = time.perf_counter() - start
        assert value == tan_gaussian(5000, t)
        assert elapsed < 1.0


class TestAdditionRoute:
    def test_empty_iteration(self):
        assert tan_addition(0, Rational(5, 3)) == TanValue(Rational(0))

    def test_double_angle(self):
        assert tan_addition(2, Rational(1, 2)) == TanValue(Rational(4, 3))

    def test_through_intermediate_pole(self):
        # at t = 1 the n = 2 step is a pole; n = 4 must come back to 0
        assert tan_addition(2, Rational(1)) == POLE
        assert tan_addition(4, Rational(1)) == TanValue(Rational(0))

    def test_one_reduction_per_call(self, monkeypatch):
        # the pair is stepped unreduced and made a Rational once, after the last step
        made = []

        def counted(*args):
            made.append(args)
            return Rational(*args)

        want = tan_gaussian(40, Rational(3, 7))
        monkeypatch.setattr(multiangle, "Rational", counted)
        assert tan_addition(40, Rational(3, 7)) == want
        assert len(made) == 1


class TestGaussianRoute:
    def test_examples(self):
        assert tan_gaussian(2, Rational(1)) == POLE
        assert tan_gaussian(3, Rational(1)) == TanValue(Rational(-1))
        assert tan_gaussian(1, Rational(2, 5)) == TanValue(Rational(2, 5))


class TestAgreement:
    def test_triple_agreement_on_grid(self):
        report = verify_triple_agreement(20)
        assert report.passed
        assert report.checked == 21 * 13
        assert report.suite == "beeler"

    @given(st.integers(0, 12), small_rationals)
    def test_triple_agreement_random(self, n, t):
        assert tan_beeler(n, t) == tan_addition(n, t) == tan_gaussian(n, t)

    def test_odd_symmetry(self):
        for n in range(21):
            for t in DEFAULT_GRID:
                plus = tan_beeler(n, t)
                minus = tan_beeler(n, -t)
                if plus.is_pole:
                    assert minus.is_pole
                else:
                    assert minus == TanValue(-plus.value)

    def test_any_fraction_or_int_input(self):
        for n in range(21):
            for t in DEFAULT_GRID:
                inputs = [Fraction(t.numerator, t.denominator)]
                inputs += [t.numerator] if t.denominator == 1 else []
                for route in (tan_beeler, tan_addition, tan_gaussian):
                    expected = route(n, t)
                    assert all(route(n, other) == expected for other in inputs)

    def test_composition(self):
        for a in range(1, 13):
            for b in range(1, 13):
                if a * b > 12:
                    continue
                for t in (Rational(1, 3), Rational(-3, 7), Rational(1, 2)):
                    inner = tan_beeler(b, t)
                    outer = tan_beeler(a * b, t)
                    if inner.is_pole or outer.is_pole:
                        continue
                    assert tan_beeler(a, inner.value) == outer

    def test_pole_characterization(self):
        for n in range(21):
            for t in DEFAULT_GRID:
                g = GaussianInt(t.denominator, t.numerator) ** n
                assert tan_beeler(n, t).is_pole == (g.re == 0)


class TestFloatBridge:
    def test_identity_case_is_tiny(self):
        assert tan_float_check(1, Rational(1, 3)) < 1e-15

    def test_moderate_case(self):
        assert tan_float_check(5, Rational(1, 3)) < 1e-9

    def test_not_applicable_at_pole(self):
        assert tan_float_check(2, Rational(1)) is None

    def test_not_applicable_near_pole(self):
        # tan(2x) = 2t / (1 - t^2): the denominator is not 0 but under the skip threshold
        t = Rational(10**7 + 1, 10**7)
        assert _alternating_sums(2, t)[1] == -20000001
        assert tan_float_check(2, t) is None

    @pytest.mark.parametrize("n", [600, 1000])
    def test_not_applicable_past_double_range(self, n):
        assert tan_float_check(n, Rational(7, 2)) is None

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            tan_float_check(0, Rational(1, 3))
