"""Polynomial algebra, the derivation, reduction, and the four families.

The oracles here share no code with the package: hypothesis properties
for the algebraic laws; exact evaluation at rational points of
z^2 = 1 + y^2 for the reduction; a Fibonacci-type recurrence on plain
integer lists for the R and T closed forms and the tilde rows; and sympy
computing genuine n-th derivatives of tan and sec by calculus alone,
compared exactly, coefficient for coefficient: with P_n and Q_n at every
n <= 40, with R_n and T_n at every n <= 30, and with the unreduced
iterates of the weighted operator at every m <= 15.
"""

from __future__ import annotations

import math
import operator
import random
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, product, zip_longest
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanpoly import symbolic
from tanpoly.symbolic import (
    InternalInconsistencyError,
    ReducedPair,
    YPoly,
    YZPoly,
    _binomial_closed_row,
    _digits,
    _dz_rows,
    _dz_step,
    _hoffman_rows,
    _stride_poly,
    apply_dz,
    diff,
    dz_iter,
    dz_seq,
    hoffman_p,
    hoffman_p_seq,
    hoffman_q,
    hoffman_q_seq,
    r_poly_closed,
    r_poly_dz,
    r_poly_dz_seq,
    reduce_z,
    reduced_diff,
    t_poly_closed,
    t_poly_dz,
    t_poly_dz_seq,
)
from tanpoly.triangles import tilde_rows
from tanpoly.verify import verify_closed_forms, verify_hoffman, verify_operator_expansion

X = sympy.Symbol("x")

yz_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-9, 9).filter(bool),
    max_size=5,
).map(YZPoly)

y_polys = st.dictionaries(
    st.integers(0, 6),
    st.integers(-9, 9).filter(bool),
    max_size=5,
).map(YPoly)

# Coefficient lists of the first few family members, fixed test data.
R_FAMILY = {
    1: {0: 1},
    2: {1: 2, 3: 2},
    3: {0: 1, 2: 5, 4: 4},
    4: {1: 4, 3: 16, 5: 20, 7: 8},
    5: {0: 1, 2: 14, 4: 41, 6: 44, 8: 16},
}
T_FAMILY = {
    1: {1: 1},
    2: {0: 1, 2: 2},
    3: {1: 3, 3: 7, 5: 4},
    4: {0: 1, 2: 9, 4: 16, 6: 8},
    5: {1: 5, 3: 30, 5: 61, 7: 52, 9: 16},
}


def euler_zigzag(n_max: int) -> list[int]:
    """E_0 .. E_n_max (A000111) by Seidel's boustrophedon: each row starts at
    0 and adds the previous row read backwards; E_n ends row n."""
    row = [1]
    numbers = [1]
    for _ in range(n_max):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        numbers.append(row[-1])
    return numbers


# Rational points on z^2 = 1 + y^2, with both signs of z.
PYTHAGOREAN_POINTS = [
    (Fraction(3, 4), Fraction(5, 4)),
    (Fraction(3, 4), Fraction(-5, 4)),
    (Fraction(5, 12), Fraction(13, 12)),
    (Fraction(5, 12), Fraction(-13, 12)),
]


def fibonacci_type(prev: list[int], cur: list[int], n: int, odd: int, n_max: int):
    """Yields (m, X_m) for m = n .. n_max, X_m as coefficients of y^0, y^1, ...,
    from X_n = cur and X_{n-1} = prev by the recurrence
    X_{m+1} = 2y * w^[m % 2 == odd] * X_m + w * X_{m-1}, with w = 1 + y^2.
    With odd = 1 and X_0 = 0, X_1 = 1 this gives R_m; with odd = 0 and
    X_1 = y, X_2 = 1 + 2y^2 it gives T_m.
    """

    def times_w(p: list[int]) -> list[int]:
        return [a + b for a, b in zip(p + [0, 0], [0, 0] + p)]

    while True:
        yield n, cur
        if n == n_max:
            return
        step = [0] + [2 * c for c in (times_w(cur) if n % 2 == odd else cur)]
        prev, cur = cur, [a + b for a, b in zip_longest(step, times_w(prev), fillvalue=0)]
        n += 1


def z_free(f: YPoly) -> YZPoly:
    return ReducedPair(f, YPoly.zero()).embed()


def reduced_coefficients(expr: sympy.Expr) -> tuple[dict[int, int], dict[int, int]]:
    """expr, a polynomial in tan(x) and sec(x), as f + z*g with y = tan(x),
    z = sec(x) and z^2 reduced to 1 + y^2: the coefficients of f and of g."""
    y, z = sympy.symbols("y z")
    yz = sympy.expand(expr.subs({sympy.tan(X): y, sympy.sec(X): z}))
    rest = sympy.rem(yz, z**2 - 1 - y**2, z)
    f, g = (sympy.Poly(rest.coeff(z, k), y).terms() for k in (0, 1))
    return {a: int(c) for (a,), c in f if c}, {a: int(c) for (a,), c in g if c}


class TestPolyBasics:
    def test_zero_coefficients_dropped(self):
        assert YPoly({2: 0, 1: 3}) == YPoly({1: 3})
        assert YZPoly({(1, 1): 0}) == YZPoly.zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            YPoly({-1: 2})
        with pytest.raises(ValueError):
            YZPoly({(0, -1): 1})

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(0), 0.5, 0.0], ids=repr)
    @pytest.mark.parametrize("cls, key", [(YPoly, 2), (YZPoly, (2, 1))], ids=["y", "yz"])
    def test_non_int_coefficient_rejected(self, cls, key, c):
        # a polynomial the constructor accepts must print, and the renderer takes only ints
        with pytest.raises(TypeError):
            cls({key: c})

    def test_arithmetic(self):
        p = YPoly({0: 1, 2: 1})
        assert p * p == YPoly({0: 1, 2: 2, 4: 1})
        assert p - p == YPoly.zero()
        assert 3 * p == YPoly({0: 3, 2: 3})

    def test_mixed_types_raise(self):
        # + - * take the poly's own class, and * an int too; == across classes is False
        y, yz = YPoly({0: 1}), YZPoly({(0, 0): 1})
        mixed = [(op, a, b) for op in (operator.add, operator.sub, operator.mul) for a, b in ((y, yz), (yz, y))]
        for op, a, b in [*mixed, (operator.add, y, 1)]:
            with pytest.raises(TypeError):
                op(a, b)
        assert (y == yz) is False

    def test_str_rendering(self):
        assert str(YPoly.zero()) == "0"
        assert str(YPoly({1: 1})) == "y"
        assert str(YPoly({0: 1, 2: 5, 4: 4})) == "1 + 5y^2 + 4y^4"
        assert str(YPoly({0: -2, 1: 3, 2: -1})) == "-2 + 3y - y^2"
        assert str(YZPoly({(2, 3): 6, (0, 5): 2})) == "2z^5 + 6y^2z^3"

    def test_serialize_canonical_order(self):
        # the order `poly --format json` writes: ascending exponent
        assert YPoly({3: 2, 1: 2}).terms() == [(1, 2), (3, 2)]

    def test_terms_sorted(self):
        p = YZPoly({(1, 2): 1, (0, 3): 1, (1, 0): 1})
        assert [key for key, _ in p.terms()] == [(0, 3), (1, 0), (1, 2)]

    @given(y_polys, y_polys)
    def test_y_ring_matches_z_free_embedding(self, f, g):
        assert z_free(f * g) == z_free(f) * z_free(g)
        assert z_free(f + g) == z_free(f) + z_free(g)
        assert z_free(f - g) == z_free(f) - z_free(g)

    @given(y_polys, y_polys, yz_polys, yz_polys)
    def test_product_matches_evaluation(self, f, g, u, v):
        # __call__ sums its terms without the product loop both rings share,
        # so it checks that loop where the z-free embedding above reuses it
        points = (Fraction(0), Fraction(-3, 7), Fraction(5, 2))
        for x in points:
            assert (f * g)(x) == f(x) * g(x)
        for y, z in product(points, repeat=2):
            assert (u * v)(y, z) == u(y, z) * v(y, z)

    def test_evaluation(self):
        p = YPoly({0: 1, 2: 2})
        assert p(3) == 19
        q = YZPoly({(1, 1): 2})
        assert q(3, 5) == 30

    def test_yz_monomials_render(self):
        rendered = [str(YZPoly({(a, b): 1})) for a, b in product(range(3), repeat=2)]
        assert rendered == ["1", "z", "z^2", "y", "yz", "yz^2", "y^2", "y^2z", "y^2z^2"]

    @given(y_polys, st.fractions(), st.fractions())
    def test_z_free_renders_and_evaluates_as_its_y_poly(self, f, u, v):
        # both keys go through the one renderer and the one evaluator
        assert str(z_free(f)) == str(f)
        assert z_free(f)(u, v) == f(u)

    def test_evaluation_takes_one_value_per_variable(self):
        wrong_arity = [(YPoly({1: 1}), (2, 3)), (YPoly(), (2, 3)), (YZPoly({(1, 1): 1}), (2,)), (YZPoly(), (2,))]
        for poly, values in wrong_arity:
            with pytest.raises(TypeError):
                poly(*values)


@contextmanager
def lifted_digit_limit():
    """The interpreter's int -> str digit limit lifted, as the CLI runs."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@contextmanager
def default_digit_limit():
    """The interpreter's int -> str digit limit set to its default, 4300."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextmanager
def watched_splits():
    """Collect the high half of every split _digits makes: the quotient of
    its one division."""
    highs: list[int] = []

    def spy(dividend: int, divisor: int) -> tuple[int, int]:
        hi, rest = divmod(dividend, divisor)
        highs.append(hi)
        return hi, rest

    with lifted_digit_limit(), mock.patch.object(symbolic, "divmod", spy, create=True):
        yield highs


# decimal exponents around the leaf size (500 digits) and the band edges
# (1,000 and 15,000 digits), and bit lengths around the same three
EDGE_DIGITS = [*range(495, 506), *range(995, 1006), *range(14995, 15006)]
EDGE_BITS = [*range(1655, 1668), *range(3315, 3330), *range(49825, 49845)]


class TestDigits:
    def test_equals_str_at_the_edges(self):
        values = [0, 1, 9, 10, 10**5000 + 7, 3 * 10**4200 + 10**7]
        values += [10**k + e for k in EDGE_DIGITS for e in (-1, 0, 1)]
        values += [2**k + e for k in EDGE_BITS for e in (-1, 0)]
        with watched_splits() as highs:
            for c in values + [-c for c in values]:
                assert _digits(c) == str(c), c
        assert highs and min(highs) >= 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 150_000), st.integers(0, 2**32), st.integers(0, 3))
    def test_equals_str(self, bits, seed, shift):
        c = random.Random(seed).getrandbits(bits) >> shift
        with watched_splits() as highs:
            assert _digits(c) == str(c)
            assert _digits(-c) == str(-c)
        assert all(hi >= 1 for hi in highs)

    def test_digit_estimate_is_at_most_the_digit_count(self):
        # c >= 2^(b-1) for c of bit length b, so 10^(n-1) <= 2^(b-1) gives
        # hi >= 1 at every split; checked for every b up to past the band
        low, m, power = 1, 0, 1  # 2^(b-1) and power = 10^m
        for b in range(1, 50_000):
            n = b * 1233 >> 12
            while m < n - 1:
                m, power = m + 1, power * 10
            assert power <= low, b
            low <<= 1

    def test_library_rendering_unchanged(self):
        p = YPoly({0: -2, 1: 3, 2: -1, 5: 12})
        assert list(p._pieces()) == ["-2", " + 3y", " - y^2", " + 12y^5"]
        assert list(YZPoly({(2, 3): -6, (0, 5): 1})._pieces()) == ["z^5", " - 6y^2z^3"]
        assert list(YPoly.zero()._pieces()) == ["0"]
        big = hoffman_p(1000) - YPoly({7: 10**5000})
        with watched_splits() as highs:
            pieces = list(big._pieces())
        assert highs  # the in-band coefficients were split
        with lifted_digit_limit(), mock.patch.object(symbolic, "_digits", str):
            assert list(big._pieces()) == pieces

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit")
    def test_library_rendering_keeps_the_digit_limit(self):
        p = YPoly({0: 1, 3: 10**4999})
        with default_digit_limit():
            with pytest.raises(ValueError):
                str(p)
            with pytest.raises(ValueError):
                list(p._pieces())

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit")
    def test_drop_in_for_str_under_a_set_limit(self):
        def outcome(render, c):
            try:
                return render(c)
            except ValueError:
                return ValueError

        values = [10**999, 10**1000 + 7, 10**4299, 10**4300, 10**5000]
        with default_digit_limit():
            for c in values + [-c for c in values]:
                assert outcome(_digits, c) == outcome(str, c), c.bit_length()


class TestDerivation:
    def test_base_cases(self):
        assert diff(YZPoly.z()) == YZPoly({(1, 1): 1})
        assert diff(YZPoly.y()) == YZPoly({(0, 2): 1})
        assert diff(YZPoly.one()) == YZPoly.zero()

    def test_product_rule_by_hand(self):
        # y*z^3 -> z^5 + 3y^2z^3
        assert diff(YZPoly({(1, 3): 1})) == YZPoly({(0, 5): 1, (2, 3): 3})

    @given(yz_polys, yz_polys)
    def test_product_rule(self, p, q):
        assert diff(p * q) == diff(p) * q + p * diff(q)

    @given(yz_polys, yz_polys)
    def test_linearity(self, p, q):
        assert diff(p + q) == diff(p) + diff(q)


class TestWeightedOperator:
    def test_single_steps(self):
        assert apply_dz(YZPoly.z()) == YZPoly({(1, 2): 2})
        assert apply_dz(YZPoly.y()) == YZPoly({(2, 1): 1, (0, 3): 1})
        assert apply_dz(YZPoly({(1, 2): 2})) == YZPoly({(2, 3): 6, (0, 5): 2})

    @given(yz_polys)
    def test_monomial_map_is_diff_of_z_times_p(self, p):
        assert apply_dz(p) == diff(YZPoly.z() * p)

    def test_iterates_are_diff_of_z_times_p(self):
        # the drawn polynomials above are small; the iterates reach degree 31
        for n, p, q in zip(range(31), dz_seq(YZPoly.z()), dz_seq(YZPoly.y())):
            assert apply_dz(p) == diff(YZPoly.z() * p), n
            assert apply_dz(q) == diff(YZPoly.z() * q), n

    def test_iteration(self):
        assert dz_iter(0, YZPoly.z()) == YZPoly.z()
        assert dz_iter(1, YZPoly.y()) == YZPoly({(2, 1): 1, (0, 3): 1})
        assert dz_iter(2, YZPoly.z()) == YZPoly({(2, 3): 6, (0, 5): 2})
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            dz_iter(-1, YZPoly.z())

    def test_iterates_exactly_against_calculus(self):
        # With s = sin x, d/ds = z D, so iterate m of p -> D(z p) on z is
        # z^-1 d^m/ds^m of g = 1/(1 - s^2), and on y of g = s/(1 - s^2). That
        # derivative is N(s)/(1 - s^2)^(m+1) for a polynomial N; as s = y/z and
        # 1/(1 - s^2) = z^2, the coefficient of s^j in N is that of
        # y^j z^(2m+1-j) in the iterate.
        s = sympy.Symbol("s")
        for seed, g in ((YZPoly.z(), 1 / (1 - s**2)), (YZPoly.y(), s / (1 - s**2))):
            for m, p in zip(range(16), dz_seq(seed)):
                numer = sympy.Poly(sympy.cancel(g * (1 - s**2) ** (m + 1)), s)
                assert dict(p.terms()) == {(j, 2 * m + 1 - j): int(c) for (j,), c in numer.terms()}, m
                g = sympy.diff(g, s)


class TestReduction:
    def test_examples(self):
        assert reduce_z(YZPoly({(0, 2): 1})) == ReducedPair(YPoly({0: 1, 2: 1}), YPoly.zero())
        assert reduce_z(YZPoly({(3, 0): 1})) == ReducedPair(YPoly({3: 1}), YPoly.zero())
        assert reduce_z(YZPoly({(1, 2): 2})) == ReducedPair(YPoly({1: 2, 3: 2}), YPoly.zero())

    @given(yz_polys)
    def test_embed_reduce_round_trip(self, p):
        pair = reduce_z(p)
        assert reduce_z(pair.embed()) == pair

    @given(y_polys, y_polys)
    def test_reduce_is_canonical_on_representatives(self, f, g):
        pair = ReducedPair(f, g)
        assert reduce_z(pair.embed()) == pair

    def test_reduced_diff_examples(self):
        assert reduced_diff(ReducedPair(YPoly.y(), YPoly.zero())) == ReducedPair(
            YPoly({0: 1, 2: 1}), YPoly.zero()
        )
        assert reduced_diff(ReducedPair(YPoly.zero(), YPoly.one())) == ReducedPair(
            YPoly.zero(), YPoly.y()
        )
        assert reduced_diff(ReducedPair(YPoly.zero(), YPoly.y())) == ReducedPair(
            YPoly.zero(), YPoly({0: 1, 2: 2})
        )

    @given(yz_polys)
    @example(YZPoly({(0, 0): 1, (3, 0): -2, (2, 1): 3, (5, 3): -4, (1, 4): 5, (4, 6): 6}))
    def test_matches_evaluation_at_pythagorean_points(self, p):
        # evaluated from the terms alone, with z taking the value the quotient assumes
        pair = reduce_z(p)
        for y, z in PYTHAGOREAN_POINTS:
            value = sum(c * y**a * z**b for (a, b), c in p.terms())
            f = sum(c * y**a for a, c in pair.f.terms())
            g = sum(c * y**a for a, c in pair.g.terms())
            assert value == f + z * g

    @given(yz_polys)
    @settings(max_examples=200)
    def test_derivation_well_defined_on_quotient(self, p):
        assert reduce_z(diff(p)) == reduced_diff(reduce_z(p))


class TestHoffmanFamilies:
    def test_base_and_small_cases(self):
        assert hoffman_p(0) == YPoly.y()
        assert hoffman_q(0) == YPoly.one()
        assert hoffman_p(1) == YPoly({0: 1, 2: 1})
        assert hoffman_q(1) == YPoly.y()
        assert hoffman_p(2) == YPoly({1: 2, 3: 2})
        assert hoffman_q(2) == YPoly({0: 1, 2: 2})
        assert hoffman_p(3) == YPoly({0: 2, 2: 8, 4: 6})
        assert hoffman_q(3) == YPoly({1: 5, 3: 6})

    def test_negative_index_rejected(self):
        for fn in (hoffman_p, hoffman_q):
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                fn(-1)

    def test_rows_match_reduced_diff(self):
        # reduced_diff on dict pairs is the reference for the step on dense rows
        p_pair = ReducedPair(YPoly.y(), YPoly.zero())
        q_pair = ReducedPair(YPoly.zero(), YPoly.one())
        for n, p, q in zip(range(201), hoffman_p_seq(), hoffman_q_seq()):
            assert (p, YPoly.zero()) == p_pair, n
            assert (YPoly.zero(), q) == q_pair, n
            if n < 200:
                p_pair, q_pair = reduced_diff(p_pair), reduced_diff(q_pair)
        assert (hoffman_p(200), hoffman_q(200)) == (p_pair.f, q_pair.g)

    @pytest.mark.parametrize("fn, n", [(hoffman_p, 1500), (hoffman_q, 800)], ids=["P-1500", "Q-800"])
    def test_step_holds_two_rows(self, fn, n):
        # Only the old and the new row are alive during a step, so the peak
        # stays near twice the result's coefficients; a step that first
        # lists every a*c holds a third row and peaks at 3x or more.
        tracemalloc.start()
        try:
            poly = fn(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * sum(sys.getsizeof(c) for _, c in poly.terms())

    @pytest.mark.parametrize("n", range(21))
    def test_reduction_of_plain_derivatives(self, n):
        dy = YZPoly.y()
        dz = YZPoly.z()
        for _ in range(n):
            dy = diff(dy)
            dz = diff(dz)
        assert reduce_z(dy) == ReducedPair(hoffman_p(n), YPoly.zero())
        assert reduce_z(dz) == ReducedPair(YPoly.zero(), hoffman_q(n))

    @pytest.mark.parametrize("n", [*range(61), 400])
    def test_zigzag_values_and_leading_coefficient(self, n):
        zigzag = euler_zigzag(n)[n]
        p, q = hoffman_p(n), hoffman_q(n)
        assert p.coefficient(0) == (zigzag if n % 2 else 0)
        assert q.coefficient(0) == (0 if n % 2 else zigzag)
        assert p.terms()[-1] == (n + 1, math.factorial(n))
        assert q.terms()[-1] == (n, math.factorial(n))

    def test_exactly_against_calculus(self):
        # one sweep of sympy derivatives, expanded at each step so they stay
        # sums of products of powers of tan(x) and sec(x); every n is checked
        tan, sec = sympy.tan(X), sympy.sec(X)
        for n in range(41):
            if n:
                tan, sec = sympy.expand(sympy.diff(tan, X)), sympy.expand(sympy.diff(sec, X))
            assert reduced_coefficients(tan) == (dict(hoffman_p(n).terms()), {}), n
            assert reduced_coefficients(sec) == ({}, dict(hoffman_q(n).terms())), n



class TestRTFamilies:
    @pytest.mark.parametrize("n", sorted(R_FAMILY))
    def test_closed_forms_match_fixed_data(self, n):
        assert r_poly_closed(n) == YPoly(R_FAMILY[n])
        assert t_poly_closed(n) == YPoly(T_FAMILY[n])

    @pytest.mark.parametrize("n", sorted(R_FAMILY))
    def test_operator_route_matches_fixed_data(self, n):
        assert r_poly_dz(n) == YPoly(R_FAMILY[n])
        assert t_poly_dz(n) == YPoly(T_FAMILY[n])

    def test_index_zero_rejected(self):
        for fn in (r_poly_closed, t_poly_closed, r_poly_dz, t_poly_dz):
            with pytest.raises(ValueError, match="^n must be at least 1$"):
                fn(0)

    def test_both_routes_agree(self):
        for n in (*range(1, 16), 40):
            assert r_poly_closed(n) == r_poly_dz(n)
            assert t_poly_closed(n) == t_poly_dz(n)

    def test_parity_and_term_counts(self):
        for n in range(1, 16):
            # the Rtilde source has even exponents only, the Ttilde source odd only
            even_source = t_poly_closed(n) if n % 2 == 0 else r_poly_closed(n)
            odd_source = r_poly_closed(n) if n % 2 == 0 else t_poly_closed(n)
            assert all(a % 2 == 0 for a, _ in even_source.terms())
            assert all(a % 2 == 1 for a, _ in odd_source.terms())
            assert len(even_source.terms()) == n
            assert len(odd_source.terms()) == n

    def test_exactly_against_calculus(self):
        # one sweep of the weighted step f -> d/dx(sec(x) f) on sec and on tan,
        # expanded at each step; the (n-1)-th iterate reduces to (n-1)! R_n or
        # (n-1)! T_n, on the z part for odd R_n and even T_n, z-free otherwise;
        # every n is checked
        r, t = sympy.sec(X), sympy.tan(X)
        for n in range(1, 31):
            if n > 1:
                r, t = (sympy.expand(sympy.diff(sympy.sec(X) * f, X)) for f in (r, t))
            scale = math.factorial(n - 1)
            for f, closed, z_part in ((r, r_poly_closed(n), n % 2), (t, t_poly_closed(n), 1 - n % 2)):
                parts = [{a: Fraction(c, scale) for a, c in part.items()} for part in reduced_coefficients(f)]
                want = dict(closed.terms())
                assert parts == ([{}, want] if z_part else [want, {}]), n

    def test_closed_forms_match_fibonacci_type_recurrence(self):
        # n = 2000 reaches powers of 1 + y^2 up to 1999
        families = [
            (r_poly_closed, fibonacci_type([], [1], 1, 1, 2000)),
            (t_poly_closed, chain([(1, [0, 1])], fibonacci_type([0, 1], [1, 0, 2], 2, 0, 2000))),
        ]
        for closed, recurrence in families:
            for n, coefs in recurrence:
                if n <= 300 or n == 2000:
                    assert closed(n) == YPoly(dict(enumerate(coefs))), n

    def test_tilde_rows_match_fibonacci_type_recurrence(self):
        # Row n of Rtilde is R_n (odd n) or T_n (even n) at y^0, y^2, ...,
        # and row n of Ttilde the other one at y^1, y^3, ...
        r_rec = fibonacci_type([], [1], 1, 1, 300)
        t_rec = chain([(1, [0, 1])], fibonacci_type([0, 1], [1, 0, 2], 2, 0, 300))
        last = 0
        for (n, r), (_, t), (r_row, t_row) in zip(r_rec, t_rec, tilde_rows()):
            even, odd = (r, t) if n % 2 else (t, r)
            assert r_row == tuple(even[0::2]), n
            assert t_row == tuple(odd[1::2]), n
            last = n
        assert last == 300

    def test_reduced_iterates_are_the_scaled_members(self):
        # The iterates of dz_seq are the M/N expansions; reduced, the (n-1)-th
        # is (n-1)! times member n on one part and zero on the other: the z
        # part for odd R_n and even T_n, the z-free part otherwise.
        zero = YPoly.zero()
        routes = zip(range(1, 61), dz_seq(YZPoly.z()), dz_seq(YZPoly.y()), r_poly_dz_seq(), t_poly_dz_seq())
        for n, p, q, r, t in routes:
            scale = math.factorial(n - 1)
            assert reduce_z(p) == ((zero, scale * r) if n % 2 else (scale * r, zero)), n
            assert reduce_z(q) == ((scale * t, zero) if n % 2 else (zero, scale * t)), n

    def test_exact_division_guard(self):
        # the row [1] (z, member 1 of R) steps to [2, 2], which 3 does not divide
        assert _dz_step([1], 0, 1) == [2, 2]
        with pytest.raises(InternalInconsistencyError, match="coefficient 2 of y\\^1 not divisible by 3"):
            _dz_step([1], 0, 3)
        # T_2 = 1 + 2y^2 steps to 2 * T_3 = 6y + 14y^3 + 8y^5; 4 divides only the last
        assert _dz_step([1, 2], 0, 2) == [3, 7, 4]
        with pytest.raises(InternalInconsistencyError, match="coefficient 6 of y\\^1 not divisible by 4"):
            _dz_step([1, 2], 0, 4)

    def test_one_selector_per_pair(self):
        # s = 0 picks the first family of a pair (R, P) and s = 1 the second (T, Q)
        for s in (0, 1):
            for n, operator_row in zip(range(1, 41), _dz_rows(s)):
                assert _binomial_closed_row(n, s) == operator_row, (s, n)
        for s, member in ((0, hoffman_p), (1, hoffman_q)):
            for n, row in zip(range(30), _hoffman_rows(s)):
                assert _stride_poly(*row) == member(n), (s, n)


class TestVerifySuites:
    def test_operator_expansion(self):
        report = verify_operator_expansion(15)
        assert report.passed and report.checked == 32

    def test_hoffman(self):
        report = verify_hoffman(15)
        assert report.passed and report.checked == 32

    def test_closed_forms(self):
        report = verify_closed_forms(15)
        assert report.passed and report.checked == 60
