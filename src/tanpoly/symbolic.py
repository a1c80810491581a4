"""Exact polynomial algebra for the tangent-secant derivation.

Write y = tan(x) and z = sec(x). Differentiation by x acts on polynomials
in y and z as the derivation D with D(y) = z^2 and D(z) = yz, extended by
linearity and the product rule. The weighted operator p -> D(z * p)
generates the expansions whose coefficients are the M and N triangles,
and reduction by the identity z^2 = 1 + y^2 produces the single-variable
polynomial families:

    P_n, Q_n   derivative polynomials: D^n(y) = P_n(y), D^n(z) = z Q_n(y)
    R_n, T_n   factorial-normalized reductions of the iterated weighted
               operator applied to z and to y

YZPoly is a sparse integer polynomial in the commuting variables y and z;
YPoly is the same in y alone. ReducedPair (f, g) is the canonical
representative f(y) + z*g(y) of a YZPoly in the quotient ring
Z[y, z]/(z^2 - 1 - y^2). All values are immutable and functions are pure;
nothing here uses floating point.

Canonical monomial order for iteration, display, and serialization:
ascending y-exponent, then ascending z-exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .report import VerifyReport, failure
from .triangles import m_closed, n_closed, r_coef, t_coef


class InternalInconsistencyError(Exception):
    """An exact structural identity failed; results would be wrong, so abort."""


class YPoly:
    """Sparse integer polynomial in y; zero coefficients are never stored."""

    __slots__ = ("_coef",)

    def __init__(self, coef: Mapping[int, int] | None = None):
        cleaned: dict[int, int] = {}
        if coef:
            for a, c in coef.items():
                if a < 0:
                    raise ValueError("negative exponent")
                if c:
                    cleaned[a] = c
        self._coef = cleaned

    @classmethod
    def zero(cls) -> YPoly:
        return cls()

    @classmethod
    def one(cls) -> YPoly:
        return cls({0: 1})

    @classmethod
    def y(cls) -> YPoly:
        return cls({1: 1})

    def coefficient(self, a: int) -> int:
        return self._coef.get(a, 0)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in canonical order."""
        return sorted(self._coef.items())

    def derivative(self) -> YPoly:
        return YPoly({a - 1: a * c for a, c in self._coef.items() if a})

    def __call__(self, value):
        """Evaluate at any value supporting + and * (exact or symbolic)."""
        result = 0
        for a, c in self.terms():
            result = result + c * value**a
        return result

    def __add__(self, other: YPoly) -> YPoly:
        if not isinstance(other, YPoly):
            return NotImplemented
        merged = dict(self._coef)
        for a, c in other._coef.items():
            merged[a] = merged.get(a, 0) + c
        return YPoly(merged)

    def __neg__(self) -> YPoly:
        return YPoly({a: -c for a, c in self._coef.items()})

    def __sub__(self, other: YPoly) -> YPoly:
        if not isinstance(other, YPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: YPoly | int) -> YPoly:
        if isinstance(other, int):
            return YPoly({a: c * other for a, c in self._coef.items()})
        if not isinstance(other, YPoly):
            return NotImplemented
        product: dict[int, int] = {}
        for a, c in self._coef.items():
            for a2, c2 in other._coef.items():
                product[a + a2] = product.get(a + a2, 0) + c * c2
        return YPoly(product)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> YPoly:
        if n < 0:
            raise ValueError("negative exponent")
        result = YPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YPoly):
            return NotImplemented
        return self._coef == other._coef

    def __bool__(self) -> bool:
        return bool(self._coef)

    def serialize(self) -> list[list]:
        """[[exponent, coefficient-as-decimal-string], ...] in canonical order."""
        return [[a, str(c)] for a, c in self.terms()]

    def __str__(self) -> str:
        return _render(self.terms(), _y_monomial)

    def __repr__(self) -> str:
        return f"YPoly({dict(self.terms())!r})"


class YZPoly:
    """Sparse integer polynomial in commuting y and z."""

    __slots__ = ("_coef",)

    def __init__(self, coef: Mapping[tuple[int, int], int] | None = None):
        cleaned: dict[tuple[int, int], int] = {}
        if coef:
            for (a, b), c in coef.items():
                if a < 0 or b < 0:
                    raise ValueError("negative exponent")
                if c:
                    cleaned[(a, b)] = c
        self._coef = cleaned

    @classmethod
    def zero(cls) -> YZPoly:
        return cls()

    @classmethod
    def one(cls) -> YZPoly:
        return cls({(0, 0): 1})

    @classmethod
    def y(cls) -> YZPoly:
        return cls({(1, 0): 1})

    @classmethod
    def z(cls) -> YZPoly:
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> YZPoly:
        return cls({(a, b): c})

    def coefficient(self, a: int, b: int) -> int:
        return self._coef.get((a, b), 0)

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        """((y-exp, z-exp), coefficient) pairs in canonical order."""
        return sorted(self._coef.items())

    def __call__(self, y_value, z_value):
        """Evaluate at any values supporting + and * (exact or symbolic)."""
        result = 0
        for (a, b), c in self.terms():
            result = result + c * y_value**a * z_value**b
        return result

    def __add__(self, other: YZPoly) -> YZPoly:
        if not isinstance(other, YZPoly):
            return NotImplemented
        merged = dict(self._coef)
        for key, c in other._coef.items():
            merged[key] = merged.get(key, 0) + c
        return YZPoly(merged)

    def __neg__(self) -> YZPoly:
        return YZPoly({key: -c for key, c in self._coef.items()})

    def __sub__(self, other: YZPoly) -> YZPoly:
        if not isinstance(other, YZPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: YZPoly | int) -> YZPoly:
        if isinstance(other, int):
            return YZPoly({key: c * other for key, c in self._coef.items()})
        if not isinstance(other, YZPoly):
            return NotImplemented
        product: dict[tuple[int, int], int] = {}
        for (a, b), c in self._coef.items():
            for (a2, b2), c2 in other._coef.items():
                key = (a + a2, b + b2)
                product[key] = product.get(key, 0) + c * c2
        return YZPoly(product)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> YZPoly:
        if n < 0:
            raise ValueError("negative exponent")
        result = YZPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YZPoly):
            return NotImplemented
        return self._coef == other._coef

    def __bool__(self) -> bool:
        return bool(self._coef)

    def serialize(self) -> list[list]:
        """[[y-exp, z-exp, coefficient-as-decimal-string], ...] in canonical order."""
        return [[a, b, str(c)] for (a, b), c in self.terms()]

    def __str__(self) -> str:
        return _render(self.terms(), _yz_monomial)

    def __repr__(self) -> str:
        return f"YZPoly({dict(self.terms())!r})"


def _y_monomial(a: int) -> str:
    if a == 0:
        return ""
    return "y" if a == 1 else f"y^{a}"


def _yz_monomial(key: tuple[int, int]) -> str:
    a, b = key
    z_part = "" if b == 0 else ("z" if b == 1 else f"z^{b}")
    return _y_monomial(a) + z_part


def _render(terms, monomial) -> str:
    if not terms:
        return "0"
    pieces = []
    for i, (key, c) in enumerate(terms):
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        body = monomial(key)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}{body}"
        pieces.append(sign + body)
    return "".join(pieces)


_Y = YPoly.y()
_ONE_PLUS_Y2 = YPoly({0: 1, 2: 1})


@lru_cache(maxsize=None)
def _one_plus_y2_pow(j: int) -> YPoly:
    """(1 + y^2)^j, built term by term with the exact step C(j, k+1) = C(j, k)(j-k)/(k+1)."""
    coef: dict[int, int] = {}
    c = 1
    for k in range(j + 1):
        coef[2 * k] = c
        c = c * (j - k) // (k + 1)
    return YPoly(coef)


@dataclass(frozen=True)
class ReducedPair:
    """Canonical representative f(y) + z*g(y) modulo z^2 = 1 + y^2."""

    f: YPoly
    g: YPoly

    def embed(self) -> YZPoly:
        """Back to a YZPoly with z-exponents 0 and 1 only."""
        coef: dict[tuple[int, int], int] = {}
        for a, c in self.f.terms():
            coef[(a, 0)] = c
        for a, c in self.g.terms():
            coef[(a, 1)] = c
        return YZPoly(coef)


def diff(p: YZPoly) -> YZPoly:
    """The derivation with diff(y) = z^2 and diff(z) = yz.

    On a monomial: c*y^a*z^b -> c*a*y^(a-1)*z^(b+2) + c*b*y^(a+1)*z^b.
    """
    acc: dict[tuple[int, int], int] = {}
    for (a, b), c in p._coef.items():
        if a:
            key = (a - 1, b + 2)
            acc[key] = acc.get(key, 0) + c * a
        if b:
            key = (a + 1, b)
            acc[key] = acc.get(key, 0) + c * b
    return YZPoly(acc)


def apply_dz(p: YZPoly) -> YZPoly:
    """One step of the weighted operator: diff of z * p."""
    return diff(YZPoly.z() * p)


def dz_iter(n: int, seed: YZPoly) -> YZPoly:
    """n-fold application of apply_dz; returns seed unchanged for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = seed
    for _ in range(n):
        p = apply_dz(p)
    return p


def reduce_z(p: YZPoly) -> ReducedPair:
    """Canonical form modulo z^2 = 1 + y^2.

    Every z^(2j) becomes (1 + y^2)^j and z^(2j+1) becomes z * (1 + y^2)^j.
    """
    f: dict[int, int] = {}
    g: dict[int, int] = {}
    for (a, b), c in p._coef.items():
        j, odd = divmod(b, 2)
        target = g if odd else f
        for e, w in _one_plus_y2_pow(j)._coef.items():
            target[a + e] = target.get(a + e, 0) + c * w
    return ReducedPair(YPoly(f), YPoly(g))


def reduced_diff(pair: ReducedPair) -> ReducedPair:
    """The derivation induced on canonical representatives.

    (f, g) -> ((1 + y^2) f', y g + (1 + y^2) g'); this commutes with
    reduce_z because diff(z^2) = 2yz^2 = diff(1 + y^2) in the quotient.
    """
    new_f = _ONE_PLUS_Y2 * pair.f.derivative()
    new_g = _Y * pair.g + _ONE_PLUS_Y2 * pair.g.derivative()
    return ReducedPair(new_f, new_g)


def hoffman_p(n: int) -> YPoly:
    """Derivative polynomial of the tangent: P_0 = y, P_{k+1} = (1+y^2) P_k'."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = YPoly.y()
    for _ in range(n):
        p = _ONE_PLUS_Y2 * p.derivative()
    return p


def hoffman_q(n: int) -> YPoly:
    """Derivative polynomial of the secant: Q_0 = 1, Q_{k+1} = (1+y^2) Q_k' + y Q_k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = YPoly.one()
    for _ in range(n):
        q = _ONE_PLUS_Y2 * q.derivative() + _Y * q
    return q


def r_poly_closed(n: int) -> YPoly:
    """R_n by the explicit binomial formula, for n >= 1.

    R_n(y) = sum over k <= floor((n-1)/2) of
             C(n, 2k+1) * y^(n-2k-1) * (1 + y^2)^(floor(n/2) + k).
    """
    if n < 1:
        raise ValueError("family is defined for n >= 1")
    acc = YPoly.zero()
    for k in range((n - 1) // 2 + 1):
        acc = acc + _one_plus_y2_pow(n // 2 + k) * YPoly({n - 2 * k - 1: r_coef(n, k)})
    return acc


def t_poly_closed(n: int) -> YPoly:
    """T_n by the explicit binomial formula, for n >= 1.

    T_n(y) = sum over k <= floor(n/2) of
             C(n, 2k) * y^(n-2k) * (1 + y^2)^(floor((n-1)/2) + k).
    """
    if n < 1:
        raise ValueError("family is defined for n >= 1")
    acc = YPoly.zero()
    for k in range(n // 2 + 1):
        acc = acc + _one_plus_y2_pow((n - 1) // 2 + k) * YPoly({n - 2 * k: t_coef(n, k)})
    return acc


def r_poly_dz(n: int) -> YPoly:
    """R_n extracted from the (n-1)-th weighted-operator iterate on z.

    After reduction the iterate must sit entirely on the z-free part (even
    n) or the z part (odd n), and every coefficient must divide exactly by
    (n-1)!. A violation raises InternalInconsistencyError: it would mean
    the parity structure of the expansion is broken, so truncating or
    rounding is never acceptable.
    """
    if n < 1:
        raise ValueError("family is defined for n >= 1")
    pair = reduce_z(dz_iter(n - 1, YZPoly.z()))
    return _extract_scaled(pair, z_part=(n % 2 == 1), scale=math.factorial(n - 1))


def t_poly_dz(n: int) -> YPoly:
    """T_n extracted from the (n-1)-th weighted-operator iterate on y.

    Parity is opposite to the R family: odd n sits on the z-free part,
    even n on the z part. Same exactness guarantees as r_poly_dz.
    """
    if n < 1:
        raise ValueError("family is defined for n >= 1")
    pair = reduce_z(dz_iter(n - 1, YZPoly.y()))
    return _extract_scaled(pair, z_part=(n % 2 == 0), scale=math.factorial(n - 1))


def _extract_scaled(pair: ReducedPair, z_part: bool, scale: int) -> YPoly:
    kept, dropped, where = (pair.g, pair.f, "z-free") if z_part else (pair.f, pair.g, "z")
    if dropped:
        raise InternalInconsistencyError(f"unexpected {where} component: {dropped}")
    return _exact_div(kept, scale)


def _exact_div(p: YPoly, d: int) -> YPoly:
    quotient: dict[int, int] = {}
    for a, c in p._coef.items():
        q, rem = divmod(c, d)
        if rem:
            raise InternalInconsistencyError(f"coefficient {c} of y^{a} not divisible by {d}")
        quotient[a] = q
    return YPoly(quotient)


def verify_operator_expansion(max_n: int) -> VerifyReport:
    """Check the iterates on z and y monomial-by-monomial against M and N.

    The n-th iterate on z must consist of exactly the monomials
    y^(n-2k) z^(n+2k+1) with coefficient M(n, k), and the iterate on y of
    y^(n-2k+1) z^(n+2k) with coefficient N(n, k); nothing else may appear.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    failures = []
    checked = 0
    p = YZPoly.z()
    q = YZPoly.y()
    for n in range(max_n + 1):
        want_m = {(n - 2 * k, n + 2 * k + 1): m_closed(n, k) for k in range(n // 2 + 1)}
        got_m = dict(p._coef)
        checked += 1
        if got_m != want_m:
            failures.append(failure(family="M", n=n, got=sorted(got_m.items()), want=sorted(want_m.items())))
        want_n = {(n - 2 * k + 1, n + 2 * k): n_closed(n, k) for k in range((n + 1) // 2 + 1)}
        got_n = dict(q._coef)
        checked += 1
        if got_n != want_n:
            failures.append(failure(family="N", n=n, got=sorted(got_n.items()), want=sorted(want_n.items())))
        p = apply_dz(p)
        q = apply_dz(q)
    return VerifyReport("dz-expansion", checked, tuple(failures))


def verify_hoffman(max_n: int) -> VerifyReport:
    """Check n-fold plain derivatives of y and z against the P and Q recurrences."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    failures = []
    checked = 0
    dy = YZPoly.y()
    dz = YZPoly.z()
    for n in range(max_n + 1):
        checked += 1
        if reduce_z(dy) != ReducedPair(hoffman_p(n), YPoly.zero()):
            failures.append(failure(family="P", n=n, got=str(reduce_z(dy)), want=str(hoffman_p(n))))
        checked += 1
        if reduce_z(dz) != ReducedPair(YPoly.zero(), hoffman_q(n)):
            failures.append(failure(family="Q", n=n, got=str(reduce_z(dz)), want=str(hoffman_q(n))))
        dy = diff(dy)
        dz = diff(dz)
    return VerifyReport("hoffman", checked, tuple(failures))


def verify_closed_forms(max_n: int) -> VerifyReport:
    """Check the binomial closed forms against the operator extraction route."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        checked += 1
        if r_poly_closed(n) != r_poly_dz(n):
            failures.append(failure(family="R", n=n, closed=r_poly_closed(n), operator=r_poly_dz(n)))
        checked += 1
        if t_poly_closed(n) != t_poly_dz(n):
            failures.append(failure(family="T", n=n, closed=t_poly_closed(n), operator=t_poly_dz(n)))
    return VerifyReport("theorem2", checked, tuple(failures))
