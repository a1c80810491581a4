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

Row n of the Rtilde and Ttilde triangles holds the coefficients of R_n and
T_n at even or odd powers of y; triangles.tilde_rows yields both rows of
each n, and is the recurrence route of R_n and T_n.

Each iterated route is one lazy sequence, which takes a step only when its
next item is drawn: dz_seq (apply_dz, which maps each monomial of p to
those of diff(z * p) directly), hoffman_p_seq/hoffman_q_seq
(_hoffman_step on parity-stride rows) and r_poly_dz_seq/t_poly_dz_seq
(_dz_step on parity-stride rows). dz_iter, hoffman_p/q and
r_poly_dz/t_poly_dz return item n (n-1 for R and T) of theirs through
triangles._item, the one per-n lookup, and make only that item a YPoly.
The verify suites sweep the sequences.

The operator route to R_n and T_n runs in the quotient ring. Only one part
of each reduced iterate is nonzero, so it is carried as one row, divided
by (n-1)! as member n: z*(z*g) = (1 + y^2)*g is z-free and z*f is the z
part of f, after which the derivative is the P or the Q step of
_hoffman_step. _dz_step takes that step and divides by n, exactly, to reach
member n+1; no iterate is reduced and no coefficient grows by a factorial.
reduce_z, which reduces a whole YZPoly, serves the hoffman suite and the
tests, which pin the reduction of the iterates of dz_seq to these rows.

YZPoly is a sparse integer polynomial in the commuting variables y and z;
YPoly is the same in y alone. Both share one ring implementation, the
product loop, evaluation and rendering included, and supply only their
monomial key: its unit, key sum, lowest exponent and exponents in y, z
order. diff and apply_dz are one monomial map, _derive, the derivative of
z^s * p at s = 0 and s = 1. str() joins the text of the terms that _pieces
yields one at a time, and the poly command writes the same pieces without
joining them. _pieces renders each coefficient by _digits: str under a set
int -> str digit limit, and by halves, to the same text, while the limit is
lifted, as in the CLI.
ReducedPair (f, g) is the canonical representative f(y) + z*g(y) of a
YZPoly in the quotient ring Z[y, z]/(z^2 - 1 - y^2); reduced_diff is the
derivation on such pairs. P_n and Q_n, and R_n and T_n on the operator
route, are stepped as dense rows of one parity, where row[i] is the
coefficient of y^(2i+e), and made YPoly only when drawn; _stride_poly is
the one conversion from such a row. The closed form of R_n or T_n is such a
row too: _binomial_closed_row makes it from triangles.r_row/t_row and sets
its parity, r_poly_closed and t_poly_closed wrap it, theorem2 compares it. R_n,
T_n come three ways that share no code: Horner's rule in w = 1 + y^2 on
their binomial closed forms (r_poly_closed, t_poly_closed), the operator
route on rows (r_poly_dz, t_poly_dz) and the recurrence rows of
triangles.tilde_rows. All values are immutable and functions are pure;
nothing here uses floating point.

Canonical monomial order for iteration, display, and serialization:
ascending y-exponent, then ascending z-exponent.
"""

from __future__ import annotations

import operator
import sys
from itertools import chain, count, islice, pairwise, starmap
from typing import Iterator, Mapping, NamedTuple

from .triangles import _item, r_row, t_row


class InternalInconsistencyError(Exception):
    """An exact structural identity failed; results would be wrong, so abort."""


class _SparsePoly:
    """Ring code shared by YPoly and YZPoly: a dict from monomial key to a
    nonzero int coefficient (any other is a TypeError), with the one product
    loop, evaluation and rendering. A subclass supplies only its key: the unit
    key _UNIT, the key sum _key_sum, which is the product of two monomials,
    _lowest_exponent, and _exponents, the exponents of a key in y, z order.
    """

    __slots__ = ("_coef",)

    def __init__(self, coef: Mapping | None = None):
        if coef and self._lowest_exponent(coef) < 0:
            raise ValueError("negative exponent")
        self._coef = {key: c for key, c in coef.items() if operator.index(c)} if coef else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: 1})

    def terms(self) -> list:
        """(key, coefficient) pairs in canonical order."""
        return sorted(self._coef.items())

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        merged = dict(self._coef)
        for key, c in other._coef.items():
            merged[key] = merged.get(key, 0) + c
        return type(self)(merged)

    def __neg__(self):
        return type(self)({key: -c for key, c in self._coef.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({key: c * other for key, c in self._coef.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        key_sum, product = self._key_sum, {}
        for key, c in self._coef.items():
            for key2, c2 in other._coef.items():
                summed = key_sum(key, key2)
                product[summed] = product.get(summed, 0) + c * c2
        return type(self)(product)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._coef == other._coef

    def __bool__(self) -> bool:
        return bool(self._coef)

    def __call__(self, *values):
        """Evaluate at one value per variable, y then z, each supporting +, *
        and ** by a nonnegative int, such as ints or Fractions (not YZPoly,
        which has no **)."""
        arity = len(self._exponents(self._UNIT))
        if len(values) != arity:
            raise TypeError(f"{type(self).__name__} takes {arity} values, got {len(values)}")
        result = 0
        for key, c in self.terms():
            for value, e in zip(values, self._exponents(key)):
                c = c * value**e
            result = result + c
        return result

    def _monomial(self, key) -> str:
        """y^a z^b as written in str(): "" for the unit, y, y^2, z, yz, ..."""
        return "".join(v if e == 1 else f"{v}^{e}" for v, e in zip("yz", self._exponents(key)) if e)

    def _pieces(self) -> Iterator[str]:
        """The text of str(self), one term at a time, so it can be written
        without being built whole."""
        terms = self.terms()
        if not terms:
            yield "0"
        for i, (key, c) in enumerate(terms):
            sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
            body = self._monomial(key)
            if not body or abs(c) != 1:
                body = _digits(abs(c)) + body
            yield sign + body

    def __str__(self) -> str:
        return "".join(self._pieces())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.terms())!r})"


def _digits(c: int) -> str:
    """str(c), faster for c >= 0 of 1,000 to 15,000 digits: c is split at
    10^d and the halves converted, down to pieces of under 1,000 digits.
    CPython's int -> str is quadratic in that band on 3.10 to 3.13, and the
    split measured 1.06 to 2.2 times as fast there on each. Below it the
    division costs what it saves; above it, 3.12 and later convert through
    _pylong, and on 3.13 the split no longer wins every time. It splits only
    while the int -> str digit limit reads 0 (lifted, or before 3.10.7); any
    other value or state gets str(c), so it returns or raises as str does.

    n = c.bit_length() * 1233 >> 12 is at most the digit count of c, since
    1233 / 4096 < log10(2). So c >= 10^(n-1) >= 10^d for d = n // 2, and
    the high half hi = c // 10^d is at least 1: its text has no leading
    zero, and the low half's is padded to d digits. As 10^d = 2^d * 5^d,
    hi is (c >> d) // 5^d and the low half is the remainder shifted back
    over c's low d bits: a division by 5^d, a third narrower than 10^d.
    """
    n = c.bit_length() * 1233 >> 12
    if not 1000 <= n <= 15000 or c < 0 or getattr(sys, "get_int_max_str_digits", int)():
        return str(c)
    d = n // 2
    hi, rest = divmod(c >> d, 5**d)
    return _digits(hi) + _digits(rest << d | c & ((1 << d) - 1)).zfill(d)


class YPoly(_SparsePoly):
    """Sparse integer polynomial in y, keyed by the y-exponent."""

    __slots__ = ()
    _UNIT = 0
    _key_sum = staticmethod(operator.add)

    @staticmethod
    def _lowest_exponent(keys) -> int:
        return min(keys)

    @staticmethod
    def _exponents(a: int) -> tuple[int]:
        return (a,)

    @classmethod
    def y(cls) -> YPoly:
        return cls({1: 1})

    def coefficient(self, a: int) -> int:
        return self._coef.get(a, 0)


class YZPoly(_SparsePoly):
    """Sparse integer polynomial in commuting y and z, keyed by (y-exp, z-exp)."""

    __slots__ = ()
    _UNIT = (0, 0)
    _exponents = staticmethod(tuple)

    @staticmethod
    def _lowest_exponent(keys) -> int:
        return min(map(min, keys))

    @classmethod
    def y(cls) -> YZPoly:
        return cls({(1, 0): 1})

    @classmethod
    def z(cls) -> YZPoly:
        return cls({(0, 1): 1})

    @staticmethod
    def _key_sum(key: tuple[int, int], key2: tuple[int, int]) -> tuple[int, int]:
        return key[0] + key2[0], key[1] + key2[1]


class ReducedPair(NamedTuple):
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
    """The derivation with diff(y) = z^2 and diff(z) = yz."""
    return _derive(p, 0)


def apply_dz(p: YZPoly) -> YZPoly:
    """One step of the weighted operator, diff of z * p."""
    return _derive(p, 1)


def _derive(p: YZPoly, s: int) -> YZPoly:
    """diff(z^s * p) as one monomial map, for s = 0 (diff) or s = 1 (apply_dz):

    c*y^a*z^b -> a*c*y^(a-1)*z^(b+s+2) + (b+s)*c*y^(a+1)*z^(b+s).
    """
    acc: dict[tuple[int, int], int] = {}
    for (a, b), c in p._coef.items():
        b += s
        if a:
            acc[a - 1, b + 2] = acc.get((a - 1, b + 2), 0) + a * c
        if b:
            acc[a + 1, b] = acc.get((a + 1, b), 0) + b * c
    return YZPoly(acc)


def dz_seq(seed: YZPoly) -> Iterator[YZPoly]:
    """seed, apply_dz(seed), apply_dz(apply_dz(seed)), ..."""
    p = seed
    while True:
        yield p
        p = apply_dz(p)


def dz_iter(n: int, seed: YZPoly) -> YZPoly:
    """n-fold application of apply_dz, item n of dz_seq(seed)."""
    return _item(dz_seq(seed), n)


def reduce_z(p: YZPoly) -> ReducedPair:
    """Canonical form modulo z^2 = 1 + y^2: z^(2j) becomes w^j = (1 + y^2)^j and
    z^(2j+1) becomes z * w^j. Each parity part of (a, b) is summed by Horner's
    rule over j on a list indexed by a >> 1; a step times w is one shift-add."""
    parts: dict[tuple[int, int], dict[int, list]] = {}
    for (a, b), c in p._coef.items():
        parts.setdefault((b & 1, a & 1), {}).setdefault(b >> 1, []).append((a >> 1, c))
    f: dict[int, int] = {}
    g: dict[int, int] = {}
    for (z_odd, y_odd), by_j in parts.items():
        acc: list[int] = []
        for j in range(max(by_j), -1, -1):
            acc = list(map(operator.add, acc + [0], [0] + acc))
            for i, c in by_j.get(j, ()):
                if i >= len(acc):
                    acc += [0] * (i + 1 - len(acc))
                acc[i] += c
        target = g if z_odd else f
        for i, c in enumerate(acc):
            target[2 * i + y_odd] = c
    return ReducedPair(YPoly(f), YPoly(g))


def reduced_diff(pair: ReducedPair) -> ReducedPair:
    """The derivation induced on canonical representatives.

    (f, g) -> ((1 + y^2) f', y g + (1 + y^2) g'); this commutes with
    reduce_z because diff(z^2) = 2yz^2 = diff(1 + y^2) in the quotient.
    On c*y^a, f gives a*c at y^(a-1) and y^(a+1); g gives a*c at y^(a-1)
    and (a+1)*c at y^(a+1). hoffman_p/hoffman_q step rows instead; this is
    the reference their tests compare against.
    """
    f: dict[int, int] = {}
    for a, c in pair.f._coef.items():
        if a:
            ac = a * c
            f[a - 1] = f.get(a - 1, 0) + ac
            f[a + 1] = f.get(a + 1, 0) + ac
    g: dict[int, int] = {}
    for a, c in pair.g._coef.items():
        if a:
            g[a - 1] = g.get(a - 1, 0) + a * c
        g[a + 1] = g.get(a + 1, 0) + (a + 1) * c
    return ReducedPair(YPoly(f), YPoly(g))


def _hoffman_step(row: list[int], e: int, s: int) -> list[int]:
    """One derivative step on a parity-stride row, row[i] the coefficient of
    y^(2i+e): c*y^a -> a*c*y^(a-1) + (a+s)*c*y^(a+1), with s = 0 for P and
    s = 1 for Q (_dz_step takes both). The result has parity 1 - e. Entry j
    sums the a*c of its two neighbours, so each a*c is made once and fed to
    both through pairwise; s adds the old row one place up. For e = 0 the
    first sum holds only 0*c and is dropped."""
    sums = starmap(operator.add, pairwise(chain((0,), map(operator.mul, count(e, 2), row), (0,))))
    if s:
        sums = map(operator.add, sums, chain((0,), row))
    return list(islice(sums, 1 - e, None))


def _hoffman_rows(s: int) -> Iterator[tuple[list[int], int]]:
    """(row, parity) of P_0, P_1, ... (s = 0) or Q_0, Q_1, ... (s = 1) by _hoffman_step from y^(1-s)."""
    row, e = [1], 1 - s
    while True:
        yield row, e
        row, e = _hoffman_step(row, e, s), 1 - e


def _stride_poly(row: list[int], e: int) -> YPoly:
    """The YPoly of a parity-stride row."""
    return YPoly(dict(zip(count(e, 2), row)))


def hoffman_p_seq() -> Iterator[YPoly]:
    """P_0, P_1, ...: the rows stepped from P_0 = y."""
    return starmap(_stride_poly, _hoffman_rows(0))


def hoffman_q_seq() -> Iterator[YPoly]:
    """Q_0, Q_1, ...: the rows stepped from Q_0 = 1."""
    return starmap(_stride_poly, _hoffman_rows(1))


def hoffman_p(n: int) -> YPoly:
    """Derivative polynomial of the tangent, item n of hoffman_p_seq:
    P_0 = y, P_{k+1} = (1+y^2) P_k'."""
    return _stride_poly(*_item(_hoffman_rows(0), n))


def hoffman_q(n: int) -> YPoly:
    """Derivative polynomial of the secant, item n of hoffman_q_seq:
    Q_0 = 1, Q_{k+1} = (1+y^2) Q_k' + y Q_k."""
    return _stride_poly(*_item(_hoffman_rows(1), n))


def r_poly_closed(n: int) -> YPoly:
    """R_n by the explicit binomial formula, for n >= 1.

    R_n(y) = sum over k <= floor((n-1)/2) of
             C(n, 2k+1) * y^(n-2k-1) * (1 + y^2)^(floor(n/2) + k).
    """
    return _stride_poly(*_binomial_closed_row(n, 0))


def t_poly_closed(n: int) -> YPoly:
    """T_n by the explicit binomial formula, for n >= 1.

    T_n(y) = sum over k <= floor(n/2) of
             C(n, 2k) * y^(n-2k) * (1 + y^2)^(floor((n-1)/2) + k).
    """
    return _stride_poly(*_binomial_closed_row(n, 1))


def _binomial_closed_row(n: int, s: int) -> tuple[list[int], int]:
    """R_n (s = 0) or T_n (s = 1): the sum over k <= K = floor((n-1+s)/2) of
    C(n, 2k+1-s) * y^(n-2k-1+s) * w^(floor((n-s)/2) + k), w = 1 + y^2, as
    (row, e), the row of its n coefficients of y^e, y^(e+2), ..., e = (n-1+s) % 2,
    the one place the parity is set. All terms have one degree in y^2, so Horner's
    rule in w runs down row n of r_row/t_row from k = K, one shift-add a step.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    row = (t_row if s else r_row)(n)
    acc = row[-1:]
    for k in range(len(row) - 2, -((n - s) // 2) - 1, -1):
        acc = list(map(operator.add, acc + [0], [0] + acc))
        if k >= 0:
            acc[-1] += row[k]
    return acc, (n - 1 + s) % 2


def _dz_step(row: list[int], e: int, n: int) -> list[int]:
    """The row of member n+1 of R or T from the parity-stride row of member n.

    The (n-1)-th iterate is (n-1)! times member n, as the z part when e = 0
    and z-free when e = 1. apply_dz multiplies by z and differentiates: z*(z*g)
    is the z-free w*g, whose derivative w*(w*g)' is the P step (s = 0); z*f
    is the z part of f, whose derivative z*(w*f' + y*f) is the Q step (s = 1).
    So s = e, the z part first takes one shift-add for w, and the result, the
    n-th iterate over (n-1)!, is divided by n. A remainder raises
    InternalInconsistencyError; nothing is truncated or rounded.
    """
    stepped = _hoffman_step(row if e else list(map(operator.add, row + [0], [0] + row)), e, e)
    quotient = []
    for i, c in enumerate(stepped):
        q, rem = divmod(c, n)
        if rem:
            raise InternalInconsistencyError(f"coefficient {c} of y^{2 * i + 1 - e} not divisible by {n}")
        quotient.append(q)
    return quotient


def _dz_rows(s: int) -> Iterator[tuple[list[int], int]]:
    """(row, parity) of member 1, 2, ... by _dz_step, from the row [1] at y^s:
    R from z (s = 0, the z part) and T from y (s = 1, z-free)."""
    row, e = [1], s
    for n in count(1):
        yield row, e
        row, e = _dz_step(row, e, n), 1 - e


def r_poly_dz_seq() -> Iterator[YPoly]:
    """R_1, R_2, ... from the iterates on z: R_n is the (n-1)-th iterate over
    (n-1)!, its z part for odd n and z-free for even n."""
    return starmap(_stride_poly, _dz_rows(0))


def t_poly_dz_seq() -> Iterator[YPoly]:
    """T_1, T_2, ... from the iterates on y, with the parts of r_poly_dz_seq
    swapped: odd n is z-free, even n the z part."""
    return starmap(_stride_poly, _dz_rows(1))


def r_poly_dz(n: int) -> YPoly:
    """R_n by the operator route, item n-1 of r_poly_dz_seq, for n >= 1."""
    return _dz_member(n, 0)


def t_poly_dz(n: int) -> YPoly:
    """T_n by the operator route, item n-1 of t_poly_dz_seq, for n >= 1."""
    return _dz_member(n, 1)


def _dz_member(n: int, s: int) -> YPoly:
    """Member n >= 1 of R (s = 0) or T (s = 1): the row is drawn from _dz_rows
    and made a YPoly once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _stride_poly(*_item(_dz_rows(s), n - 1))
