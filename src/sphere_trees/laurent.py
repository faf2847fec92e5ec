"""Exact Laurent polynomials in a degeneration parameter.

One-parameter families are written as finite Laurent polynomials in eps over
Q(i); taking a limit as eps -> 0 becomes valuation arithmetic and stays
exact.  Points of a family are homogeneous pairs of Laurent polynomials,
rational maps of a family carry Laurent-polynomial coefficients, and a map's
limit after chart families is read over Kronecker-packed Gaussian integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import ConstantLimit, DegenerateTriple, ZeroFamily
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, sum_of_products
from .projective import Moebius, ProjPoint
from .rational import Polynomial, RationalMap, hom_apply, hom_postcompose, hom_substitute
from .values import value


@value
class LaurentPoly:
    """Sparse terms (exponent, coefficient), ascending, no zero coefficients."""

    terms: tuple[tuple[int, GaussianRational], ...]

    @classmethod
    def make(cls, terms: Iterable[tuple[int, GaussianRational]]) -> "LaurentPoly":
        """Terms summed by exponent: one reduction per repeated exponent, a lone term kept."""
        groups: dict[int, list] = {}
        for e, c in terms:
            groups.setdefault(e, []).append((1, c, GR_ONE))
        return cls._summed(groups)

    @classmethod
    def _summed(cls, groups: dict[int, list]) -> "LaurentPoly":
        """Each exponent's sum of x y over its triples (1, x, y), reduced once, zero sums
        dropped; a lone (1, c, GR_ONE) is c itself, already reduced."""
        out = []
        for e in sorted(groups):
            ts = groups[e]
            c = ts[0][1] if len(ts) == 1 and ts[0][2] is GR_ONE else sum_of_products(ts)
            if not c.is_zero():
                out.append((e, c))
        return cls(tuple(out))

    @classmethod
    def constant(cls, c: GaussianRational) -> "LaurentPoly":
        return cls(()) if c.is_zero() else cls(((0, c),))

    @classmethod
    def eps(cls, k: int = 1) -> "LaurentPoly":
        return cls(((k, GR_ONE),))

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int:
        if self.is_zero():
            raise ZeroFamily("valuation of the zero Laurent element is undefined")
        return self.terms[0][0]

    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise ZeroFamily("zero Laurent element has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, e: int) -> GaussianRational:
        for exp, c in self.terms:
            if exp == e:
                return c
        return GR_ZERO

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.make(self.terms + other.terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.dot(((self, other),))

    @classmethod
    def dot(cls, pairs: Iterable[tuple["LaurentPoly", "LaurentPoly"]]) -> "LaurentPoly":
        """The sum of p * q over the pairs (p, q): every term product filed under its
        exponent sum, each exponent's sum reduced once."""
        groups: dict[int, list] = {}
        for p, q in pairs:
            for e, x in p.terms:
                for f, y in q.terms:
                    groups.setdefault(e + f, []).append((1, x, y))
        return cls._summed(groups)

    def scale(self, c: GaussianRational) -> "LaurentPoly":
        if c.is_zero():
            return LaurentPoly(())
        return LaurentPoly(tuple((e, x * c) for e, x in self.terms))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by eps^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms))

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Reparameterize eps -> eps^k (k >= 1)."""
        if k < 1:
            raise ValueError("power substitution requires k >= 1")
        return LaurentPoly(tuple((e * k, c) for e, c in self.terms))

    def evaluate(self, eps: Fraction) -> GaussianRational:
        if eps <= 0:
            raise ValueError("families are evaluated at eps > 0")
        return GaussianRational.dot((c, GaussianRational(eps ** e)) for e, c in self.terms)


LP_ZERO = LaurentPoly(())
LP_ONE = LaurentPoly.constant(GR_ONE)


@value
class LaurentPoint:
    """Homogeneous pair (u : v) of Laurent polynomials, canonicalized.

    Canonical form: the common power of eps is divided out so the minimal
    valuation is 0, and both components are divided by the leading unit of
    the preferred component (v when it achieves valuation 0, else u).
    """

    u: LaurentPoly
    v: LaurentPoly

    @classmethod
    def make(cls, u: LaurentPoly, v: LaurentPoly) -> "LaurentPoint":
        if u.is_zero() and v.is_zero():
            raise ZeroFamily("(0 : 0) is not a point of the family")
        k = min(p.valuation() for p in (u, v) if not p.is_zero())
        u, v = u.shift(-k), v.shift(-k)
        if not v.is_zero() and v.valuation() == 0:
            unit = v.leading()
        else:
            unit = u.leading()
        inv = unit.inverse()
        return cls(u.scale(inv), v.scale(inv))

    @classmethod
    def from_poly(cls, u: LaurentPoly) -> "LaurentPoint":
        return cls.make(u, LP_ONE)

    def substitute_power(self, k: int) -> "LaurentPoint":
        return LaurentPoint.make(self.u.substitute_power(k), self.v.substitute_power(k))

    def evaluate(self, eps: Fraction) -> ProjPoint:
        return ProjPoint.make(self.u.evaluate(eps), self.v.evaluate(eps))


def laurent_bracket(p: LaurentPoint, q: LaurentPoint) -> LaurentPoly:
    return p.u * q.v - q.u * p.v


def bracket_lead(p: LaurentPoint, q: LaurentPoint) -> tuple[int, GaussianRational] | None:
    """(valuation, leading coefficient) of [p, q], or None when it is zero: the term pairs
    of p.u q.v and q.u p.v are summed by exponent sum, lowest first, up to the first nonzero."""
    pairs: dict[int, list] = {}
    for xs, ys, sign in ((p.u.terms, q.v.terms, 1), (q.u.terms, p.v.terms, -1)):
        for (e, x), (f, y) in product(xs, ys):
            pairs.setdefault(e + f, []).append((sign, x, y))
    for s in sorted(pairs):
        c = sum_of_products(pairs[s])
        if not c.is_zero():
            return s, c
    return None


def laurent_leading_value(q: LaurentPoint) -> ProjPoint:
    """Limit of the path as eps -> 0, by valuation comparison."""
    if q.u.is_zero():
        return ProjPoint.of(0)
    if q.v.is_zero():
        return ProjPoint.infinity()
    vu, vv = q.u.valuation(), q.v.valuation()
    if vu > vv:
        return ProjPoint.of(0)
    if vu < vv:
        return ProjPoint.infinity()
    return ProjPoint.make(q.u.leading(), q.v.leading())


@value
class LaurentMoebius:
    """A Moebius family: 2x2 matrix of Laurent polynomials, det != 0."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    @classmethod
    def make(cls, a, b, c, d) -> "LaurentMoebius":
        if (a * d - b * c).is_zero():
            raise ValueError("singular Moebius family")
        return cls(a, b, c, d)

    @classmethod
    def from_constant(cls, m: Moebius) -> "LaurentMoebius":
        return cls(*map(LaurentPoly.constant, (m.a, m.b, m.c, m.d)))

    @classmethod
    def from_three(cls, p0: LaurentPoint, p1: LaurentPoint, pinf: LaurentPoint) -> "LaurentMoebius":
        """Family of charts sending (p0, p1, pinf) to (0, 1, inf) for each eps."""
        k_01, k_num = laurent_bracket(p0, p1), laurent_bracket(p1, pinf)
        if k_01.is_zero() or k_num.is_zero() or laurent_bracket(p0, pinf).is_zero():
            raise DegenerateTriple("chart family requires pairwise distinct paths")
        # [p1, p0] = -[p0, p1]; det = [p1, pinf] [p1, p0] [p0, pinf] is nonzero
        return cls(p0.v * k_num, -(p0.u * k_num), -(pinf.v * k_01), pinf.u * k_01)

    def apply(self, p: LaurentPoint) -> LaurentPoint:
        return LaurentPoint.make(self.a * p.u + self.b * p.v, self.c * p.u + self.d * p.v)

    def inverse(self) -> "LaurentMoebius":
        return LaurentMoebius.make(self.d, -self.b, -self.c, self.a)


def _trim(coeffs: Sequence[LaurentPoly]) -> tuple[LaurentPoly, ...]:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


@value
class LaurentMap:
    """A rational map whose polynomial coefficients are Laurent polynomials."""

    num: tuple[LaurentPoly, ...]
    den: tuple[LaurentPoly, ...]

    @classmethod
    def make(cls, num: Sequence[LaurentPoly], den: Sequence[LaurentPoly]) -> "LaurentMap":
        num_t, den_t = _trim(num), _trim(den)
        if not num_t and not den_t:
            raise ValueError("zero Laurent map")
        return cls(num_t, den_t)

    @classmethod
    def from_exact(cls, f: RationalMap) -> "LaurentMap":
        return cls.make(*([LaurentPoly.constant(c) for c in p.coeffs] for p in (f.num, f.den)))

    @property
    def degree(self) -> int:
        return max(len(self.num) - 1, len(self.den) - 1, 0)

    def evaluate(self, p: LaurentPoint) -> LaurentPoint:
        return LaurentPoint.make(*hom_apply(self.num, self.den, p.u, p.v, LP_ZERO, LP_ONE))

    def postcompose(self, m: LaurentMoebius) -> "LaurentMap":
        return LaurentMap.make(*hom_postcompose(self.num, self.den, m, LP_ZERO))

    def precompose(self, m: LaurentMoebius) -> "LaurentMap":
        return LaurentMap.make(*hom_substitute(self.num, self.den, m, LP_ZERO, LP_ONE))

    def leading_limit(self) -> RationalMap:
        """Divide by eps^(minimal valuation), set eps = 0, reduce over Q(i).

        Raises ConstantLimit when the resulting map is constant.
        """
        v = min(c.valuation() for c in self.num + self.den if not c.is_zero())
        num0 = Polynomial.make([c.coefficient(v) for c in self.num])
        den0 = Polynomial.make([c.coefficient(v) for c in self.den])
        if den0.is_zero():
            raise ConstantLimit("limit map is identically infinity")
        f = RationalMap.make(num0, den0)
        if f.is_constant():
            raise ConstantLimit("limit map is constant")
        return f

    def specialize(self, eps: Fraction) -> RationalMap:
        return RationalMap.make(*(Polynomial.make([c.evaluate(eps) for c in cs])
                                  for cs in (self.num, self.den)))


class Packed(tuple):
    """(re, im): a series over Z[i] as two ints, the digit of eps^k at bit k B (see `Packing`)."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not (self[0] or self[1])

    def __neg__(self) -> "Packed":
        return Packed((-self[0], -self[1]))


class _Zero(Packed):
    """The kernel's zero of Z[i][eps] / eps^cap at a width (no cap: of Z[i][eps]); dot masks once."""

    def __new__(cls, cap: int | None, width: int):
        zero = super().__new__(cls, (0, 0))
        zero.cap, zero.mask = cap, -1 if cap is None else (1 << cap * width) - 1
        return zero

    def dot(self, pairs: Iterable[tuple[Packed, Packed]]) -> Packed:
        re = im = 0
        for (a, b), (c, d) in pairs:
            re += a * c - b * d
            im += a * d + b * c
        return Packed((re & self.mask, im & self.mask))


_EXACT, _ONE = _Zero(None, 0), Packed((1, 0))
PackedMoebius = NamedTuple("PackedMoebius", [(x, Packed) for x in "abcd"])


def _cleared(polys: Sequence[LaurentPoly]) -> tuple[list, int]:
    """The polys times one scalar, moving no point or map: Z[i] terms (e, re, im) from e = 0."""
    terms = [t for p in polys for t in p.terms]
    den = lcm(*[c.c for _, c in terms])
    low = min([e for e, _ in terms])
    cleared = [
        [(e - low, c.a * (den // c.c), c.b * (den // c.c)) for e, c in p.terms] for p in polys]
    return cleared, sum([(abs(c.a) + abs(c.b)) * (den // c.c) for _, c in terms])  # and their norm


def _pack(polys: list, width: int) -> list[Packed]:
    return [Packed((sum(a << e * width for e, a, _ in p),
                    sum(b << e * width for e, _, b in p))) for p in polys]


def _width(bound: int) -> int:
    return bound.bit_length() + 1  # holds digits of absolute value <= bound, and a sign bit


def _lowest_bit(xs: Iterable[Packed]) -> int | None:
    return min([(y & -y).bit_length() - 1 for x in xs for y in x if y], default=None)


def _digit(x: Packed, at: int, width: int) -> LaurentPoly:
    """The digit of x at bit `at` as a constant, each part in [-2^(width-1), 2^(width-1))."""
    half = 1 << width - 1
    a, b = [((y >> at) + half & 2 * half - 1) - half for y in x]
    return LaurentPoly.constant(GaussianRational._raw(a, b, 1))


class Packing:
    """A map family f and the charts phi of triples of distinct paths (`LaurentMoebius.from_three`
    entries made exactly, one power of eps shifted out), cleared and packed at one width B: eps
    -> 2^B is a ring map Z[i][eps] / eps^cap -> Z[i] / 2^(cap B), one to one on digits in
    (-2^(B-1), 2^(B-1)).  Norms bound digits, add under + and multiply under *: with n the largest
    path norm, phi' . f . adj(phi), f of degree d, has digits <= |f| (2 n^3)^d n^3."""

    def __init__(self, f: LaurentMap, triples: Iterable[Iterable[LaurentPoint]]):
        (cs, norm), points = _cleared(f.num + f.den), [_cleared((p.u, p.v)) for t in triples for p in t]
        n3 = max([n for _, n in points]) ** 3
        self.width = w = _width(norm * (2 * n3) ** f.degree * n3)
        packed = _pack(cs, w)
        self.num, self.den = packed[:len(f.num)], packed[len(f.num):]
        self.charts = [self._chart(points[i:i + 3]) for i in range(0, len(points), 3)]

    def _chart(self, triple: list) -> PackedMoebius:
        (u0, v0), (u1, v1), (ui, vi) = [_pack(p, self.width) for p, _ in triple]
        k01, k_num = _EXACT.dot(((u0, v1), (-u1, v0))), _EXACT.dot(((u1, vi), (-ui, v1)))
        phi = [_EXACT.dot(((x, k),)) for x, k in ((v0, k_num), (-u0, k_num), (-vi, k01), (ui, k01))]
        s = _lowest_bit(phi) // self.width * self.width
        return PackedMoebius(*[Packed((a >> s, b >> s)) for a, b in phi])


class LowOrderReader:
    """G = f . adj(phi), phi a packed chart, modulo eps^cap, one kernel pass kept per cap 2, 4, 8,
    ...: in Z[i][eps] a term at exponent >= cap only feeds exponents >= cap, so G and its
    products with charts are exact below the cap, and a read that finds no digit doubles it."""

    __slots__ = ("packing", "pre", "kept")

    def __init__(self, packing: Packing, phi: PackedMoebius):
        self.packing, self.pre, self.kept = packing, PackedMoebius(phi.d, -phi.b, -phi.c, phi.a), []

    def leading_limit(self, post: PackedMoebius) -> RationalMap:
        """(post . G).leading_limit(), read at (lowest set bit) // B of the first round that has one."""
        p, w = self.packing, self.packing.width
        for k in count():
            if k == len(self.kept):
                zero = _Zero(2 << k, w)
                self.kept.append((zero, *hom_substitute(p.num, p.den, self.pre, zero, _ONE)))
            zero, num, den = self.kept[k]
            out = hom_postcompose(num, den, post, zero)
            low = _lowest_bit(out[0] + out[1])
            if low is not None:
                digits = ([_digit(x, low // w * w, w) for x in half] for half in out)
                return LaurentMap.make(*digits).leading_limit()
