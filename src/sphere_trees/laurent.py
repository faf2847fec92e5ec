"""Exact Laurent polynomials in a degeneration parameter.

One-parameter families are written as finite Laurent polynomials in eps over
Q(i); taking a limit as eps -> 0 becomes valuation arithmetic and stays
exact.  Points of a family are homogeneous pairs of Laurent polynomials,
and rational maps of a family carry Laurent-polynomial coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ZeroFamily
from .gaussian import GR_ONE, GaussianRational, sum_of_products
from .projective import Moebius, ProjPoint
from .rational import RationalMap, hom_apply, hom_postcompose, hom_substitute, trim
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
        """The point at eps = p / q > 0 on integers: lo and hi the extreme exponents of u and v,
        each term c eps^e is scaled to c p^(e - lo) q^(hi - e), and the ratio reduced once."""
        if eps <= 0:
            raise ValueError("families are evaluated at eps > 0")
        es = [e for part in (self.u, self.v) for e, _ in part.terms] or [0]
        p, q, lo, hi, sums = eps.numerator, eps.denominator, min(es), max(es), []
        for part in (self.u, self.v):
            a, b, c = 0, 0, 1
            for e, x in part.terms:
                w = p ** (e - lo) * q ** (hi - e) * c
                a, b, c = a * x.c + x.a * w, b * x.c + x.b * w, c * x.c
            sums.append((a, b, c))
        return ProjPoint.ratio(*sums)


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

    def apply(self, p: LaurentPoint) -> LaurentPoint:
        return LaurentPoint.make(self.a * p.u + self.b * p.v, self.c * p.u + self.d * p.v)

    def inverse(self) -> "LaurentMoebius":
        return LaurentMoebius.make(self.d, -self.b, -self.c, self.a)


@value
class LaurentMap:
    """A rational map whose polynomial coefficients are Laurent polynomials."""

    num: tuple[LaurentPoly, ...]
    den: tuple[LaurentPoly, ...]

    @classmethod
    def make(cls, num: Sequence[LaurentPoly], den: Sequence[LaurentPoly]) -> "LaurentMap":
        num_t, den_t = trim(num), trim(den)
        if not num_t and not den_t:
            raise ValueError("zero Laurent map")
        return cls(num_t, den_t)

    @classmethod
    def from_exact(cls, f: RationalMap) -> "LaurentMap":
        return cls.make(*([LaurentPoly.constant(c) for c in cs] for cs in (f.num, f.den)))

    @property
    def degree(self) -> int:
        return max(len(self.num) - 1, len(self.den) - 1, 0)

    def evaluate(self, p: LaurentPoint) -> LaurentPoint:
        return LaurentPoint.make(*hom_apply(self.num, self.den, p.u, p.v, LP_ZERO, LP_ONE))

    def postcompose(self, m: LaurentMoebius) -> "LaurentMap":
        return LaurentMap.make(*hom_postcompose(self.num, self.den, m, LP_ZERO))

    def precompose(self, m: LaurentMoebius) -> "LaurentMap":
        return LaurentMap.make(*hom_substitute(self.num, self.den, m, LP_ZERO, LP_ONE))
