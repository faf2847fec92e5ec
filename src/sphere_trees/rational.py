"""Exact univariate polynomials over Q(i) and rational self-maps of the sphere.

Rational maps are stored reduced (numerator and denominator coprime via the
exact Euclidean gcd) and scaled so the denominator is monic, which makes
equality structural.  Images and local degrees (exact root multiplicities, never
root isolation) come from Horner's rule on unreduced triples, one gcd per image.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from .gaussian import GR_ONE, GR_ZERO, GaussianRational, horner, reduced, sub_product, triples
from .projective import Moebius, ProjPoint
from .values import value


@value
class Polynomial:
    """Coefficients ascending by exponent; trailing zeros stripped."""

    coeffs: tuple[GaussianRational, ...]

    @classmethod
    def make(cls, coeffs: Sequence[GaussianRational]) -> "Polynomial":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return cls(tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.make(poly_mul(self.coeffs, other.coeffs, GR_ZERO))

    def scale(self, c: GaussianRational) -> "Polynomial":
        return Polynomial.make([x * c for x in self.coeffs])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [GR_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        while len(rem) >= len(other.coeffs) and rem:
            factor = rem[-1] / dlead
            shift = len(rem) - len(other.coeffs)
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            while rem and rem[-1].is_zero():
                rem.pop()
        return Polynomial.make(quo), Polynomial.make(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            b = b.scale(b.leading().inverse())  # monic divisors keep the remainders small
            a, b = b, a.divmod(b)[1]
        return a if a.is_zero() else a.scale(a.leading().inverse())

    def evaluate(self, x: GaussianRational) -> GaussianRational:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def root_multiplicity(g: list[tuple], r: GaussianRational) -> int:
    """Multiplicity of r as a root of g, triples with a nonzero last entry (0 when not a root).
    Quotients by (z - r) after the first are reduced before the next division: left
    unreduced, the k-th quotient's entries would grow binomially in k."""
    mult = 0
    while len(g) > 1:
        *quo, (a, b, _) = horner(g, r.a, r.b, r.c)
        if a or b:
            break
        mult, g = mult + 1, [reduced(t) for t in reversed(quo)] if mult else quo[::-1]
    return mult


# The homogeneous-polynomial kernel.  Coefficient lists ascend by exponent with
# trailing zeros stripped, and hold elements of any ring with *, is_zero() and
# dot(pairs); the ring's zero and one come in as arguments, so maps over Q(i)
# and over Q(i)[eps^+-1] share the loops.  Each output coefficient is one sum:
# its (x, y) factor pairs are collected first, then zero.dot(pairs) reduces it
# once (once per exponent over Q(i)[eps^+-1]).


def poly_mul(p: Sequence, q: Sequence, zero) -> list:
    """Product of two coefficient lists."""
    if not p or not q:
        return []
    sums: list[list] = [[] for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            if not b.is_zero():
                sums[i + j].append((a, b))
    return [zero.dot(pairs) for pairs in sums]


def hom_apply(num: Sequence, den: Sequence, u, v, zero, one) -> tuple:
    """Both sums c_i u^i v^(d - i), d the longer list's degree; monomials built once."""
    pairs = list(zip_longest(num, den, fillvalue=zero))
    d = len(pairs) - 1
    upow, vpow = [one], [one]
    for _ in range(d):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    nu, de = [], []
    for i, (a, b) in enumerate(pairs):
        if a.is_zero() and b.is_zero():
            continue
        mono = upow[i] * vpow[d - i]
        nu.append((a, mono))
        de.append((b, mono))
    return zero.dot(nu), zero.dot(de)


def hom_substitute(num: Sequence, den: Sequence, m, zero, one) -> tuple:
    """Both lists after w -> (a w + b) / (c w + d), cleared by (c w + d)^(longer degree)."""
    pairs = list(zip_longest(num, den, fillvalue=zero))
    d = len(pairs) - 1
    tops, bots = [[one]], [[one]]
    for _ in range(d):
        tops.append(poly_mul(tops[-1], [m.b, m.a], zero))
        bots.append(poly_mul(bots[-1], [m.d, m.c], zero))
    nu = [[] for _ in range(d + 1)]
    de = [[] for _ in range(d + 1)]
    for i, (a, b) in enumerate(pairs):
        if a.is_zero() and b.is_zero():
            continue
        for j, c in enumerate(poly_mul(tops[i], bots[d - i], zero)):
            nu[j].append((c, a))
            de[j].append((c, b))
    return ([zero.dot(s) for s in nu],
            [zero.dot(s) for s in de])


def hom_postcompose(num: Sequence, den: Sequence, m, zero) -> tuple:
    """Both lists after the map they define is followed by w -> (a w + b) / (c w + d)."""
    pairs = list(zip_longest(num, den, fillvalue=zero))
    return ([zero.dot(((m.a, x), (m.b, y))) for x, y in pairs],
            [zero.dot(((m.c, x), (m.d, y))) for x, y in pairs])


@value
class RationalMap:
    num: Polynomial
    den: Polynomial

    @classmethod
    def make(cls, num: Polynomial, den: Polynomial) -> "RationalMap":
        if den.is_zero():
            raise ValueError("rational map with zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading().inverse()
        return cls(num.scale(lead), den.scale(lead))

    @classmethod
    def from_coeffs(cls, num: Sequence[GaussianRational], den: Sequence[GaussianRational]) -> "RationalMap":
        return cls.make(Polynomial.make(num), Polynomial.make(den))

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree, 0)

    def is_constant(self) -> bool:
        return self.degree == 0

    def apply(self, p: ProjPoint) -> ProjPoint:
        """(num_d : den_d) at infinity, d the longer degree, else (num(u) : den(u)) by
        `horner`: only `ProjPoint.make`, `ratio`, `of` and `infinity` build points, so v = 1."""
        num, den = self.num.coeffs, self.den.coeffs
        if p.is_infinity():
            return ProjPoint.make(*list(zip_longest(num, den, fillvalue=GR_ZERO))[-1])
        r = p.u
        return ProjPoint.ratio(horner(triples(num), r.a, r.b, r.c)[-1] if num else (0, 0, 1),
                               horner(triples(den), r.a, r.b, r.c)[-1])

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return self.apply(p)

    def postcompose(self, m: Moebius) -> "RationalMap":
        """m after self."""
        return RationalMap.from_coeffs(
            *hom_postcompose(self.num.coeffs, self.den.coeffs, m, GR_ZERO))

    def precompose(self, m: Moebius) -> "RationalMap":
        """self after m, by homogeneous substitution."""
        return RationalMap.from_coeffs(
            *hom_substitute(self.num.coeffs, self.den.coeffs, m, GR_ZERO, GR_ONE))


def local_degree(f: RationalMap, p: ProjPoint, q: ProjPoint | None = None) -> int:
    """Multiplicity of p in the fiber of f over q = f(p), computed unless given.

    g = q.v * num - q.u * den carries the fiber: a finite p contributes its root
    multiplicity in g; the point at infinity contributes deg(f) - deg(g).  g is
    built on unreduced triples, den or num - q.u * den, and no point is reduced.
    """
    if f.is_constant():
        raise ValueError("local degree of a constant map is undefined")
    if q is None:
        q = f.apply(p)
    g = triples(f.den.coeffs) if q.is_infinity() else [
        sub_product(n, q.u, d) for n, d in zip_longest(f.num.coeffs, f.den.coeffs, fillvalue=GR_ZERO)]
    while g and not (g[-1][0] or g[-1][1]):
        g.pop()
    if not g:  # pragma: no cover - impossible for reduced nonconstant maps
        raise ValueError("degenerate fiber polynomial")
    if p.is_infinity():
        return f.degree - (len(g) - 1)
    return root_multiplicity(g, p.u)
