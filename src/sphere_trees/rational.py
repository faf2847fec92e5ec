"""Exact univariate polynomials over Q(i) and rational self-maps of the sphere.

Polynomials are coefficient lists, ascending by exponent.  Rational maps are
stored as two trimmed tuples, reduced (numerator and denominator coprime via
the exact Euclidean gcd) and scaled so the denominator is monic, which makes
equality structural.  Images and local degrees (exact root multiplicities, never
root isolation) come from Horner's rule on unreduced triples, one gcd per image.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from .gaussian import GR_ONE, GR_ZERO, GaussianRational, horner, reduced, sub_product, triples
from .projective import Moebius, ProjPoint
from .values import value


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


def trim(coeffs: Sequence) -> tuple:
    """The coefficients as a tuple, trailing zeros stripped."""
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


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


def poly_divmod(p: Sequence[GaussianRational], d: Sequence[GaussianRational]) -> tuple[list, list]:
    """Quotient and remainder of p by a nonzero d."""
    rem, inv = list(p), d[-1].inverse()
    quo = [GR_ZERO] * max(0, len(rem) - len(d) + 1)
    while len(rem) >= len(d):
        factor = rem.pop() * inv  # the top coefficient cancels exactly
        shift = len(rem) - len(d) + 1
        quo[shift] = factor
        for i in range(len(d) - 1):
            rem[shift + i] = rem[shift + i] - factor * d[i]
        while rem and rem[-1].is_zero():
            rem.pop()
    return quo, rem


def poly_gcd(p: Sequence[GaussianRational], q: Sequence[GaussianRational]) -> list:
    """Monic greatest common divisor of p and a nonzero q."""
    while q:
        inv = q[-1].inverse()  # monic divisors keep the remainders small
        p, q = [c * inv for c in q], p
        q = poly_divmod(q, p)[1]
    return p


@value
class RationalMap:
    num: tuple[GaussianRational, ...]
    den: tuple[GaussianRational, ...]

    @classmethod
    def make(cls, num: Sequence[GaussianRational], den: Sequence[GaussianRational]) -> "RationalMap":
        num, den = trim(num), trim(den)
        g = poly_gcd(num, den) if den else []
        if len(g) > 1:
            num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
        return cls._monic(num, den)

    @classmethod
    def _monic(cls, num: Sequence[GaussianRational], den: Sequence[GaussianRational]) -> "RationalMap":
        """num / den, taken as coprime: trimmed, den scaled monic, no gcd.  Re-charts by an
        invertible m keep a reduced map reduced, so `postcompose` and `precompose` end here: a
        common root would be one of (num, den) moved by m, or a pole of m, where the top stays."""
        num, den = trim(num), trim(den)
        if not den:
            raise ValueError("rational map with zero denominator")
        inv = den[-1].inverse()
        return cls(*(tuple([c * inv for c in cs]) for cs in (num, den)))

    from_coeffs = make  # the name the benchmark's generators call

    @property
    def degree(self) -> int:
        return max(len(self.num) - 1, len(self.den) - 1, 0)

    def is_constant(self) -> bool:
        return self.degree == 0

    def apply(self, p: ProjPoint) -> ProjPoint:
        """(num_d : den_d) at infinity, d the longer degree, else (num(u) : den(u)) by
        `horner`: only `ProjPoint.make`, `ratio`, `of` and `infinity` build points, so v = 1."""
        num, den = self.num, self.den
        if p.is_infinity():
            return ProjPoint.make(*list(zip_longest(num, den, fillvalue=GR_ZERO))[-1])
        r = p.u
        return ProjPoint.ratio(horner(triples(num), r.a, r.b, r.c)[-1] if num else (0, 0, 1),
                               horner(triples(den), r.a, r.b, r.c)[-1])

    def postcompose(self, m: Moebius) -> "RationalMap":
        """m after self."""
        return RationalMap._monic(*hom_postcompose(self.num, self.den, m, GR_ZERO))

    def precompose(self, m: Moebius) -> "RationalMap":
        """self after m, by homogeneous substitution."""
        return RationalMap._monic(*hom_substitute(self.num, self.den, m, GR_ZERO, GR_ONE))


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
    g = triples(f.den) if q.is_infinity() else [
        sub_product(n, q.u, d) for n, d in zip_longest(f.num, f.den, fillvalue=GR_ZERO)]
    while g and not (g[-1][0] or g[-1][1]):
        g.pop()
    if not g:  # pragma: no cover - impossible for reduced nonconstant maps
        raise ValueError("degenerate fiber polynomial")
    if p.is_infinity():
        return f.degree - (len(g) - 1)
    return root_multiplicity(g, p.u)
