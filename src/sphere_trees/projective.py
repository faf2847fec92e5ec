"""Exact points on the Riemann sphere and Moebius transformations.

Points are homogeneous pairs (u : v) over Q(i), kept in a canonical form so
that equality is structural: finite points store v = 1, the point at
infinity stores (1 : 0).  Moebius transformations are 2x2 matrices up to
scale, canonicalized so the first nonzero entry (in a, b, c, d order) is 1.
Maps are built, composed and applied on unreduced Gaussian-integer triples
(`gaussian.product_sum`, `scaled`), with one reduction per resulting value.
"""

from __future__ import annotations

from .errors import DegenerateTriple
from .gaussian import (GR_ONE, GR_ZERO, GaussianRational, Rationalish, gr, product_sum, quotient, scaled,
                       triples)
from .values import value


@value
class ProjPoint:
    u: GaussianRational
    v: GaussianRational

    @classmethod
    def make(cls, u: GaussianRational, v: GaussianRational) -> "ProjPoint":
        return cls.ratio((u.a, u.b, u.c), (v.a, v.b, v.c))

    @classmethod
    def ratio(cls, num: tuple, den: tuple) -> "ProjPoint":
        """(num : den) for unreduced triples (a, b, c) = (a + b i) / c, reduced once."""
        if den[0] or den[1]:
            return cls(quotient(*num, *den), GR_ONE)
        if num[0] or num[1]:
            return cls(GR_ONE, GR_ZERO)
        raise ValueError("(0 : 0) is not a projective point")

    @classmethod
    def of(cls, value: Rationalish | GaussianRational, im: Rationalish = 0) -> "ProjPoint":
        if not isinstance(value, GaussianRational):
            value = gr(value, im)
        return cls(value, GR_ONE)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(GR_ONE, GR_ZERO)

    def is_infinity(self) -> bool:
        return self.v.is_zero()

    def to_affine(self) -> GaussianRational:
        if self.is_infinity():
            raise ValueError("point at infinity has no affine value")
        return self.u

    def __hash__(self):  # one frame over the six integers, not one per coordinate
        return hash((self.u.a, self.u.b, self.u.c, self.v.a, self.v.b, self.v.c))

    def sort_key(self) -> tuple:
        # infinity sorts last; finite points by coordinates
        return (1,) if self.is_infinity() else (0,) + self.u.sort_key()

    def __str__(self) -> str:
        return "inf" if self.is_infinity() else str(self.u)


P_ZERO = ProjPoint.of(0)
P_ONE = ProjPoint.of(1)
P_INF = ProjPoint.infinity()


@value
class Moebius:
    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    @classmethod
    def make(cls, a, b, c, d) -> "Moebius":
        return cls.of_triples(*triples((a, b, c, d)))

    @classmethod
    def of_triples(cls, *entries: tuple) -> "Moebius":
        """The map of the matrix of unreduced triples (a, b, c, d), divided by its first
        nonzero entry with one reduction per other nonzero entry."""
        (aa, ab, ac), (ba, bb, bc), (ca, cb, cc), (da, db, dc) = entries
        # a d == b c, both sides cleared of the four denominators
        if ((aa * da - ab * db) * bc * cc == (ba * ca - bb * cb) * ac * dc
                and (aa * db + ab * da) * bc * cc == (ba * cb + bb * ca) * ac * dc):
            raise ValueError("singular Moebius matrix")
        i = next(i for i, t in enumerate(entries) if t[0] or t[1])
        rest = [quotient(*t, *entries[i]) if t[0] or t[1] else GR_ZERO for t in entries[i + 1:]]
        return cls(*[GR_ZERO] * i, GR_ONE, *rest)

    def apply(self, p: ProjPoint) -> ProjPoint:
        """(a u + b v : c u + d v), reduced once."""
        return ProjPoint.ratio(product_sum(self.a, p.u, self.b, p.v),
                               product_sum(self.c, p.u, self.d, p.v))

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return self.apply(p)

    def compose(self, other: "Moebius") -> "Moebius":
        """Matrix product: (self . other)(p) == self(other(p))."""
        return Moebius.of_triples(
            product_sum(self.a, other.a, self.b, other.c),
            product_sum(self.a, other.b, self.b, other.d),
            product_sum(self.c, other.a, self.d, other.c),
            product_sum(self.c, other.b, self.d, other.d),
        )

    def inverse(self) -> "Moebius":
        return Moebius.make(self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return self == M_IDENTITY


M_IDENTITY = Moebius(GR_ONE, GR_ZERO, GR_ZERO, GR_ONE)


def moebius_from_three(p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint) -> Moebius:
    """The unique Moebius map sending (p0, p1, pinf) to (0, 1, inf).

    Built homogeneously so infinity needs no special casing, from the brackets
    [p, q] = u_p v_q - u_q v_p, zero iff p == q:
    M(z) = ((z - p0)(p1 - pinf)) / ((z - pinf)(p1 - p0)).
    """
    k_num = product_sum(p1.u, pinf.v, pinf.u, p1.v, -1)
    k_den = product_sum(p1.u, p0.v, p0.u, p1.v, -1)
    k_0inf = product_sum(p0.u, pinf.v, pinf.u, p0.v, -1)
    if not ((k_num[0] or k_num[1]) and (k_den[0] or k_den[1]) and (k_0inf[0] or k_0inf[1])):
        raise DegenerateTriple(
            "normalization points must be pairwise distinct",
            witness=[str(p0), str(p1), str(pinf)],
        )
    return Moebius.of_triples(
        scaled(p0.v, k_num),
        scaled(p0.u, (-k_num[0], -k_num[1], k_num[2])),
        scaled(pinf.v, k_den),
        scaled(pinf.u, (-k_den[0], -k_den[1], k_den[2])),
    )
