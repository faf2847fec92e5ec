"""Exact points on the Riemann sphere and Moebius transformations.

Points are homogeneous pairs (u : v) over Q(i), kept in a canonical form so
that equality is structural: finite points store v = 1, the point at
infinity stores (1 : 0).  Moebius transformations are 2x2 matrices up to
scale, canonicalized so the first nonzero entry (in a, b, c, d order) is 1.
"""

from __future__ import annotations


from .errors import DegenerateTriple
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, Rationalish, gr, horner, quotient, triples
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

    def sort_key(self) -> tuple:
        # infinity sorts last; finite points by coordinates
        return (1,) if self.is_infinity() else (0,) + self.u.sort_key()

    def __str__(self) -> str:
        return "inf" if self.is_infinity() else str(self.u)


P_ZERO = ProjPoint.of(0)
P_ONE = ProjPoint.of(1)
P_INF = ProjPoint.infinity()


def bracket(p: ProjPoint, q: ProjPoint) -> GaussianRational:
    """Homogeneous difference u_p v_q - u_q v_p; zero iff p == q."""
    return p.u * q.v - q.u * p.v


@value
class Moebius:
    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    @classmethod
    def make(cls, a, b, c, d) -> "Moebius":
        det = a * d - b * c
        if det.is_zero():
            raise ValueError("singular Moebius matrix")
        for pivot in (a, b, c, d):
            if not pivot.is_zero():
                inv = pivot.inverse()
                return cls(a * inv, b * inv, c * inv, d * inv)
        raise ValueError("zero Moebius matrix")  # pragma: no cover

    @classmethod
    def identity(cls) -> "Moebius":
        return cls.make(GR_ONE, GR_ZERO, GR_ZERO, GR_ONE)

    def apply(self, p: ProjPoint) -> ProjPoint:
        """(a u + b v : c u + d v), reduced once; at a finite u, `horner` on (b, a) and (d, c)."""
        if p.is_infinity():
            return ProjPoint.make(self.a, self.c)
        r = p.u
        return ProjPoint.ratio(*(horner(triples(pair), r.a, r.b, r.c)[-1]
                                 for pair in ((self.b, self.a), (self.d, self.c))))

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return self.apply(p)

    def compose(self, other: "Moebius") -> "Moebius":
        """Matrix product: (self . other)(p) == self(other(p))."""
        return Moebius.make(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Moebius":
        return Moebius.make(self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return self == Moebius.identity()


def moebius_from_three(p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint) -> Moebius:
    """The unique Moebius map sending (p0, p1, pinf) to (0, 1, inf).

    Built homogeneously so infinity needs no special casing:
    M(z) = ((z - p0)(p1 - pinf)) / ((z - pinf)(p1 - p0)).
    """
    if bracket(p0, p1).is_zero() or bracket(p0, pinf).is_zero() or bracket(p1, pinf).is_zero():
        raise DegenerateTriple(
            "normalization points must be pairwise distinct",
            witness=[str(p0), str(p1), str(pinf)],
        )
    k_num = bracket(p1, pinf)
    k_den = bracket(p1, p0)
    return Moebius.make(
        p0.v * k_num,
        -p0.u * k_num,
        pinf.v * k_den,
        -pinf.u * k_den,
    )
