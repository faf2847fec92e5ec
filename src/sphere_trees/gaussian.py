"""Exact Gaussian-rational scalars.

All sphere coordinates in this package live in Q(i), so every equality test
is decidable and every algorithm downstream is tolerance-free.  Values are
stored as a single reduced integer triple (a + b i) / c with c > 0 and
gcd(a, b, c) = 1, which keeps the field operations to one gcd each; the
`re`/`im` components are exposed as reduced fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

Rationalish = Union[int, Fraction, str]


def _frac(x: Rationalish) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("a", "b", "c")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        re, im = _frac(re), _frac(im)
        c = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        a = re.numerator * (c // re.denominator)
        b = im.numerator * (c // im.denominator)
        g = gcd(a, b, c)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_c(self, c // g)

    @classmethod
    def _raw(cls, a: int, b: int, c: int) -> "GaussianRational":
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        out = object.__new__(cls)
        _set_a(out, a)
        _set_b(out, b)
        _set_c(out, c)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.c)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.c)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._raw(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
        )

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._raw(
            self.a * other.c - other.a * self.c,
            self.b * other.c - other.b * self.c,
            self.c * other.c,
        )

    def __neg__(self) -> "GaussianRational":
        out = object.__new__(GaussianRational)  # the negated triple is still reduced
        _set_a(out, -self.a)
        _set_b(out, -self.b)
        _set_c(out, self.c)
        return out

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._raw(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
        )

    @staticmethod
    def dot(pairs: Iterable[tuple["GaussianRational", "GaussianRational"]]) -> "GaussianRational":
        """The sum of x * y over the pairs (x, y), reduced once."""
        return sum_of_products((1, x, y) for x, y in pairs)

    def inverse(self) -> "GaussianRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return quotient(1, 0, 1, self.a, self.b, self.c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.is_zero():
            raise ZeroDivisionError("division by zero Gaussian rational")
        return quotient(self.a, self.b, self.c, other.a, other.b, other.c)

    def to_complex(self) -> complex:
        return complex(self.a / self.c, self.b / self.c)

    def sort_key(self) -> tuple:
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.re)
        if self.a == 0:
            return f"{self.im}i"
        return f"{self.re}{'+' if self.b > 0 else ''}{self.im}i"


# the slots' own setters: __setattr__ refuses every write, so construction goes round it
_set_a, _set_b, _set_c = (GaussianRational.__dict__[name].__set__ for name in "abc")

GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)


def gr(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor used pervasively in tests and fixtures."""
    return GaussianRational(re, im)


def sum_of_products(terms: Iterable[tuple[int, GaussianRational, GaussianRational]]) -> GaussianRational:
    """The sum of k * x * y over (k, x, y) in terms, k an integer, reduced once at the end."""
    a, b, c = 0, 0, 1
    for k, x, y in terms:
        z = x.c * y.c
        a, b, c = a * z + k * (x.a * y.a - x.b * y.b) * c, b * z + k * (x.a * y.b + x.b * y.a) * c, c * z
    return GaussianRational._raw(a, b, c)


# Unreduced triples (a, b, c) = (a + b i)/c: no gcd between steps, one at the end of a chain.
def triples(xs: Iterable[GaussianRational]) -> list[tuple]:
    return [(x.a, x.b, x.c) for x in xs]


def reduced(t: tuple) -> tuple:
    g = gcd(*t)
    return t[0] // g, t[1] // g, t[2] // g


def sub_product(x: GaussianRational, s: GaussianRational, y: GaussianRational) -> tuple:
    """x - s * y as a triple."""
    return (x.a * s.c * y.c - (s.a * y.a - s.b * y.b) * x.c,
            x.b * s.c * y.c - (s.a * y.b + s.b * y.a) * x.c, x.c * s.c * y.c)


def product_sum(x: GaussianRational, y: GaussianRational, z: GaussianRational, w: GaussianRational,
                k: int = 1) -> tuple:
    """x * y + k * z * w as a triple, k an integer."""
    xy, zw = x.c * y.c, z.c * w.c
    return ((x.a * y.a - x.b * y.b) * zw + (z.a * w.a - z.b * w.b) * k * xy,
            (x.a * y.b + x.b * y.a) * zw + (z.a * w.b + z.b * w.a) * k * xy, xy * zw)


def scaled(s: GaussianRational, t: tuple) -> tuple:
    """s times the triple t, as a triple."""
    return s.a * t[0] - s.b * t[1], s.a * t[1] + s.b * t[0], s.c * t[2]


def quotient(xa: int, xb: int, xc: int, ya: int, yb: int, yc: int) -> GaussianRational:
    """The triple x over the nonzero triple y, reduced once."""
    return GaussianRational._raw((xa * ya + xb * yb) * yc, (xb * ya - xa * yb) * yc,
                                 xc * (ya * ya + yb * yb))


def linear_product(roots: Iterable[GaussianRational]) -> list[tuple]:
    """The product of c z - (a + b i) over the roots (a + b i)/c, as Gaussian-integer
    pairs ascending by exponent: its top pair is (the product of the c, 0)."""
    p = [(1, 0)]
    for r in roots:
        a, b, c = r.a, r.b, r.c
        p = [(c * x0 - a * x1 + b * y1, c * y0 - a * y1 - b * x1)
             for (x0, y0), (x1, y1) in zip([(0, 0), *p], [*p, (0, 0)])]
    return p


def horner(coeffs: Sequence[tuple], ra: int, rb: int, rc: int) -> list[tuple]:
    """Running sums of Horner's rule at r = (ra + rb i)/rc on triples, coeffs ascending:
    the last is the value at r, the others the quotient by (z - r), top first."""
    a, b, c = coeffs[-1]
    sums = [(a, b, c)]
    for xa, xb, xc in reversed(coeffs[:-1]):
        pc = c * rc
        a, b, c = (a * ra - b * rb) * xc + xa * pc, (a * rb + b * ra) * xc + xb * pc, pc * xc
        sums.append((a, b, c))
    return sums
