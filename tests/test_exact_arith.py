"""Scalars, projective points, Moebius maps, polynomials, Laurent data."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    INF,
    TWISTS,
    ConstantLimit,
    cross_ratio,
    laurent_cross_ratio,
    oracle_laurent_bracket,
    oracle_laurent_evaluate,
    oracle_laurent_from_three,
    oracle_leading_limit,
    oracle_specialize,
    pt,
    random_gaussian,
    random_laurent,
    random_laurent_moebius,
    random_moebius,
)
from sphere_trees import rational
from sphere_trees.errors import CollisionAtEpsilon, DegenerateTriple, ZeroFamily
from sphere_trees.gaussian import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    gr,
    horner,
    reduced,
    sum_of_products,
    triples,
)
from sphere_trees.laurent import (
    LP_ONE,
    LP_ZERO,
    LaurentMap,
    LaurentMoebius,
    LaurentPoint,
    LaurentPoly,
    bracket_lead,
    laurent_leading_value,
)
from sphere_trees.limits import LaurentFamily
from sphere_trees.projective import M_IDENTITY, Moebius, ProjPoint, moebius_from_three
from sphere_trees.rational import (
    RationalMap,
    hom_apply,
    hom_postcompose,
    hom_substitute,
    local_degree,
    poly_divmod,
    poly_gcd,
    poly_mul,
    trim,
)

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
gaussians = st.builds(GaussianRational, fractions, fractions)
points = st.one_of(
    st.just(INF),
    st.builds(lambda c: ProjPoint.of(c), gaussians),
)


def moebius_strategy():
    def build(a, b, c, d):
        if (a * d - b * c).is_zero():
            return None
        return Moebius.make(a, b, c, d)
    return st.builds(build, gaussians, gaussians, gaussians, gaussians).filter(
        lambda m: m is not None)


class TestGaussian:
    def test_field_ops(self):
        a = gr("2/3", "1/2")
        b = gr(-1, 2)
        assert a + b == gr("-1/3", "5/2")
        assert (a * b) / b == a
        assert a * a.inverse() == gr(1)

    def test_reduced_representation(self):
        assert gr("2/4") == gr("1/2")
        assert gr(Fraction(-6, -4)) == gr("3/2")

    @given(st.lists(st.tuples(st.integers(-3, 3), gaussians, gaussians), max_size=5))
    def test_sum_of_products(self, terms):
        expected = GR_ZERO
        for k, x, y in terms:
            expected = expected + gr(k) * x * y
        assert sum_of_products(terms) == expected


class TestProjPoint:
    def test_canonical_form(self):
        p = ProjPoint.make(gr(4), gr(2))
        assert p == pt(2) and p.v == gr(1)
        assert ProjPoint.make(gr(3), gr(0)) == INF

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint.make(gr(0), gr(0))


class TestMoebiusFromThree:
    def test_identity_on_standard_triple(self):
        assert moebius_from_three(pt(0), pt(1), INF) == M_IDENTITY

    def test_inversion(self):
        m = moebius_from_three(INF, pt(1), pt(0))
        assert m.apply(pt(2)) == pt(Fraction(1, 2))
        assert m.apply(INF) == pt(0) and m.apply(pt(0)) == INF

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateTriple):
            moebius_from_three(pt(0), pt(0), INF)

    @settings(max_examples=60)
    @given(st.lists(points, min_size=3, max_size=3, unique=True))
    def test_normalizes_any_distinct_triple(self, triple):
        m = moebius_from_three(*triple)
        assert m.apply(triple[0]) == pt(0)
        assert m.apply(triple[1]) == pt(1)
        assert m.apply(triple[2]) == INF


class TestCrossRatio:
    def test_identity_chart(self):
        for x in (pt(0), pt(1), INF, pt(7), pt(Fraction(-2, 3))):
            assert cross_ratio(pt(0), pt(1), INF, x) == x

    def test_worked_value(self):
        assert cross_ratio(pt(1), pt(2), pt(4), pt(3)) == pt(4)

    @settings(max_examples=60)
    @given(st.lists(points, min_size=4, max_size=4, unique=True), moebius_strategy())
    def test_moebius_invariance(self, quad, m):
        before = cross_ratio(*quad)
        after = cross_ratio(*(m.apply(p) for p in quad))
        assert before == after

    @settings(max_examples=80)
    @given(st.lists(points, min_size=4, max_size=4, unique=True))
    def test_against_affine_case_analysis(self, quad):
        # independent oracle: the affine formula with explicit infinity cases
        def affine_cr(p0, p1, pinf, p):
            def diff(a, b):
                return a.to_affine() - b.to_affine()
            if p.is_infinity():
                return ProjPoint.make(diff(p1, pinf), diff(p1, p0))
            if p0.is_infinity():
                return ProjPoint.make(diff(p1, pinf), diff(p, pinf))
            if p1.is_infinity():
                return ProjPoint.make(diff(p, p0), diff(p, pinf))
            if pinf.is_infinity():
                return ProjPoint.make(diff(p, p0), diff(p1, p0))
            return ProjPoint.make(diff(p, p0) * diff(p1, pinf),
                                  diff(p, pinf) * diff(p1, p0))

        p0, p1, pinf, p = quad
        assert cross_ratio(p0, p1, pinf, p) == affine_cr(p0, p1, pinf, p)


class TestMoebiusGroup:
    @settings(max_examples=60)
    @given(moebius_strategy(), moebius_strategy(), moebius_strategy())
    def test_associativity(self, a, b, c):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    @settings(max_examples=60)
    @given(moebius_strategy())
    def test_inverse(self, m):
        assert m.compose(m.inverse()) == M_IDENTITY


class TestLocalDegree:
    def test_z_squared(self):
        f = RationalMap.from_coeffs([gr(0), gr(0), gr(1)], [gr(1)])
        assert local_degree(f, pt(0)) == 2
        assert local_degree(f, pt(1)) == 1
        assert local_degree(f, INF) == 2

    def test_fiber_sums_by_construction(self):
        # zeros {0, 1, -1}, poles {inf x3}: fiber of 0 is fully known
        from sphere_trees.covers import rational_from_divisors
        f = rational_from_divisors([pt(0), pt(1), pt(-1)], [INF, INF, INF], pt(2))
        assert sum(local_degree(f, p) for p in (pt(0), pt(1), pt(-1))) == 3
        f2 = rational_from_divisors([pt(0), pt(0), pt(3)], [INF, pt(1), pt(-1)], pt(2))
        assert local_degree(f2, pt(0)) == 2
        assert sum(local_degree(f2, p) for p in (pt(0), pt(3))) == 3

    def test_normalization_structural_equality(self):
        f = RationalMap.from_coeffs([gr(0), gr(2)], [gr(2)])
        assert f == RationalMap.from_coeffs([gr(0), gr(1)], [gr(1)])


class TestLaurent:
    def test_leading_values(self):
        one = LaurentPoly.constant(gr(1))
        eps = LaurentPoly.eps()
        assert laurent_leading_value(LaurentPoint.make(eps, one)) == pt(0)
        assert laurent_leading_value(LaurentPoint.make(one, eps)) == INF
        q = LaurentPoint.make(LaurentPoly.constant(gr(2)) + eps, one + eps * eps)
        assert laurent_leading_value(q) == pt(2)

    def test_zero_family_rejected(self):
        zero = LaurentPoly.make([])
        with pytest.raises(ZeroFamily):
            LaurentPoint.make(zero, zero)

    @settings(max_examples=40)
    @given(st.integers(-3, 3))
    def test_shift_invariance(self, k):
        u = LaurentPoly.make([(0, gr(2)), (1, gr(1))])
        v = LaurentPoly.make([(0, gr(1)), (2, gr(3))])
        p = LaurentPoint.make(u, v)
        shifted = LaurentPoint.make(u.shift(k), v.shift(k))
        assert laurent_leading_value(p) == laurent_leading_value(shifted)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(-2, 3), gaussians), max_size=4),
           st.lists(st.tuples(st.integers(-2, 3), gaussians), max_size=4),
           st.lists(st.tuples(st.integers(-2, 3), gaussians), max_size=4))
    def test_ring_laws(self, a, b, c):
        p, q, r = (LaurentPoly.make(t) for t in (a, b, c))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p - p).is_zero()

    def test_cross_ratio_on_triple(self):
        pts = [LaurentPoint.from_poly(LaurentPoly.constant(gr(i))) for i in (0, 1, 5)]
        cr = laurent_cross_ratio(pts[0], pts[1], pts[2], pts[1])
        assert laurent_leading_value(cr) == pt(1)

    def test_evaluate(self):
        p = LaurentPoly.make([(-1, gr(1)), (1, gr(2))])
        assert oracle_laurent_evaluate(p, Fraction(1, 2)) == gr(3)

    def test_map_specialize_and_limit(self):
        eps = LaurentPoly.eps()
        zero = LaurentPoly.make([])
        one = LaurentPoly.constant(gr(1))
        f = LaurentMap.make([zero, zero, eps], [one])  # eps z^2
        assert oracle_specialize(f, Fraction(1, 3)).degree == 2
        with pytest.raises(ConstantLimit):
            oracle_leading_limit(f)  # pointwise limit is the constant 0


# ---------------------------------------------------------------------------
# the homogeneous-polynomial kernel behind map evaluation and composition


EPSILONS = (Fraction(1, 3), Fraction(1, 7))
coeff_lists = st.lists(gaussians, min_size=1, max_size=4)
rational_maps = st.builds(
    lambda num, den: None if all(c.is_zero() for c in den) else RationalMap.from_coeffs(num, den),
    coeff_lists, coeff_lists).filter(lambda f: f is not None)
laurent_polys = st.lists(st.tuples(st.integers(-2, 2), gaussians), max_size=3).map(LaurentPoly.make)
laurent_coeffs = st.lists(laurent_polys, min_size=1, max_size=3)
laurent_maps = st.builds(
    lambda num, den: LaurentMap.make(num, den) if any(not c.is_zero() for c in num + den) else None,
    laurent_coeffs, laurent_coeffs).filter(lambda f: f is not None)
laurent_points = st.builds(
    lambda u, v: None if u.is_zero() and v.is_zero() else LaurentPoint.make(u, v),
    laurent_polys, laurent_polys).filter(lambda p: p is not None)


def _laurent_moebius(a, b, c, d):
    try:
        return LaurentMoebius.make(a, b, c, d)
    except ValueError:
        return None


laurent_moebii = st.builds(_laurent_moebius, laurent_polys, laurent_polys,
                           laurent_polys, laurent_polys).filter(lambda m: m is not None)


def defined(fn):
    """fn(), or skip the sample when it lands on a pole or a collision."""
    try:
        return fn()
    except (ValueError, ZeroFamily):
        reject()


def specialize_moebius(m: LaurentMoebius, eps: Fraction) -> Moebius:
    return Moebius.make(*(oracle_laurent_evaluate(x, eps) for x in (m.a, m.b, m.c, m.d)))


class TestRationalMapKernel:
    @settings(max_examples=80)
    @given(rational_maps, gaussians)
    def test_apply_matches_horner(self, f, x):
        expected = ProjPoint.make(evaluate(f.num, x), evaluate(f.den, x))
        assert f.apply(ProjPoint.of(x)) == expected

    @settings(max_examples=80)
    @given(rational_maps, moebius_strategy(), points)
    def test_precompose_is_substitution(self, f, m, p):
        assert f.precompose(m).apply(p) == f.apply(m.apply(p))

    @settings(max_examples=80)
    @given(rational_maps, moebius_strategy(), points)
    def test_postcompose_is_composition(self, f, m, p):
        # a constant map sent to infinity has no representative: a pole
        assert defined(lambda: f.postcompose(m)).apply(p) == m.apply(f.apply(p))


class TestRechartingWithoutGcd:
    """An invertible Moebius map keeps a reduced map reduced, so postcompose and
    precompose only trim and scale; RationalMap.make of the same kernel lists, which
    runs the gcd, is the oracle."""

    @staticmethod
    def oracles(f, m):
        return (outcome(lambda: RationalMap.make(*hom_postcompose(f.num, f.den, m, GR_ZERO))),
                outcome(lambda: RationalMap.make(*hom_substitute(f.num, f.den, m, GR_ZERO, GR_ONE))))

    @settings(max_examples=120)
    @given(rational_maps, moebius_strategy())
    def test_matches_the_reducing_constructor(self, f, m):
        assert (outcome(lambda: f.postcompose(m)), outcome(lambda: f.precompose(m))) \
            == self.oracles(f, m)

    @settings(max_examples=80)
    @given(rational_maps, gaussians, gaussians)
    def test_a_postcompose_that_cancels_the_top_coefficient(self, f, c, d):
        # the row (y, -x) kills the top pair (x, y), so the numerator list gets shorter
        x, y = list(zip_longest(f.num, f.den, fillvalue=GR_ZERO))[-1]
        assume(not (y * d + x * c).is_zero())
        m = Moebius.make(y, -x, c, d)
        g = f.postcompose(m)
        assert len(g.num) < max(len(f.num), len(f.den))
        assert (g, outcome(lambda: f.precompose(m))) == self.oracles(f, m)

    def test_degree_drop_and_the_constant_infinity(self):
        f = RationalMap.make([GR_ZERO, GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO, GR_ONE])
        g = f.postcompose(Moebius.make(GR_ONE, -GR_ONE, GR_ZERO, GR_ONE))  # z^2/(z^2+1) - 1
        assert (g.num, g.den) == ((-GR_ONE,), (GR_ONE, GR_ZERO, GR_ONE)) and g.degree == 2
        # the constant 2 followed by 1 / (w - 2) is the constant infinity, not a map
        two = RationalMap.make([gr(2)], [GR_ONE])
        pole = Moebius.make(GR_ZERO, GR_ONE, GR_ONE, gr(-2))
        assert outcome(lambda: two.postcompose(pole)) \
            == "ValueError: rational map with zero denominator" == self.oracles(two, pole)[0]
        assert two.precompose(pole) == two


class TestLaurentMapKernel:
    @settings(max_examples=60, deadline=None)
    @given(laurent_maps, laurent_points)
    def test_evaluate_commutes_with_specialize(self, f, p):
        image = defined(lambda: f.evaluate(p))
        for eps in EPSILONS:
            expected = defined(lambda: oracle_specialize(f, eps).apply(p.evaluate(eps)))
            assert defined(lambda: image.evaluate(eps)) == expected

    @settings(max_examples=60, deadline=None)
    @given(laurent_maps, laurent_moebii)
    def test_precompose_commutes_with_specialize(self, f, m):
        g = f.precompose(m)
        for eps in EPSILONS:
            me = defined(lambda: specialize_moebius(m, eps))
            expected = defined(lambda: oracle_specialize(f, eps).precompose(me))
            assert defined(lambda: oracle_specialize(g, eps)) == expected

    @settings(max_examples=60, deadline=None)
    @given(laurent_maps, laurent_moebii)
    def test_postcompose_commutes_with_specialize(self, f, m):
        g = f.postcompose(m)
        for eps in EPSILONS:
            me = defined(lambda: specialize_moebius(m, eps))
            expected = defined(lambda: oracle_specialize(f, eps).postcompose(me))
            assert defined(lambda: oracle_specialize(g, eps)) == expected

    # projective equality: the two sides may differ by a Laurent factor
    @settings(max_examples=60, deadline=None)
    @given(laurent_maps, laurent_moebii, laurent_points)
    def test_precompose_is_substitution(self, f, m, p):
        left = defined(lambda: f.precompose(m).evaluate(p))
        assert bracket_lead(left, defined(lambda: f.evaluate(m.apply(p)))) is None

    @settings(max_examples=60, deadline=None)
    @given(laurent_maps, laurent_moebii, laurent_points)
    def test_postcompose_is_composition(self, f, m, p):
        left = defined(lambda: f.postcompose(m).evaluate(p))
        assert bracket_lead(left, defined(lambda: m.apply(f.evaluate(p)))) is None


# ---------------------------------------------------------------------------
# bracket leading terms, read from the lowest exponent up


def expanded_lead(p: LaurentPoint, q: LaurentPoint):
    """The oracle for bracket_lead: expand [p, q] in full, read its lowest term."""
    b = oracle_laurent_bracket(p, q)
    return None if b.is_zero() else (b.valuation(), b.leading())


class TestBracketLead:
    @settings(max_examples=150, deadline=None)
    @given(laurent_points, laurent_points)
    def test_matches_expanded_bracket(self, p, q):
        assert bracket_lead(p, q) == expanded_lead(p, q)

    # [p, p + eps^k r] = eps^k [p, r]: every product term below the
    # bracket's valuation cancels, and r = 0 gives equal points
    @settings(max_examples=150, deadline=None)
    @given(laurent_points, laurent_polys, laurent_polys, st.integers(0, 4))
    def test_forced_cancellations(self, p, ru, rv, k):
        q = defined(lambda: LaurentPoint.make(p.u + ru.shift(k), p.v + rv.shift(k)))
        assert bracket_lead(p, q) == expanded_lead(p, q)
        assert (bracket_lead(p, q) is None) == (ru * p.v == p.u * rv)

    # (u w : v w) is the point (u : v); the raw pair keeps every product term
    @settings(max_examples=100, deadline=None)
    @given(laurent_points, laurent_polys)
    def test_equal_points_give_none(self, p, w):
        if w.is_zero():
            reject()
        q = LaurentPoint(p.u * w, p.v * w)
        assert bracket_lead(p, q) is None and bracket_lead(q, p) is None
        assert bracket_lead(p, p) is None

    @settings(max_examples=100, deadline=None)
    @given(laurent_points, laurent_points, laurent_points)
    def test_from_three_matrix(self, p0, p1, pinf):
        brackets = [oracle_laurent_bracket(p, q) for p, q in ((p0, p1), (p0, pinf), (p1, pinf))]
        if any(b.is_zero() for b in brackets):
            with pytest.raises(DegenerateTriple):
                oracle_laurent_from_three(p0, p1, pinf)
            return
        k_num, k_den = brackets[2], oracle_laurent_bracket(p1, p0)
        assert oracle_laurent_from_three(p0, p1, pinf) == LaurentMoebius.make(
            p0.v * k_num, -(p0.u * k_num), pinf.v * k_den, -(pinf.u * k_den))


# ---------------------------------------------------------------------------
# the Laurent kernel against a schoolbook oracle


term_lists = st.lists(st.tuples(st.integers(-2, 2), gaussians), max_size=6)


def schoolbook(terms) -> tuple:
    """The oracle for LaurentPoly's kernel: the terms added one at a time with the
    field operations, in order, zero sums dropped."""
    acc: dict = {}
    for e, c in terms:
        acc[e] = acc.get(e, GR_ZERO) + c
    return tuple((e, c) for e, c in sorted(acc.items()) if not c.is_zero())


def assert_canonical(p: LaurentPoly) -> None:
    exponents = [e for e, _ in p.terms]
    assert exponents == sorted(set(exponents))
    for _, c in p.terms:
        assert not c.is_zero()
        assert c.c > 0 and gcd(gcd(c.a, c.b), c.c) == 1


class TestLaurentKernel:
    @settings(max_examples=150, deadline=None)
    @given(term_lists)
    def test_make(self, terms):
        p = LaurentPoly.make(terms)
        assert p.terms == schoolbook(terms)
        assert_canonical(p)
        assert LaurentPoly.make(dict(terms).items()).terms == schoolbook(dict(terms).items())

    def test_make_reads_any_iterable_of_pairs(self):
        terms = [(2, gr(3)), (0, gr("1/2")), (2, gr(-3)), (-1, gr(0, 1))]
        p = LaurentPoly.make(terms)
        assert p.terms == ((-1, gr(0, 1)), (0, gr("1/2")))
        assert LaurentPoly.make(tuple(terms)) == p
        assert LaurentPoly.make(iter(terms)) == p
        assert LaurentPoly.make(t for t in terms) == p

    @settings(max_examples=150, deadline=None)
    @given(laurent_polys, laurent_polys)
    def test_ring_operations(self, p, q):
        products = [(e + f, x * y) for e, x in p.terms for f, y in q.terms]
        cases = [(p * q, products), (p + q, p.terms + q.terms),
                 (p - q, p.terms + tuple((e, -c) for e, c in q.terms))]
        for result, terms in cases:
            assert result.terms == schoolbook(terms)
            assert_canonical(result)

    @settings(max_examples=100, deadline=None)
    @given(laurent_polys, laurent_polys)
    def test_forced_cancellations(self, p, q):
        assert (p * q - q * p).is_zero()
        assert (p + (-p)).is_zero() and (p - p).is_zero()
        r = p + q - q
        assert r == p
        assert_canonical(r)


# ---------------------------------------------------------------------------
# the map kernel against one-+-at-a-time accumulation


def accumulated_poly_mul(p, q, zero) -> list:
    """The oracle for poly_mul: every term product added into its coefficient with one +."""
    if not p or not q:
        return []
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def accumulated_hom_substitute(num, den, m, zero, one) -> tuple:
    """The oracle for hom_substitute, built from accumulated_poly_mul and one + per term."""
    pairs = list(zip_longest(num, den, fillvalue=zero))
    d = len(pairs) - 1
    tops, bots = [[one]], [[one]]
    for _ in range(d):
        tops.append(accumulated_poly_mul(tops[-1], [m.b, m.a], zero))
        bots.append(accumulated_poly_mul(bots[-1], [m.d, m.c], zero))
    new_num, new_den = [zero] * (d + 1), [zero] * (d + 1)
    for i, (a, b) in enumerate(pairs):
        for j, c in enumerate(accumulated_poly_mul(tops[i], bots[d - i], zero)):
            new_num[j] = new_num[j] + c * a
            new_den[j] = new_den[j] + c * b
    return new_num, new_den


def random_coeffs(rng: random.Random, element, zero) -> list:
    """1-5 coefficients, about one in five zero, trailing zeros stripped."""
    cs = [element(rng) if rng.random() < 0.8 else zero for _ in range(rng.randint(1, 5))]
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


# the twists' eps-dependent maps and their inverses
TWIST_MAPS = sorted({m for source, target, _ in TWISTS for m in (source, target)}, key=repr)
TWIST_MAPS += [m.inverse() for m in TWIST_MAPS]
RINGS = [pytest.param(random_gaussian, GR_ZERO, GR_ONE, random_moebius, id="Q(i)"),
         pytest.param(random_laurent, LP_ZERO, LP_ONE, random_laurent_moebius, id="laurent")]


class TestKernelAgainstAccumulation:
    @pytest.mark.parametrize("element, zero, one, moebius", RINGS)
    def test_poly_mul(self, element, zero, one, moebius):
        rng = random.Random(1)
        for _ in range(200):
            p, q = random_coeffs(rng, element, zero), random_coeffs(rng, element, zero)
            assert poly_mul(p, q, zero) == accumulated_poly_mul(p, q, zero)

    @pytest.mark.parametrize("element, zero, one, moebius", RINGS)
    def test_hom_apply_and_postcompose(self, element, zero, one, moebius):
        rng = random.Random(2)
        for _ in range(100):
            num, den = random_coeffs(rng, element, zero), random_coeffs(rng, element, zero)
            u, v, m = element(rng), element(rng), moebius(rng)
            pairs = list(zip_longest(num, den, fillvalue=zero))
            d = len(pairs) - 1
            nu = de = zero
            for i, (a, b) in enumerate(pairs):
                mono = one
                for _ in range(i):
                    mono = mono * u
                for _ in range(d - i):
                    mono = mono * v
                nu, de = nu + a * mono, de + b * mono
            assert hom_apply(num, den, u, v, zero, one) == (nu, de)
            assert hom_postcompose(num, den, m, zero) == (
                [m.a * x + m.b * y for x, y in pairs], [m.c * x + m.d * y for x, y in pairs])

    @pytest.mark.parametrize("element, zero, one, moebius", RINGS)
    def test_hom_substitute(self, element, zero, one, moebius):
        rng = random.Random(3)
        for k in range(150):
            num, den = random_coeffs(rng, element, zero), random_coeffs(rng, element, zero)
            m = TWIST_MAPS[k % len(TWIST_MAPS)] if zero is LP_ZERO and k % 2 else moebius(rng)
            assert hom_substitute(num, den, m, zero, one) == \
                accumulated_hom_substitute(num, den, m, zero, one)

    def test_specialization_commutes_with_substitution(self):
        rng = random.Random(4)
        checked = 0
        for m in TWIST_MAPS:
            for _ in range(8):
                try:
                    f = LaurentMap.make(random_coeffs(rng, random_laurent, LP_ZERO),
                                        random_coeffs(rng, random_laurent, LP_ZERO))
                except ValueError:  # the zero map
                    continue
                for e in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
                    try:
                        fe, me = oracle_specialize(f, e), specialize_moebius(m, e)
                    except ValueError:  # a pole of the family at this eps
                        continue
                    assert oracle_specialize(f.precompose(m), e) == fe.precompose(me)
                    assert oracle_specialize(f.postcompose(m), e) == fe.postcompose(me)
                    checked += 1
        assert checked >= 50


# ---------------------------------------------------------------------------
# point evaluation on unreduced triples, against the reduced routes it replaced


def oracle_apply(f: RationalMap, p: ProjPoint) -> ProjPoint:
    return ProjPoint.make(*hom_apply(f.num, f.den, p.u, p.v, GR_ZERO, GR_ONE))


def oracle_root_multiplicity(g, r: GaussianRational) -> int:
    linear = [-r, GR_ONE]
    mult = 0
    while g:
        quo, rem = poly_divmod(g, linear)
        if rem:
            break
        mult += 1
        g = quo
    return mult


def oracle_local_degree(f: RationalMap, p: ProjPoint, q: ProjPoint | None = None) -> int:
    if f.is_constant():
        raise ValueError("local degree of a constant map is undefined")
    if q is None:
        q = oracle_apply(f, p)
    g = trim([a * q.v - b * q.u for a, b in zip_longest(f.num, f.den, fillvalue=GR_ZERO)])
    if p.is_infinity():
        return f.degree - (len(g) - 1)
    return oracle_root_multiplicity(g, p.to_affine())


def oracle_moebius_apply(m: Moebius, p: ProjPoint) -> ProjPoint:
    return ProjPoint.make(m.a * p.u + m.b * p.v, m.c * p.u + m.d * p.v)


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


big_parts = st.one_of(st.just(Fraction(0)), fractions,
                      st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
big_gaussians = st.builds(GaussianRational, big_parts, big_parts)
nonzero_big_gaussians = big_gaussians.filter(lambda x: not x.is_zero())
big_points = st.builds(ProjPoint.of, big_gaussians)


def linear_product(roots, lead: GaussianRational) -> list:
    """lead times the product of (z - r) over the roots, ascending."""
    out = [lead]
    for r in roots:
        out = poly_mul(out, [-r, GR_ONE], GR_ZERO)
    return out


@st.composite
def maps_with_points(draw):
    """A map of degree 1-6 and points to evaluate it at: infinity, a random point,
    and its zeros and poles when it is built from them."""
    if draw(st.booleans()):
        num = draw(st.lists(big_gaussians, min_size=1, max_size=7))
        den = draw(st.lists(big_gaussians, min_size=1, max_size=7))
        assume(any(not c.is_zero() for c in den))
        f, divisor = RationalMap.from_coeffs(num, den), []
    else:
        zeros = draw(st.lists(big_gaussians, max_size=3))
        poles = draw(st.lists(big_gaussians, max_size=3))
        f = RationalMap.from_coeffs(linear_product(zeros, draw(nonzero_big_gaussians)),
                                    linear_product(poles, GR_ONE))
        divisor = [ProjPoint.of(x) for x in zeros + poles]
    assume(not f.is_constant())
    return f, [INF, draw(big_points)] + divisor


def evaluate(coeffs, x: GaussianRational) -> GaussianRational:
    """Oracle: Horner's rule on reduced values."""
    acc = GR_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


small_roots = st.sampled_from([gr(a, b) for a in (-1, 0, Fraction(1, 2)) for b in (0, 1)])


class TestListReduction:
    def test_divmod_and_gcd(self):
        # (z - 1)(z - 2) and 2 (z - 1)(z + 3)
        p, q = [gr(2), gr(-3), gr(1)], [gr(-6), gr(4), gr(2)]
        g = poly_gcd(p, q)
        assert g == [gr(-1), gr(1)]
        assert poly_divmod(p, g) == ([gr(-2), gr(1)], [])
        assert poly_divmod(p, q) == ([gr(Fraction(1, 2))], [gr(5), gr(-5)])
        assert poly_gcd([], q) == [gr(-3), gr(2), gr(1)] and poly_divmod([], g) == ([], [])
        assert trim([gr(1), GR_ZERO, gr(2), GR_ZERO, GR_ZERO]) == (gr(1), GR_ZERO, gr(2))

    def test_root_multiplicity(self):
        p = [gr(0), gr(0), gr(1)]  # z^2
        assert rational.root_multiplicity(triples(p), gr(0)) == 2
        assert rational.root_multiplicity(triples(p), gr(1)) == 0
        # (z - 1/3)^40 (z - 2): each deflation reduces, so the quotients stay small
        third = gr(Fraction(1, 3))
        p = linear_product([third] * 40 + [gr(2)], GR_ONE)
        assert rational.root_multiplicity(triples(p), third) == 40
        assert rational.root_multiplicity(triples(p), gr(2)) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_roots, max_size=4), st.lists(small_roots, max_size=4),
           st.lists(small_roots, max_size=3), gaussians, nonzero_big_gaussians)
    def test_make_cancels_a_common_factor(self, zeros, poles, roots, lead, c):
        # num = lead prod (z - zeros), den = prod (z - poles), h = c prod (z - roots):
        # the reduced map drops h and the common zeros and poles, with a monic den
        num, den = linear_product(zeros, lead), linear_product(poles, GR_ONE)
        h = linear_product(roots, c)
        f = RationalMap.make(num, den)
        assert RationalMap.make(poly_mul(num, h, GR_ZERO), poly_mul(den, h, GR_ZERO)) == f
        assert f.den[-1] == GR_ONE and trim(f.num) == f.num and trim(f.den) == f.den
        if lead.is_zero():
            assert f.num == () and f.den == (GR_ONE,)
            return
        common = Counter(zeros) & Counter(poles)
        assert len(f.num) - 1 == len(zeros) - common.total()
        assert len(f.den) - 1 == len(poles) - common.total()
        for x in set(zeros + poles + roots):
            assert not (evaluate(f.num, x).is_zero() and evaluate(f.den, x).is_zero()), x

    @settings(max_examples=100, deadline=None)
    @given(st.lists(big_gaussians, max_size=5), st.lists(big_gaussians, min_size=1, max_size=5),
           st.lists(big_gaussians, min_size=1, max_size=3))
    def test_make_of_a_multiple_is_make(self, num, den, h):
        assume(trim(den) and trim(h))
        f = RationalMap.make(num, den)
        assert RationalMap.make(poly_mul(num, h, GR_ZERO), poly_mul(den, h, GR_ZERO)) == f
        assert f.den[-1] == GR_ONE
        assert len(poly_gcd(f.num, f.den)) == 1


class TestTripleEvaluation:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
                              st.integers(1, 10**30)) | st.just((0, 0, 3)), min_size=1, max_size=7),
           big_gaussians)
    def test_horner_is_evaluation_and_division(self, coeffs, r):
        # coeffs may end in a zero, (0, 0, c)
        g = trim([gr(Fraction(a, c), Fraction(b, c)) for a, b, c in coeffs])
        sums = [gr(Fraction(a, c), Fraction(b, c)) for a, b, c in horner(coeffs, r.a, r.b, r.c)]
        assert sums[-1] == evaluate(g, r)
        quo, rem = poly_divmod(g, [-r, GR_ONE])
        assert trim(sums[-2::-1]) == tuple(quo) and trim(sums[-1:]) == tuple(rem)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(1, 10**30),
           st.integers(1, 10**6))
    def test_reduced_is_the_stored_triple(self, a, b, c, k):
        x = GaussianRational._raw(a, b, c)
        assert reduced((a * k, b * k, c * k)) == reduced((a, b, c)) == (x.a, x.b, x.c)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
                     st.integers(1, 10**30)),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 10**30)))
    def test_ratio_is_make(self, num, den):
        def make(n, d):
            return ProjPoint.make(*(gr(Fraction(a, c), Fraction(b, c)) for a, b, c in (n, d)))
        for n, d in ((num, den), (den, num), ((0, 0, 1), den), (num, (0, 0, 7))):
            assert outcome(ProjPoint.ratio, n, d) == outcome(make, n, d)
        assert outcome(ProjPoint.ratio, (0, 0, 3), (0, 0, 5)) == \
            "ValueError: (0 : 0) is not a projective point"

    @settings(max_examples=150, deadline=None)
    @given(maps_with_points())
    def test_apply_and_local_degree_match_the_reduced_routes(self, sample):
        f, points = sample
        for p in points:
            q = f.apply(p)
            assert q == oracle_apply(f, p)
            assert local_degree(f, p) == oracle_local_degree(f, p)
            assert local_degree(f, p, q) == oracle_local_degree(f, p, q)
            assert rational.root_multiplicity(triples(f.num), p.u) == \
                oracle_root_multiplicity(f.num, p.u)
        constant = RationalMap.from_coeffs([points[1].u], [GR_ONE])
        assert outcome(local_degree, constant, INF) == outcome(oracle_local_degree, constant, INF)

    @settings(max_examples=150, deadline=None)
    @given(big_gaussians, nonzero_big_gaussians, st.integers(1, 6), st.data())
    def test_constructed_multiplicity_and_fibre_sum(self, r, c, k, data):
        # f = c + (z - r)^k h / g, with h and g nonzero at r: r has multiplicity k over c
        roots = data.draw(st.lists(big_gaussians, max_size=6 - k))
        h = linear_product(roots, data.draw(nonzero_big_gaussians))
        g = data.draw(st.lists(big_gaussians, min_size=1, max_size=7))
        g = trim(g)
        assume(g and not evaluate(g, r).is_zero())
        assume(all(s != r for s in roots))
        power = linear_product([r] * k, GR_ONE)
        num = [a + b for a, b in zip_longest([x * c for x in g], poly_mul(power, h, GR_ZERO),
                                             fillvalue=GR_ZERO)]
        f = RationalMap.from_coeffs(num, g)
        assert 1 <= f.degree <= 6
        over = ProjPoint.of(c)
        assert f.apply(ProjPoint.of(r)) == over
        assert local_degree(f, ProjPoint.of(r)) == k == oracle_local_degree(f, ProjPoint.of(r))
        # the fibre over c lies in {r, roots, infinity}; points off it count 0
        fibre = {ProjPoint.of(x) for x in [r] + roots} | {INF}
        degrees = [local_degree(f, p, over) for p in fibre]
        assert degrees == [oracle_local_degree(f, p, over) for p in fibre]
        assert sum(degrees) == f.degree

    @settings(max_examples=100, deadline=None)
    @given(big_gaussians, big_gaussians, big_gaussians, big_gaussians, big_points)
    def test_moebius_apply_matches_the_reduced_route(self, a, b, c, d, p):
        assume(not (a * d - b * c).is_zero())
        m = Moebius.make(a, b, c, d)
        # infinity, a random point, the pole and the zero of m
        for x in (INF, p, ProjPoint.make(-m.d, m.c), ProjPoint.make(-m.b, m.a)):
            assert m.apply(x) == oracle_moebius_apply(m, x)


# Moebius maps by GaussianRational arithmetic, reduced after every product: the
# oracles for the triple formulas of projective.py
def oracle_bracket(p: ProjPoint, q: ProjPoint) -> GaussianRational:
    """Homogeneous difference u_p v_q - u_q v_p; zero iff p == q."""
    return p.u * q.v - q.u * p.v


def oracle_moebius_make(a, b, c, d) -> Moebius:
    if (a * d - b * c).is_zero():
        raise ValueError("singular Moebius matrix")
    inv = next(x for x in (a, b, c, d) if not x.is_zero()).inverse()
    return Moebius(a * inv, b * inv, c * inv, d * inv)


def oracle_compose(m: Moebius, n: Moebius) -> Moebius:
    return oracle_moebius_make(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                               m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def oracle_moebius_inverse(m: Moebius) -> Moebius:
    return oracle_moebius_make(m.d, -m.b, -m.c, m.a)


def oracle_from_three(p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint) -> Moebius:
    if any(oracle_bracket(p, q).is_zero() for p, q in ((p0, p1), (p0, pinf), (p1, pinf))):
        raise DegenerateTriple("normalization points must be pairwise distinct",
                               witness=[str(p0), str(p1), str(pinf)])
    k_num, k_den = oracle_bracket(p1, pinf), oracle_bracket(p1, p0)
    return oracle_moebius_make(p0.v * k_num, -p0.u * k_num, pinf.v * k_den, -pinf.u * k_den)


def moebius_outcome(fn, *args):
    """fn(*args) with each entry's stored triple, or the error's type, message and witness."""
    try:
        m = fn(*args)
    except (ValueError, DegenerateTriple) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return m, [(x.a, x.b, x.c) for x in (m.a, m.b, m.c, m.d)]


@st.composite
def matrices(draw, singular: bool = True):
    """Four entries, zeros frequent.  Half of them singular by construction, a row a
    multiple of the other or a zero row or column; with singular False, none: a
    singular draw has its d, its c or its a and d moved off the singular set."""
    entry = st.one_of(st.just(GR_ZERO), big_gaussians)
    a, b, c, d = (draw(entry) for _ in range(4))
    if not singular:
        if (a * d - b * c).is_zero():
            if not a.is_zero():
                d = d + GR_ONE  # the determinant moves by a
            elif not b.is_zero():
                c = c - GR_ONE  # by b
            else:
                a, d = GR_ONE, GR_ONE
        return a, b, c, d
    kind = draw(st.sampled_from(["free"] * 3 + ["multiple", "zero row", "zero column"]))
    if kind == "multiple":
        k = draw(big_gaussians)
        c, d = k * a, k * b
    elif kind == "zero row":
        a, b = GR_ZERO, GR_ZERO
    elif kind == "zero column":
        b, d = GR_ZERO, GR_ZERO
    return a, b, c, d


class TestMoebiusOnTriples:
    """make, compose, inverse and moebius_from_three build their entries as triples;
    each matches its reduced route, entries and errors alike."""

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_make(self, entries):
        assert moebius_outcome(Moebius.make, *entries) == moebius_outcome(oracle_moebius_make, *entries)

    # a nonsingular matrix has a nonzero a or b; a pivot at c or d is a singular matrix
    @pytest.mark.parametrize("entries, expected", [
        ((2, 4, 6, 10), (1, 2, 3, 5)),
        ((gr(0, 2), 0, 1, gr(0, 4)), (1, 0, gr(0, "-1/2"), 2)),
        ((0, gr(3, 3), 6, 0), (0, 1, gr(1, -1), 0)),
        ((0, "1/3", -1, 7), (0, 1, -3, 21)),
        ((0, 0, 3, 4), "singular Moebius matrix"),
        ((0, 0, 0, 5), "singular Moebius matrix"),
        ((0, 0, 0, 0), "singular Moebius matrix"),
        ((1, 2, 2, 4), "singular Moebius matrix"),
    ])
    def test_pivot_in_each_position(self, entries, expected):
        entries = [x if isinstance(x, GaussianRational) else gr(x) for x in entries]
        got = moebius_outcome(Moebius.make, *entries)
        assert got == moebius_outcome(oracle_moebius_make, *entries)
        if isinstance(expected, str):
            assert got == ("ValueError", expected, None)
        else:
            assert got[0] == Moebius(*(x if isinstance(x, GaussianRational) else gr(x) for x in expected))

    @settings(max_examples=200, deadline=None)
    @given(matrices(singular=False), matrices(singular=False))
    def test_compose_and_inverse(self, first, second):
        m, n = oracle_moebius_make(*first), oracle_moebius_make(*second)
        assert moebius_outcome(m.compose, n) == moebius_outcome(oracle_compose, m, n)
        assert moebius_outcome(m.inverse) == moebius_outcome(oracle_moebius_inverse, m)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(INF), st.just(pt(0)), st.just(pt(1)), big_points),
                    min_size=3, max_size=3))
    def test_from_three(self, triple):
        got = moebius_outcome(moebius_from_three, *triple)
        assert got == moebius_outcome(oracle_from_three, *triple)
        if len(set(triple)) < 3:
            assert got == ("DegenerateTriple", "normalization points must be pairwise distinct",
                           [str(p) for p in triple])

    @pytest.mark.parametrize("triple", [(INF, pt(0), pt(1)), (pt(0), INF, pt(1)),
                                        (pt(0), pt(1), INF), (pt(2), pt(2), INF),
                                        (INF, pt(3), INF), (pt(1, 1), pt(0), pt(1, 1))])
    def test_from_three_at_infinity_and_on_repeats(self, triple):
        assert moebius_outcome(moebius_from_three, *triple) == \
            moebius_outcome(oracle_from_three, *triple)


class TestOneReductionPerPoint:
    """Images and local degrees reduce once per returned point, Moebius maps once
    per entry after the pivot, and none divides polynomials or runs the homogeneous
    kernel."""

    def test_reductions_per_call(self, monkeypatch):
        rng = random.Random(8)
        calls = {"_raw": 0, "divmod": 0, "hom_apply": 0}
        raw, divmod_, hom = GaussianRational._raw.__func__, rational.poly_divmod, rational.hom_apply

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        maps = []
        while len(maps) < 30:
            f = RationalMap.from_coeffs(random_coeffs(rng, random_gaussian, GR_ZERO) or [GR_ZERO],
                                        random_coeffs(rng, random_gaussian, GR_ZERO) or [GR_ONE])
            if not f.is_constant():
                maps.append(f)
        moebii = [random_moebius(rng) for _ in range(10)]
        points = [INF, pt(0), pt(1)] + [ProjPoint.of(random_gaussian(rng)) for _ in range(10)]
        images = {(f, p): f.apply(p) for f in maps for p in points}
        monkeypatch.setattr(GaussianRational, "_raw", classmethod(counting("_raw", raw)))
        monkeypatch.setattr(rational, "poly_divmod", counting("divmod", divmod_))
        monkeypatch.setattr(rational, "hom_apply", counting("hom_apply", hom))
        for (f, p), q in images.items():
            for fn, args, most in ((f.apply, (p,), 1), (local_degree, (f, p, q), 0),
                                   (local_degree, (f, p), 1)):
                calls.update(_raw=0)
                fn(*args)
                assert calls["_raw"] <= most, (fn, f, p)
        for m in moebii:
            for p in points:
                calls.update(_raw=0)
                m.apply(p)
                assert calls["_raw"] <= 1, (m, p)
            # a map reduces once per entry after its pivot
            for fn, args in [(m.compose, (n,)) for n in moebii] + [(m.inverse, ()), (
                    moebius_from_three, (m.apply(INF), m.apply(pt(0)), m.apply(pt(1))))]:
                calls.update(_raw=0)
                fn(*args)
                assert calls["_raw"] <= 3, (fn, m)
        assert calls["divmod"] == calls["hom_apply"] == 0


# ---------------------------------------------------------------------------
# sampling a family on integer triples


wide_terms = st.lists(st.tuples(st.integers(-4, 4), big_gaussians), max_size=4)
wide_eps = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


def oracle_point_evaluate(p: LaurentPoint, eps: Fraction):
    """ProjPoint.make of the two Fraction oracle values, or its ValueError message."""
    return outcome(ProjPoint.make, oracle_laurent_evaluate(p.u, eps),
                   oracle_laurent_evaluate(p.v, eps))


class TestPointEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(wide_terms, wide_terms, st.one_of(wide_eps, st.sampled_from(EPSILONS)))
    def test_evaluate_matches_the_fraction_oracle(self, u, v, eps):
        # negative exponents survive in a pair built without make, a component may be
        # zero, eps may exceed 1, and its numerator and denominator reach 10^6
        u, v = LaurentPoly.make(u), LaurentPoly.make(v)
        assume(not (u.is_zero() and v.is_zero()))
        for p in (LaurentPoint(u, v), LaurentPoint.make(u, v)):
            assert outcome(p.evaluate, eps) == oracle_point_evaluate(p, eps)

    @settings(max_examples=60, deadline=None)
    @given(laurent_polys, laurent_polys, wide_eps)
    def test_planted_collisions_keep_their_message_and_witness(self, a, b, r):
        # "b" meets "a" = 0 at eps = r, and both components of "d" vanish there
        assume(not a.is_zero() and not b.is_zero())
        root = LaurentPoly.make([(0, GaussianRational(-r)), (1, GR_ONE)])
        paths = {"a": LaurentPoint.make(LP_ZERO, LP_ONE),
                 "b": LaurentPoint.make(root * a, LP_ONE),
                 "c": LaurentPoint.make(LP_ONE, LP_ZERO)}
        d = LaurentPoint.make(root * a, root * b)
        assert oracle_point_evaluate(d, r) == "ValueError: (0 : 0) is not a projective point"
        for extra, message, witness in [
                ({}, f"family members collide at eps = {r}", ["a", "b"]),
                ({"d": d}, "(0 : 0) is not a projective point", None)]:
            with pytest.raises(CollisionAtEpsilon) as info:
                LaurentFamily.make({**paths, **extra}).evaluate(r)
            assert (str(info.value), info.value.witness) == (message, witness)

    def test_a_point_reduces_once(self, monkeypatch):
        rng = random.Random("point-evaluation")
        raw, calls = GaussianRational._raw.__func__, []
        monkeypatch.setattr(GaussianRational, "_raw",
                            classmethod(lambda cls, *t: calls.append(t) or raw(cls, *t)))
        for _ in range(50):
            p = LaurentPoint(random_laurent(rng), random_laurent(rng))
            if p.u.is_zero() and p.v.is_zero():
                continue
            for eps in (Fraction(1, 97), Fraction(7, 3)):
                calls.clear()
                p.evaluate(eps)
                assert len(calls) <= 1
