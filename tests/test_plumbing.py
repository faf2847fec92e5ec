"""Plumbing families and the density round trip."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import INF, pt, random_marking
from sphere_trees.errors import CollisionAtEpsilon
from sphere_trees.laurent import LaurentPoint, LaurentPoly
from sphere_trees.limits import LaurentFamily, limit_tree
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres, sphere_as_tree, spheres_iso
from sphere_trees.plumbing import plumb_family
from sphere_trees.trees import MarkedTree
from sphere_trees.gaussian import gr


@pytest.fixture
def nested_two_vertex():
    shape = MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                            [("2", 0), ("3", 0), (0, 1), ("1", 1), ("4", 1)])
    return TreeOfSpheres.make(shape, {
        0: {"2": pt(1), "3": INF, 1: pt(0)},
        1: {"1": pt(0), "4": pt(1), 0: INF},
    })


class TestPlumb:
    def test_single_vertex_constant(self):
        t = sphere_as_tree(MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF}))
        fam = plumb_family(t)
        # all paths are constants (the root normalizer may move the chart)
        for _, path in fam.paths:
            assert all(e == 0 for e, _ in path.u.terms)
        assert spheres_iso(limit_tree(fam), t)

    def test_worked_two_vertex_example(self, nested_two_vertex):
        fam = plumb_family(nested_two_vertex)
        assert spheres_iso(limit_tree(fam), nested_two_vertex)
        # equivalent to the family (0, 1, inf, eps): compare limit classes
        alt = LaurentFamily.make({
            "1": LaurentPoint.from_poly(LaurentPoly.constant(gr(0))),
            "2": LaurentPoint.from_poly(LaurentPoly.constant(gr(1))),
            "3": LaurentPoint.make(LaurentPoly.constant(gr(1)), LaurentPoly.make([])),
            "4": LaurentPoint.from_poly(LaurentPoly.eps()),
        })
        assert spheres_iso(limit_tree(alt), nested_two_vertex)

    def test_caterpillar_round_trip(self):
        shape = MarkedTree.make(
            ["1", "2", "3", "4", "5"], [0, 1, 2],
            [("1", 0), ("2", 0), (0, 1), ("3", 1), (1, 2), ("4", 2), ("5", 2)])
        t = TreeOfSpheres.make(shape, {
            0: {"1": pt(0), "2": pt(1), 1: INF},
            1: {"3": pt(1), 0: pt(0), 2: INF},
            2: {"4": pt(0), "5": pt(1), 1: INF},
        })
        fam = plumb_family(t)
        assert spheres_iso(limit_tree(fam), t)
        # eps scales: depth-2 vertex uses eps^2
        exps = {e for _, path in fam.paths for e, _ in path.u.terms}
        assert max(exps) >= 2

    def test_exponent_choice_invariance(self, nested_two_vertex):
        fam1 = plumb_family(nested_two_vertex)
        fam2 = fam1.reparametrize(2)
        assert spheres_iso(limit_tree(fam1), limit_tree(fam2))

    def test_random_corpus_round_trip(self, small_shapes):
        rng = random.Random(41)
        pool = small_shapes[5] + small_shapes[6]
        for shape in rng.sample(pool, 12):
            t = random_marking(shape, rng)
            assert spheres_iso(limit_tree(plumb_family(t)), t)


class TestSample:
    def test_simple_evaluation(self):
        fam = LaurentFamily.make({
            "1": LaurentPoint.from_poly(LaurentPoly.constant(gr(0))),
            "2": LaurentPoint.from_poly(LaurentPoly.constant(gr(1))),
            "3": LaurentPoint.make(LaurentPoly.constant(gr(1)), LaurentPoly.make([])),
            "4": LaurentPoint.from_poly(LaurentPoly.eps()),
        })
        s = fam.evaluate(Fraction(1, 10))
        assert s.point("4") == pt(Fraction(1, 10))
        assert s.point("3") == INF

    def test_collision_detected(self):
        # paths 1/2 and eps collide exactly at eps = 1/2
        fam = LaurentFamily.make({
            "1": LaurentPoint.from_poly(LaurentPoly.constant(gr("1/2"))),
            "2": LaurentPoint.from_poly(LaurentPoly.eps()),
            "3": LaurentPoint.from_poly(LaurentPoly.constant(gr(7))),
        })
        with pytest.raises(CollisionAtEpsilon, match="collide at eps = 1/2") as info:
            fam.evaluate(Fraction(1, 2))
        assert info.value.witness == ["1", "2"]

    def test_collision_is_isolated(self):
        # a collision holds at finitely many eps: halving past it samples cleanly
        fam = LaurentFamily.make({
            "1": LaurentPoint.from_poly(LaurentPoly.constant(gr("1/2"))),
            "2": LaurentPoint.from_poly(LaurentPoly.eps()),
            "3": LaurentPoint.from_poly(LaurentPoly.constant(gr(7))),
        })
        s = fam.evaluate(Fraction(1, 4))
        assert s.point("2") == pt(Fraction(1, 4))
        assert s.point("1") == pt(Fraction(1, 2))

    def test_positive_eps_required(self):
        fam = LaurentFamily.make({
            "1": LaurentPoint.from_poly(LaurentPoly.constant(gr(0))),
            "2": LaurentPoint.from_poly(LaurentPoly.constant(gr(1))),
            "3": LaurentPoint.from_poly(LaurentPoly.constant(gr(2))),
        })
        with pytest.raises(ValueError):
            fam.evaluate(Fraction(0))


class TestFrames:
    def test_root_normalizer_avoids_infinity(self, nested_two_vertex):
        # the root chart moves the marked infinity to 2, the smallest free
        # positive integer, and the edge to vertex 1 to 3/2; vertex 1 sits
        # there scaled by eps
        def const(c):
            return LaurentPoint.from_poly(LaurentPoly.constant(gr(c)))
        assert plumb_family(nested_two_vertex) == LaurentFamily.make({
            "1": const("3/2"), "2": const(1), "3": const(2),
            "4": LaurentPoint.from_poly(LaurentPoly.make([(0, gr("3/2")), (1, gr(1))])),
        })

    def test_plumbed_paths_never_infinite(self, small_shapes):
        rng = random.Random(43)
        for shape in rng.sample(small_shapes[6], 5):
            t = random_marking(shape, rng)
            for _, path in plumb_family(t).paths:
                assert not path.v.is_zero()
