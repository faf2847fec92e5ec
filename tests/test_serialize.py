"""JSON round trips and canonical output stability."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import (
    INF,
    degenerate_family_two_vertex,
    lconst,
    lpoly,
    pt,
    z_squared_cover,
)
from sphere_trees import serialize as ser
from sphere_trees.dynamics import DynSystem, dyn_membership
from sphere_trees.errors import SchemaError
from sphere_trees.gaussian import gr
from sphere_trees.limits import LaurentFamily
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres
from sphere_trees.trees import MarkedTree


@pytest.fixture
def two_vertex_spheres():
    shape = MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                            [("1", 0), ("2", 0), (0, 1), ("3", 1), ("4", 1)])
    return TreeOfSpheres.make(shape, {
        0: {"1": pt(0), "2": pt(1), 1: INF},
        1: {"3": pt(0), "4": pt(1), 0: INF},
    })


class TestScalars:
    def test_fraction_format(self):
        assert ser.fraction_to_json(Fraction(3)) == "3/1"
        assert ser.fraction_to_json(Fraction(-2, 4)) == "-1/2"
        assert ser.fraction_from_json("7") == Fraction(7)
        assert ser.fraction_from_json("-2/6") == Fraction(-1, 3)

    def test_point_round_trip(self):
        for p in (pt(0), pt(Fraction(5, 3), Fraction(-1, 2)), INF):
            assert ser.point_from_json(ser.point_to_json(p)) == p

    def test_infinity_form(self):
        assert ser.point_to_json(INF) == {
            "u": {"im": "0/1", "re": "1/1"}, "v": {"im": "0/1", "re": "0/1"}}

    def test_bad_scalar(self):
        with pytest.raises(SchemaError):
            ser.fraction_from_json("x/y")


class TestTrees:
    def test_tree_round_trip(self):
        t = MarkedTree.make(["1", "2", "3"], [0], [("1", 0), ("2", 0), ("3", 0)])
        assert ser.tree_from_json(ser.tree_to_json(t)) == t

    def test_tree_of_spheres_round_trip(self, two_vertex_spheres):
        blob = ser.tree_of_spheres_to_json(two_vertex_spheres)
        assert ser.tree_of_spheres_from_json(blob) == two_vertex_spheres

    def test_reserved_labels_rejected(self):
        with pytest.raises(SchemaError):
            ser.tree_from_json({"leaves": ["#1", "2", "3"], "internal": [0],
                                "edges": [["#1", 0], ["2", 0], ["3", 0]]})


class TestFamilies:
    def test_family_round_trip(self):
        fam = LaurentFamily.make({
            "1": lconst(0), "2": lconst(1),
            "3": lpoly([(1, gr(1)), (2, gr("1/2"))])})
        assert ser.family_from_json(ser.family_to_json(fam)) == fam

    def test_cover_family_round_trip(self):
        fam = degenerate_family_two_vertex()
        blob = ser.cover_family_to_json(fam)
        assert ser.cover_family_from_json(blob) == fam


ONE = {"re": "1", "im": "0"}


def _portrait(**changes) -> dict:
    _, portrait = z_squared_cover()
    return {**ser.portrait_to_json(portrait), **changes}


def _portrait_with_local_degree(value) -> dict:
    blob = _portrait()
    first = sorted(blob["deg"])[0]
    return {**blob, "deg": {**blob["deg"], first: value}}


class TestIntegerFields:
    @pytest.mark.parametrize("parse, blob", [
        (ser.tree_from_json, {"leaves": ["1", "2", "3"], "internal": ["x"],
                              "edges": [["1", 0], ["2", 0], ["3", 0]]}),
        (ser.tree_from_json, {"leaves": ["1", "2", "3"], "internal": [0.5],
                              "edges": [["1", 0], ["2", 0], ["3", 0]]}),
        (ser.laurent_poly_from_json, [["1/2", ONE]]),
        (ser.laurent_poly_from_json, [[True, ONE]]),
        (ser.laurent_map_from_json, {"num": [["x", [[0, ONE]]]], "den": [[0, [[0, ONE]]]]}),
        (ser.laurent_map_from_json, {"num": [[-1, [[0, ONE]]]], "den": [[0, [[0, ONE]]]]}),
        (ser.portrait_from_json, _portrait(d="2")),
        (ser.portrait_from_json, _portrait(d=2.0)),
        (ser.portrait_from_json, _portrait_with_local_degree("two")),
    ], ids=["internal-str", "internal-float", "exponent-str", "exponent-bool",
            "map-index-str", "map-index-negative", "degree-str", "degree-float",
            "local-degree-str"])
    def test_non_integer_is_schema_error(self, parse, blob):
        with pytest.raises(SchemaError):
            parse(blob)


class TestBounds:
    def test_exponent_bound_is_inclusive(self):
        bound = ser.MAX_EXPONENT
        poly = ser.laurent_poly_from_json([[-bound, ONE], [bound, ONE]])
        assert [e for e, _ in poly.terms] == [-bound, bound]

    @pytest.mark.parametrize("parse, blob", [
        (ser.laurent_poly_from_json, [[ser.MAX_EXPONENT + 1, ONE]]),
        (ser.laurent_poly_from_json, [[-ser.MAX_EXPONENT - 1, ONE]]),
        (ser.laurent_map_from_json, {"num": [[0, [[10 ** 9, ONE]]]],
                                     "den": [[0, [[0, ONE]]]]}),
    ], ids=["above", "below", "in-map"])
    def test_exponent_beyond_bound_is_schema_error(self, parse, blob):
        with pytest.raises(SchemaError, match="exceeds the bound"):
            parse(blob)

    def test_map_degree_bound_is_inclusive(self):
        top = ser.MAX_MAP_DEGREE
        m = ser.laurent_map_from_json({"num": [[top, [[0, ONE]]]], "den": [[0, [[0, ONE]]]]})
        assert m.degree == top

    @pytest.mark.parametrize("index", [ser.MAX_MAP_DEGREE + 1, 10 ** 6, 10 ** 9])
    def test_coefficient_index_beyond_bound_is_schema_error(self, index):
        for side in ("num", "den"):
            blob = {"num": [[0, [[0, ONE]]]], "den": [[0, [[0, ONE]]]]}
            blob[side].append([index, [[0, ONE]]])
            with pytest.raises(SchemaError, match="exceeds the bound"):
                ser.laurent_map_from_json(blob)

    def test_unprintable_fraction_is_schema_error(self):
        with pytest.raises(SchemaError):
            ser.fraction_to_json(Fraction(1, 10 ** 5000))


class TestCovers:
    def test_cover_round_trip(self):
        cover, _ = z_squared_cover()
        assert ser.cover_from_json(ser.cover_to_json(cover)) == cover

    def test_portrait_round_trip(self):
        _, portrait = z_squared_cover()
        assert ser.portrait_from_json(ser.portrait_to_json(portrait)) == portrait

    def test_dyn_round_trip(self):
        from test_dynamics import dyn_z_squared
        cover = dyn_z_squared()
        _, witness = dyn_membership(cover, ["p0", "p1", "pinf"])
        d = DynSystem(cover, witness)
        blob = ser.dyn_to_json(d)
        assert ser.dyn_from_json(blob) == d


class TestCanonical:
    def test_dumps_stable(self, two_vertex_spheres):
        blob = ser.tree_of_spheres_to_json(two_vertex_spheres)
        assert ser.canonical_dumps(blob) == ser.canonical_dumps(
            json.loads(ser.canonical_dumps(blob)))

    def test_kind_detection(self, two_vertex_spheres):
        cover, _ = z_squared_cover()
        assert ser.detect_kind(ser.tree_to_json(two_vertex_spheres.shape)) == "tree"
        assert ser.detect_kind(
            ser.tree_of_spheres_to_json(two_vertex_spheres)) == "tree_of_spheres"
        assert ser.detect_kind(ser.cover_to_json(cover)) == "cover"
        assert ser.detect_kind(
            ser.cover_family_to_json(degenerate_family_two_vertex())) == "cover_family"

    def test_marked_sphere_round_trip(self):
        s = MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF})
        assert ser.marked_sphere_from_json(ser.marked_sphere_to_json(s)) == s
