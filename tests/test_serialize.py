"""JSON round trips and canonical output stability."""

from __future__ import annotations

import enum
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    INF,
    degenerate_family_two_vertex,
    lconst,
    lpoly,
    oracle_edge_order,
    pt,
    z_squared_cover,
)
from sphere_trees import serialize as ser
from sphere_trees.dynamics import DynSystem, dyn_membership
from sphere_trees.errors import InvalidFamily, SchemaError
from sphere_trees.gaussian import GaussianRational, gr
from sphere_trees.limits import LaurentFamily
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres
from sphere_trees.projective import ProjPoint
from sphere_trees.trees import MarkedTree, adjacency


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
        assert ser.complex_to_json(gr(3, Fraction(-2, 4))) == {"re": "3/1", "im": "-1/2"}
        assert ser.complex_to_json(gr(Fraction(-2, 4), 3)) == {"re": "-1/2", "im": "3/1"}
        assert ser.fraction_from_json("7") == Fraction(7)
        assert ser.fraction_from_json("-2/6") == Fraction(-1, 3)

    @given(st.one_of(st.integers(-9, 9), st.integers()),
           st.one_of(st.integers(-9, 9), st.integers()),
           st.one_of(st.integers(1, 9), st.integers(1, 10 ** 60)))
    @example(0, 0, 5)
    @example(-(10 ** 40), 10 ** 40 + 1, 10 ** 40)
    @settings(max_examples=300, deadline=None)
    def test_parts_are_the_fractions_of_the_triple(self, a, b, c):
        # each part reduced from the triple by its own gcd, as Fraction spells it
        z = GaussianRational._raw(a, b, c)
        re, im = Fraction(a, c), Fraction(b, c)
        assert ser.complex_to_json(z) == {"re": f"{re.numerator}/{re.denominator}",
                                          "im": f"{im.numerator}/{im.denominator}"}

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

    def test_edges_are_written_in_the_sorted_edge_order(self, tree_corpus):
        for t in tree_corpus:
            assert ser.tree_to_json(t.shape)["edges"] == list(map(list, oracle_edge_order(t.shape)))

    def test_writing_an_invalid_tree_raises_as_adjacency_does(self):
        # a tree read without its check, its edge to "3" missing
        t = ser.tree_from_json({"leaves": ["1", "2", "3"], "internal": [0],
                                "edges": [["1", 0], ["2", 0]]}, check=False)
        for call in (adjacency, ser.tree_to_json):
            with pytest.raises(InvalidFamily, match="invalid marked tree"):
                call(t)


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

    def test_a_path_spread_over_both_bounds_round_trips(self):
        # its canonical form runs from eps^0 to eps^2000, so it is written shifted down
        # by eps^1000, as it was read
        bound = ser.MAX_EXPONENT
        blob = {"labels": ["1", "2", "3"], "paths": {
            "1": {"u": [[-bound, ONE], [bound, {"re": "2", "im": "1"}]], "v": [[0, ONE]]},
            "2": {"u": [[0, ONE]], "v": [[-bound, ONE]]},
            "3": {"u": [], "v": [[bound, ONE]]}}}
        fam = ser.family_from_json(blob)
        written = ser.family_to_json(fam)
        assert ser.family_from_json(written) == fam
        assert ser.family_to_json(ser.family_from_json(written)) == written
        assert written["paths"]["1"] == {
            "u": [[-bound, ser.complex_to_json(gr(1))], [bound, ser.complex_to_json(gr(2, 1))]],
            "v": [[0, ser.complex_to_json(gr(1))]]}

    def test_a_path_inside_the_bound_is_written_canonical(self):
        # top exponent exactly MAX_EXPONENT: no shift, lowest exponent 0
        bound = ser.MAX_EXPONENT
        point = lpoly([(0, gr(1)), (bound, gr(3))])
        assert ser.laurent_point_to_json(point) == {
            "u": [[0, ser.complex_to_json(gr(1))], [bound, ser.complex_to_json(gr(3))]],
            "v": [[0, ser.complex_to_json(gr(1))]]}


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
        for z in (gr(Fraction(1, 10 ** 5000)), gr(0, 10 ** 5000)):
            with pytest.raises(SchemaError, match="digit limit"):
                ser.complex_to_json(z)


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


# ---------------------------------------------------------------------------
# the one-pass writer and the direct scalar parser against their oracles


def oracle_dumps(payload) -> str:
    """The canonical form canonical_dumps must reproduce byte for byte."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def outcome(f, *args):
    """f's result, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# strings full of what needs escaping: quotes, backslashes, control
# characters, separators JSON leaves alone, and non-ASCII text
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028#@é—😀'),
                         st.characters()), max_size=6)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 1e300, -1e300, 5e-324, float("nan"), float("inf"), float("-inf")]))
INTS = st.one_of(st.integers(), st.integers(-10 ** 400, 10 ** 400))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), FLOATS)
PAYLOADS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.booleans()), inner, max_size=3),
    st.dictionaries(KEYS, inner, max_size=3),  # mixed key types may not sort
    # keys of scalars and points, and exact {"im", "re"} string pairs: in 400 draws about
    # 150 payloads hold a pair, which the writer puts in one step, and 80 a near miss
    st.dictionaries(st.sampled_from(["re", "im", "u", "v"]), st.one_of(TEXT, inner),
                    min_size=2, max_size=3),
    st.fixed_dictionaries({"im": TEXT, "re": TEXT}),
), max_leaves=24)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Ratio(float):
    def __repr__(self) -> str:
        return "Ratio()"


class Dct(dict):
    pass


def scalar(re="0/1", im="0/1") -> dict:
    return {"im": im, "re": re}


class Lst(list):
    pass


class Tup(tuple):
    pass


class TestCanonicalDumps:
    @settings(max_examples=400, deadline=None)
    @given(PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert outcome(ser.canonical_dumps, payload) == outcome(oracle_dumps, payload)

    @pytest.mark.parametrize("payload", [
        {}, [], (), "", {"": []}, [{}], {"a": {}, "b": [[], {}]},
        {"é\"\\\n\x01": "\x1f\u2028😀", "x": ["\t", "\\"]},
        [10 ** 300, -(10 ** 300), True, False, None],
        [-0.0, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")],
        {1: "a", True: "b", 2: None}, {None: 1}, {False: 0, -3: 1}, {1.5: 0, -0.0: 1},
        {"k": (1, (2, [3]))},
        # subclasses print as their base type, whatever their own repr
        [Level.HIGH, {Level.HIGH: Level.LOW}, Ratio(0.5), {Ratio(2.5): "x"}],
        # container subclasses, which json.dumps also indents, around str and int children
        OrderedDict([("b", [1, "x"]), ("a", Tup((2, "y")))]),
        Dct(z=Lst([Tup(("u", 3)), Dct(a="v", b=4)])),
        {"k": Lst([1, Dct(w="x", a=Lst([3, "v", Tup(("u", Lst([OrderedDict(q=[5])]))), True]))])},
        [Lst(["a", 1]), Tup((Dct(x=1),)), OrderedDict(q=[Lst([2, Tup((Level.LOW, "s"))])])],
        Lst([]), Tup(()), Dct(), OrderedDict(), [Lst(), {"e": Dct()}],
        # complex scalars, which the writer puts in one step: values that need escaping,
        scalar('"q"', "a\nb"), scalar("é", "😀"), scalar("\\", "\x00\u2028"), scalar("", ""),
        # at several depths in lists, tuples and points,
        [scalar()], (scalar("1/2"),), {"u": scalar("-3/4", "1/2"), "v": scalar("1/1")},
        [[0, scalar("1/3")], (1, [scalar(), (scalar("é"),)])],
        {"a": [{"u": scalar(), "v": scalar()}, ({"k": {"u": scalar("1/1"), "v": scalar()}},)]},
        # and near misses, which take the general route
        {"im": 1, "re": "x"}, {"im": None, "re": "x"}, {"re": "x"},
        {"im": "x", "re": "y", "z": "w"}, {"Im": "x", "re": "y"}, {"im": ["x"], "re": "y"},
        {"im": Lst("x"), "re": "y"}, Dct(im="x", re="y"), OrderedDict(re="y", im="x"),
        [Dct(im="x", re="y"), {"u": Dct(re="1/1", im="0/1")}],
    ])
    def test_pinned_cases(self, payload):
        assert ser.canonical_dumps(payload) == oracle_dumps(payload)

    @pytest.mark.parametrize("payload", [
        {"a": object()}, [1, {2}], {(1, 2): 0}, {"a": 1, 2: 3}, {None: 0, 1: 1},
        [10 ** 5000],
    ])
    def test_errors_match_json_dumps(self, payload):
        expected = outcome(oracle_dumps, payload)
        assert isinstance(expected, tuple) and outcome(ser.canonical_dumps, payload) == expected

    def test_shipped_data_round_trips_to_its_bytes(self):
        writers = {
            "tree": (ser.tree_from_json, ser.tree_to_json),
            "tree_of_spheres": (ser.tree_of_spheres_from_json, ser.tree_of_spheres_to_json),
            "portrait": (ser.portrait_from_json, ser.portrait_to_json),
            "cover": (ser.cover_from_json, ser.cover_to_json),
            "dyn": (ser.dyn_from_json, ser.dyn_to_json),
            "family": (ser.family_from_json, ser.family_to_json),
            "cover_family": (ser.cover_family_from_json, ser.cover_family_to_json),
        }
        kinds, skipped = set(), set()
        for path in sorted(DATA_DIR.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            kind = ser.detect_kind(json.loads(text))
            if kind not in writers:
                skipped.add(kind)
                continue
            parse, write = writers[kind]
            assert ser.canonical_dumps(write(parse(json.loads(text)))) == text, path.name
            kinds.add(kind)
        assert kinds == set(writers) and skipped == {"numeric"}  # a sequence has no writer


def oracle_complex(obj) -> GaussianRational:
    """The Fraction route complex_from_json takes for every scalar before its fast path."""
    return GaussianRational(ser.fraction_from_json(obj["re"]), ser.fraction_from_json(obj["im"]))


def parsed(f, obj):
    try:
        return f(obj)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


NON_ASCII_DIGITS = {d: chr(0x0660 + int(d)) for d in "0123456789"}  # Arabic-Indic


@st.composite
def scalar_spellings(draw):
    """Canonical "n/d" strings, the same values spelled otherwise, and non-strings."""
    kind = draw(st.sampled_from(["canonical"] * 4 + ["spelled", "special", "json"]))
    if kind == "json":
        return draw(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.none(),
                              st.floats(), st.sampled_from([0.5, -2.0, 1e300]),
                              st.lists(st.integers(), max_size=2)))
    if kind == "special":
        return draw(st.sampled_from([
            "", "/", "-", "+", "1/", "/2", "-/2", "1/0", "0/0", "-5/0", "1/2/3", "1//2",
            "1/-2", "--1/2", "1.5", "1e3", "1/2.0", "0x10/1", "nan", "inf",
            "1" * 5000 + "/1", "1/" + "7" * 5000, "-" + "9" * 5000 + "/3", "1" * 4300 + "/1",
        ]))
    n = draw(st.integers(-10 ** 40, 10 ** 40))
    d = draw(st.one_of(st.integers(1, 10 ** 40), st.just(0)))
    text = f"{n}/{d}"
    if kind == "spelled":
        if draw(st.booleans()):
            text = str(n)
        if draw(st.booleans()) and n >= 0:
            text = "+" + text
        if draw(st.booleans()):
            i = draw(st.integers(0, len(text)))
            text = text[:i] + "_" + text[i:]
        if draw(st.booleans()):
            text = "".join(NON_ASCII_DIGITS.get(c, c) if draw(st.booleans()) else c
                           for c in text)
        if draw(st.booleans()):
            text = draw(st.sampled_from([" ", "\t", "\n"])) + text + " "
    return text


class TestComplexFromJson:
    @settings(max_examples=400, deadline=None)
    @given(scalar_spellings(), scalar_spellings())
    def test_matches_the_fraction_route(self, re, im):
        obj = {"re": re, "im": im}
        got, expected = parsed(ser.complex_from_json, obj), parsed(oracle_complex, obj)
        assert got == expected
        if isinstance(got, GaussianRational):
            assert (got.a, got.b, got.c) == (expected.a, expected.b, expected.c)

    @pytest.mark.parametrize("re, im", [
        ("3/6", "-4/8"), ("-0/5", "7/1"), ("0/1", "0/1"), ("12/18", "1/3"), ("5", "-2/4"),
    ])
    def test_canonical_strings_skip_the_fraction_route(self, re, im, monkeypatch):
        expected = oracle_complex({"re": re, "im": im})

        def refuse(s):
            raise AssertionError(f"{s!r} took the Fraction route")
        monkeypatch.setattr(ser, "fraction_from_json", refuse)
        if "/" not in re:
            with pytest.raises(AssertionError, match="took the Fraction route"):
                ser.complex_from_json({"re": re, "im": im})
            return
        got = ser.complex_from_json({"re": re, "im": im})
        assert (got.a, got.b, got.c) == (expected.a, expected.b, expected.c)

    @pytest.mark.parametrize("obj", [
        {"re": "1/0", "im": "0/1"}, {"re": "0/1", "im": "1/2/3"}, {"re": None, "im": "0/1"},
        {"re": "1" * 5000 + "/1", "im": "0/1"}, {"re": "x", "im": "y"},
    ])
    def test_bad_scalar_names_the_first_bad_part(self, obj):
        with pytest.raises(SchemaError) as info:
            ser.complex_from_json(obj)
        assert parsed(oracle_complex, obj) == f"SchemaError: {info.value}"


def oracle_ratio_point(obj) -> ProjPoint:
    """(u : v) from both scalars' triples read by the Fraction route, for every v."""
    u, v = oracle_complex(obj["u"]), oracle_complex(obj["v"])
    try:
        return ProjPoint.ratio((u.a, u.b, u.c), (v.a, v.b, v.c))
    except ValueError as exc:
        raise SchemaError(f"(0 : 0) is not a point: {obj!r}") from exc


def oracle_point(obj) -> ProjPoint:
    """point_from_json's route before it read triples: two reduced scalars, then make."""
    u, v = ser.complex_from_json(obj["u"]), ser.complex_from_json(obj["v"])
    try:
        return ProjPoint.make(u, v)
    except ValueError as exc:
        raise SchemaError(f"(0 : 0) is not a point: {obj!r}") from exc


POINT_SCALARS = st.one_of(scalar_spellings(), st.sampled_from(
    ["0/1", "0", "-0/7", "1/1", "2/4", "0.5", "1e-3", "-3/9", "1/0", "x"]))


class TestPointFromJson:
    @settings(max_examples=400, deadline=None)
    @given(POINT_SCALARS, POINT_SCALARS, POINT_SCALARS, POINT_SCALARS)
    def test_matches_make_of_the_two_scalars(self, ur, ui, vr, vi):
        obj = {"u": {"re": ur, "im": ui}, "v": {"re": vr, "im": vi}}
        got, expected = parsed(ser.point_from_json, obj), parsed(oracle_point, obj)
        assert got == expected
        if isinstance(got, ProjPoint):
            assert [(x.a, x.b, x.c) for x in (got.u, got.v)] == \
                [(x.a, x.b, x.c) for x in (expected.u, expected.v)]

    @pytest.mark.parametrize("u, v, expected", [
        (("2/4", "0"), ("0.5", "0/3"), pt(1)),
        (("1e-3", "-2/4"), ("0/1", "0/1"), INF),
        (("0.5", "1e-3"), ("2/4", "0"), pt(1, Fraction(1, 500))),
        (("0/1", "0"), ("0.0", "-0/2"), None),
    ])
    def test_spelled_scalars(self, u, v, expected):
        obj = {"u": dict(zip(("re", "im"), u)), "v": dict(zip(("re", "im"), v))}
        if expected is None:
            with pytest.raises(SchemaError) as info:
                ser.point_from_json(obj)
            assert str(info.value) == f"(0 : 0) is not a point: {obj!r}"
        else:
            assert ser.point_from_json(obj) == expected == oracle_point(obj)


CANONICAL_V = {"re": "1/1", "im": "0/1"}
GAUSSIAN = st.builds(lambda a, b, c: GaussianRational(Fraction(a, c), Fraction(b, c)),
                     st.integers(-10 ** 20, 10 ** 20), st.integers(-10 ** 20, 10 ** 20),
                     st.integers(1, 10 ** 20))


def triples(p: ProjPoint) -> list:
    return [(x.a, x.b, x.c) for x in (p.u, p.v)]


class TestCanonicalV:
    """A point whose v is the one the writer emits reads from u alone."""

    @settings(max_examples=300, deadline=None)
    @given(GAUSSIAN)
    def test_written_points_match_the_ratio_of_the_oracle_triples(self, u):
        obj = {"u": ser.complex_to_json(u), "v": dict(CANONICAL_V)}
        got, expected = ser.point_from_json(obj), oracle_ratio_point(obj)
        assert got == expected == ProjPoint.of(u) and triples(got) == triples(expected)

    @settings(max_examples=300, deadline=None)
    @given(POINT_SCALARS, POINT_SCALARS)
    def test_spelled_u_beside_the_canonical_v(self, ur, ui):
        obj = {"u": {"re": ur, "im": ui}, "v": dict(CANONICAL_V)}
        got, expected = parsed(ser.point_from_json, obj), parsed(oracle_ratio_point, obj)
        assert got == expected
        if isinstance(got, ProjPoint):
            assert triples(got) == triples(expected)

    @pytest.mark.parametrize("one", [
        {"re": "2/2", "im": "0/1"}, {"re": "1", "im": "0"}, {"re": "1.0", "im": "0/1"},
        {"re": "10e-1", "im": "-0/3"}, {"im": "0/1", "re": "1/1"}])
    @pytest.mark.parametrize("u", [{"re": "0/1", "im": "0/1"}, {"re": "-6/4", "im": "1/3"},
                                   {"re": "1e-3", "im": "2"}])
    def test_other_spellings_of_one_read_to_the_same_point(self, one, u):
        got = ser.point_from_json({"u": u, "v": one})
        expected = ser.point_from_json({"u": u, "v": dict(CANONICAL_V)})
        assert got == expected == oracle_ratio_point({"u": u, "v": one})
        assert triples(got) == triples(expected)

    def test_only_the_canonical_v_skips_the_ratio(self, monkeypatch):
        def refuse(cls, num, den):
            raise AssertionError("took the ratio route")
        monkeypatch.setattr(ser.ProjPoint, "ratio", classmethod(refuse))
        u = {"re": "-6/4", "im": "1/3"}
        expected = pt(Fraction(-3, 2), Fraction(1, 3))
        assert ser.point_from_json({"u": u, "v": dict(CANONICAL_V)}) == expected
        with pytest.raises(AssertionError, match="ratio route"):
            ser.point_from_json({"u": u, "v": {"re": "2/2", "im": "0/1"}})

    @pytest.mark.parametrize("obj, message", [
        ({"u": {"re": "0/1", "im": "0/1"}, "v": {"re": "0/1", "im": "0/1"}},
         "(0 : 0) is not a point: "
         "{'u': {'re': '0/1', 'im': '0/1'}, 'v': {'re': '0/1', 'im': '0/1'}}"),
        ({"u": {"re": "x", "im": "0/1"}, "v": CANONICAL_V}, "not a rational number: 'x'"),
        ({"u": {"re": "0/1", "im": "1/0"}, "v": CANONICAL_V}, "not a rational number: '1/0'"),
        ({"u": {"re": "0/1"}, "v": CANONICAL_V},
         "complex scalars are {'re', 'im'} objects, got {'re': '0/1'}"),
        ({"u": None, "v": CANONICAL_V}, "complex scalars are {'re', 'im'} objects, got None"),
        ({"u": {"re": "0/1", "im": "0/1", "x": "0"}, "v": CANONICAL_V},
         "complex scalars are {'re', 'im'} objects, got {'re': '0/1', 'im': '0/1', 'x': '0'}"),
        ({"u": CANONICAL_V},
         "points are {'u', 'v'} objects, got {'u': {'re': '1/1', 'im': '0/1'}}"),
        ({"u": CANONICAL_V, "v": CANONICAL_V, "w": 0},
         "points are {'u', 'v'} objects, got {'u': {'re': '1/1', 'im': '0/1'}, "
         "'v': {'re': '1/1', 'im': '0/1'}, 'w': 0}"),
    ])
    def test_refusals_keep_their_text(self, obj, message):
        with pytest.raises(SchemaError) as info:
            ser.point_from_json(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", [Dct, OrderedDict])
    def test_dict_subclasses_read(self, kind):
        u = kind(re="-6/4", im="1/3")
        for v in (kind(re="1/1", im="0/1"), kind(re="2/2", im="0/1")):
            assert ser.point_from_json(kind(u=u, v=v)) == pt(Fraction(-3, 2), Fraction(1, 3))
        assert ser.point_from_json(kind(u=kind(re="1/1", im="0/1"), v=kind(re="0", im="0"))) \
            == INF
