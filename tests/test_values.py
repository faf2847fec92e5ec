"""The package's frozen value classes: construction, equality, hashing,
immutability and repr, each checked on one real instance.

The field lists are written out here rather than read from the classes, so
the checks pin the behaviour itself: equality first compares classes and
then the tuples of compared fields, the hash is the hash of that tuple
(ProjPoint's, of its coordinates' six integers), assignment raises
AttributeError, and the repr names the class and its repr fields in order.
Derived and cache fields take no part in any of it.
"""

from __future__ import annotations

import ast
import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import DATA_DIR, oracle_laurent_from_three, z_squared_map
from sphere_trees import serialize as ser
from sphere_trees.covers import MarkedSphereCover, edge_table
from sphere_trees.limits import LaurentFamily, limit_tree, numeric_limit_tree
from sphere_trees.moduli import TreeOfSpheres, marking_dict, vertex_chart, vertex_charts
from sphere_trees.trees import AdmissibilityViolation, MarkedTree, adjacency, branches, is_admissible


def load(name: str):
    obj = json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
    return ser.READERS[ser.detect_kind(obj)](obj)


def numeric_sequence():
    obj = json.loads((DATA_DIR / "numeric_sequence.json").read_text(encoding="utf-8"))
    return ser.numeric_sequence_from_json(obj, 1e-6, 5)


def instances() -> dict:
    tree = load("two_vertex_spheres.json")
    cover = load("cover_z2.json")
    fam = load("family_eps.json")
    cover_fam = load("cover_family_degenerate.json")
    p0, p1, pinf = (p for _, p in fam.paths[:3])
    sphere = fam.evaluate(Fraction(1, 100))
    return {
        "ProjPoint": sphere.points[0][1],
        "Moebius": vertex_chart(tree, 0, ("1", "2", "3")),
        "RationalMap": cover.maps[0][1],
        "LaurentPoly": p0.u,
        "LaurentPoint": p0,
        "LaurentMoebius": oracle_laurent_from_three(p0, p1, pinf),
        "LaurentMap": cover_fam.map_family,
        "MarkedTree": load("star_tree.json"),
        "AdmissibilityViolation": is_admissible(
            [frozenset({frozenset({"a"}), frozenset({"b", "c"})})]),
        "MarkedSphere": sphere,
        "TreeOfSpheres": tree,
        "Portrait": load("portrait_z2.json"),
        "TreeCover": cover,
        "MarkedSphereCover": MarkedSphereCover(z_squared_map(), sphere, sphere),
        "DynSystem": load("dyn_z_squared.json"),
        "LaurentFamily": fam,
        "NumericConfigSequence": numeric_sequence(),
        "NumericTreeOfSpheres": numeric_limit_tree(numeric_sequence()),
        "CoverFamily": cover_fam,
    }


# class name: (init fields, compared fields, repr fields), each in declaration order
FIELDS = {
    "ProjPoint": (("u", "v"),) * 3,
    "Moebius": (("a", "b", "c", "d"),) * 3,
    "RationalMap": (("num", "den"),) * 3,
    "LaurentPoly": (("terms",),) * 3,
    "LaurentPoint": (("u", "v"),) * 3,
    "LaurentMoebius": (("a", "b", "c", "d"),) * 3,
    "LaurentMap": (("num", "den"),) * 3,
    "MarkedTree": (("leaves", "internal", "edges"),) * 3,
    "AdmissibilityViolation": (("condition", "detail", "partition", "block"),) * 3,
    "MarkedSphere": (("labels", "points"),) * 3,
    "TreeOfSpheres": (("shape", "marking"),) * 3,
    "Portrait": (("y_labels", "z_labels", "fmap", "degmap", "d"),) * 3,
    "TreeCover": (("source", "target", "vertex_map", "maps"),) * 3,
    "MarkedSphereCover": (("f", "y", "z"),) * 3,
    "DynSystem": (("cover", "dyn_tree"),) * 3,
    "LaurentFamily": (("labels", "paths", "vertices"), ("labels", "paths"), ("labels", "paths")),
    "NumericConfigSequence": (("labels", "snapshots", "eps", "tolerance", "stability_window"),) * 3,
    "NumericTreeOfSpheres": (("shape", "marking"),) * 3,
    "CoverFamily": (("portrait", "y_family", "z_family", "map_family"),) * 3,
}

# classes that keep their own hash, over the same compared data
OWN_HASH = {"ProjPoint": lambda p: hash((p.u.a, p.u.b, p.u.c, p.v.a, p.v.b, p.v.c))}

# the other classes hold GaussianRational scalars, which neither deepcopy nor pickle
DEEP_COPIES = {"AdmissibilityViolation", "LaurentPoly", "MarkedTree", "NumericConfigSequence",
               "Portrait"}


@pytest.fixture(scope="module")
def values() -> dict:
    return instances()


def test_every_value_class_is_listed(values):
    decorated = {node.name for path in (DATA_DIR.parent / "src" / "sphere_trees").glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ClassDef)
                 and any(getattr(d, "id", None) == "value" for d in node.decorator_list)}
    assert set(values) == set(FIELDS) == decorated
    assert all(type(x).__name__ == name for name, x in values.items())


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestValueClass:
    def test_rebuilt_from_init_fields_is_equal(self, values, name):
        x = values[name]
        init = FIELDS[name][0]
        args = [getattr(x, f) for f in init]
        for y in (type(x)(*args), type(x)(**dict(zip(init, args)))):
            assert y == x and not y != x and hash(y) == hash(x) and repr(y) == repr(x)

    def test_hash_is_the_hash_of_the_compared_fields(self, values, name):
        x = values[name]
        fields = tuple(getattr(x, f) for f in FIELDS[name][1])
        assert hash(x) == (OWN_HASH[name](x) if name in OWN_HASH else hash(fields))

    def test_not_equal_to_its_tuple_or_another_class(self, values, name):
        x = values[name]
        fields = tuple(getattr(x, f) for f in FIELDS[name][1])
        assert x != fields and not x == fields and fields != x
        assert x != object() and x.__eq__(fields) is NotImplemented
        assert not isinstance(x, tuple)

    def test_fields_cannot_be_assigned_or_deleted(self, values, name):
        x = values[name]
        for f in FIELDS[name][0]:
            before = getattr(x, f)
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
            assert getattr(x, f) is before

    def test_copy_and_pickle_rebuild_an_equal_value(self, values, name):
        x = values[name]
        copies = [copy.copy(x)]
        if name in DEEP_COPIES:
            copies += [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
        for y in copies:
            assert type(y) is type(x) and y == x
            assert all(getattr(y, f) == getattr(x, f) for f in FIELDS[name][0])
        # copy.copy shares the field objects, so it prints the same; a rebuilt
        # frozenset of strings is equal but may iterate, and print, in another order
        assert repr(copies[0]) == repr(x)

    def test_repr_names_the_class_and_its_repr_fields(self, values, name):
        x = values[name]
        inner = ", ".join(f"{f}={getattr(x, f)!r}" for f in FIELDS[name][2])
        assert repr(x) == f"{name}({inner})"


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_instances_are_slotted(values, name):
    x = values[name]
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.not_a_field = 1


def assert_same_value(x, fresh):
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)


class TestDerivedFields:
    def test_tree_caches(self):
        t = load("two_vertex_tree.json")
        fresh = MarkedTree(t.leaves, t.internal, t.edges)
        adjacency(t)
        branches(t, min(t.internal))
        assert t._adjacency is not None and t._branches is not None
        assert fresh._adjacency is None and fresh._branches is None
        assert_same_value(t, fresh)

    def test_tree_of_spheres_caches(self):
        t = load("two_vertex_spheres.json")
        fresh = TreeOfSpheres(t.shape, t.marking)
        vertex_charts(t)
        marking_dict(t, min(t.shape.internal))
        assert t._charts is not None and fresh._charts is None
        assert_same_value(t, fresh)
        assert fresh.rows == t.rows

    @pytest.mark.parametrize("read", ["rows", "edge_points", "vertex_charts"])
    def test_tree_of_spheres_rows_are_derived_on_first_read(self, values, read):
        t = limit_tree(values["LaurentFamily"])
        ser.tree_of_spheres_to_json(t)
        before = (hash(t), repr(t), t.__reduce__())
        assert t._rows is None  # neither the limit nor the writer builds the table
        {"rows": lambda: t.rows, "vertex_charts": lambda: vertex_charts(t),
         "edge_points": lambda: t.edge_points(min(t.shape.internal))}[read]()
        assert t._rows == {v: dict(row) for v, row in t.marking}
        assert (hash(t), repr(t), t.__reduce__()) == before
        assert_same_value(t, TreeOfSpheres(t.shape, t.marking))

    def test_cover_caches(self):
        c = load("cover_z2.json")
        fresh = type(c)(c.source, c.target, c.vertex_map, c.maps)
        edge_table(c, min(c.source.shape.internal))
        assert c._edges is not None and fresh._edges is None
        assert_same_value(c, fresh)
        assert fresh.vm == c.vm and fresh._maps == c._maps

    def test_derived_mappings_are_rebuilt(self, values):
        for name, attr, source in [("MarkedSphere", "mapping", "points"),
                                   ("LaurentFamily", "mapping", "paths"),
                                   ("Portrait", "f_dict", "fmap"),
                                   ("Portrait", "deg_dict", "degmap")]:
            x = values[name]
            assert dict(getattr(x, attr)) == dict(getattr(x, source))
            assert f"{attr}=" not in repr(x)

    def test_family_vertices_are_not_compared(self, values):
        fam = values["LaurentFamily"]
        other = LaurentFamily(fam.labels, fam.paths, ())
        assert_same_value(fam, other)
        assert "vertices=" not in repr(fam)


def test_admissibility_violation_defaults_and_keywords():
    v = AdmissibilityViolation(2, "detail")
    assert (v.partition, v.block) == (None, None)
    assert v == AdmissibilityViolation(condition=2, detail="detail", partition=None, block=None)
    assert v != AdmissibilityViolation(2, "detail", block=frozenset({"a"}))
    assert repr(v) == "AdmissibilityViolation(condition=2, detail='detail', partition=None, block=None)"
    with pytest.raises(TypeError):
        AdmissibilityViolation(2)
    with pytest.raises(TypeError):
        AdmissibilityViolation(2, "detail", None, None, None)
    with pytest.raises(TypeError):
        AdmissibilityViolation(2, "detail", color=1)


def test_cli_import_skips_dataclasses_and_inspect():
    # -S keeps site-packages .pth files from importing anything first
    code = ("import sys, sphere_trees.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={"PYTHONPATH": str(DATA_DIR.parent / "src")}, check=True)
    assert r.stdout == "[]\n"
