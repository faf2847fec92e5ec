"""Trees of spheres: charts, the embedding, isomorphism, projection."""

from __future__ import annotations

import hashlib
import pathlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import conftest
from conftest import (
    INF,
    POINT_POOL,
    assert_rows_in_neighbors_order,
    oracle_embed,
    pt,
    random_marking,
    random_moebius,
    random_stable_shape,
    z_squared_cover,
)
from sphere_trees import moduli, trees
from sphere_trees import serialize as ser
from sphere_trees.covers import (
    TreeCover,
    cover_iso,
    edge_table,
    extract_portrait,
    reconstruct_cover,
)
from sphere_trees.dynamics import dyn_membership
from sphere_trees.errors import InvalidFamily, LeafSetMismatch, MarkedSetTooSmall
from sphere_trees.gaussian import gr
from sphere_trees.limits import limit_cover, limit_tree
from sphere_trees.moduli import (
    MarkedSphere,
    TreeOfSpheres,
    canonical_form,
    embed,
    iso_of_spheres,
    marking_dict,
    project,
    sphere_as_tree,
    spheres_iso,
    tree_from_charts,
    twist,
    vertex_chart,
)
from sphere_trees.plumbing import plumb_family
from sphere_trees.projective import Moebius
from sphere_trees.trees import (
    MarkedTree,
    branches,
    neighbors,
    partition_at,
    partition_sort_key,
    representative_triple,
    validate_tree,
    vertex_key,
)


@pytest.fixture
def star4():
    return sphere_as_tree(MarkedSphere.make(
        {"1": pt(0), "2": pt(1), "3": INF, "4": pt(5)}))


@pytest.fixture
def two_vertex():
    shape = MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                            [("1", 0), ("2", 0), (0, 1), ("3", 1), ("4", 1)])
    return TreeOfSpheres.make(shape, {
        0: {"1": pt(0), "2": pt(1), 1: INF},
        1: {"3": pt(0), "4": pt(1), 0: INF},
    })


class TestMarkedSphere:
    def test_injectivity_enforced(self):
        with pytest.raises(InvalidFamily):
            MarkedSphere.make({"1": pt(0), "2": pt(0), "3": INF})

    def test_injectivity_witness_names_the_labels_sharing_a_point(self):
        with pytest.raises(InvalidFamily) as info:
            MarkedSphere.make({"4": pt(1), "1": pt(0), "3": pt(1), "2": pt(0), "5": INF})
        assert info.value.witness == ["1", "2"]

    def test_edge_marking_witness_names_the_neighbours_sharing_a_point(self, two_vertex):
        with pytest.raises(InvalidFamily, match="vertex 1 is not injective") as info:
            TreeOfSpheres.make(two_vertex.shape, {
                0: {"1": pt(0), "2": pt(1), 1: INF},
                1: {"3": pt(0), "4": pt(1), 0: pt(0)},
            })
        assert info.value.witness == ["0", "3"]

    def test_minimum_size(self):
        with pytest.raises(MarkedSetTooSmall):
            MarkedSphere.make({"1": pt(0), "2": pt(1)})

    def test_sphere_as_tree(self, star4):
        assert len(star4.shape.internal) == 1
        assert marking_dict(star4, 0)["4"] == pt(5)

    def test_lookup_tables_stay_out_of_equality(self, two_vertex):
        # the per-object lookup dicts are derived data: equality, hashing
        # and repr see only the sorted tuples
        copy = TreeOfSpheres(two_vertex.shape, two_vertex.marking)
        assert copy == two_vertex and hash(copy) == hash(two_vertex)
        assert repr(copy) == repr(two_vertex) and "rows" not in repr(copy)
        assert copy.edge_points(1) == {"3": pt(0), "4": pt(1), 0: INF}
        sphere = MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF})
        assert "mapping" not in repr(sphere) and sphere.mapping == dict(sphere.points)
        # so are the tables filled on first use, and those of covers and portraits
        shape = two_vertex.shape
        assert neighbors(shape, 0) == ("1", "2", 1)
        assert partition_at(shape, 1) == frozenset(
            [frozenset(["3"]), frozenset(["4"]), frozenset(["1", "2"])])
        assert marking_dict(two_vertex, 0) == {"1": pt(0), "2": pt(1), "3": INF, "4": INF}
        fresh = TreeOfSpheres(MarkedTree(shape.leaves, shape.internal, shape.edges),
                              two_vertex.marking)
        assert fresh._charts is None
        assert fresh.shape._adjacency is None
        assert fresh.shape._branches is None
        assert fresh == two_vertex and hash(fresh) == hash(two_vertex)
        assert repr(fresh) == repr(two_vertex)
        cover, portrait = z_squared_cover()
        twin = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)
        assert twin == cover and hash(twin) == hash(cover) and repr(twin) == repr(cover)
        assert twin.vm == dict(cover.vertex_map) and twin.map_at(0) == dict(cover.maps)[0]
        assert portrait.f_dict == dict(portrait.fmap)
        assert portrait.deg_dict == dict(portrait.degmap)
        canonical_form(two_vertex)
        assert set(two_vertex._charts) == {0, 1}
        assert two_vertex == fresh and hash(two_vertex) == hash(fresh)
        for obj, names in ((two_vertex, ["_charts"]),
                           (shape, ["_adjacency", "_branches"]),
                           (cover, ["vm", "_maps"]), (portrait, ["f_dict", "deg_dict"])):
            for name in names:
                assert f"{name}=" not in repr(obj)
        # a_v is read from the row on each call, so a caller's copy is its own
        a_0 = marking_dict(two_vertex, 0)
        a_0["1"] = pt(2)
        assert marking_dict(two_vertex, 0)["1"] == pt(0)
        # the tables are read-only
        with pytest.raises(TypeError):
            portrait.f_dict["y0"] = "z1"
        # the cover's edge table: empty until asked, outside repr, equality and
        # hash, read-only and built once
        assert twin._edges is None
        table = edge_table(twin, 0)
        assert twin._edges is not None and table is edge_table(twin, 0)
        assert dict(table) == {"y0": (pt(0), 2), "yinf": (INF, 2), "y1": (pt(1), 1),
                               "ym1": (pt(1), 1)}
        fresh_cover = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)
        assert fresh_cover._edges is None
        assert twin == fresh_cover and hash(twin) == hash(fresh_cover)
        assert repr(twin) == repr(fresh_cover) and "_edges=" not in repr(twin)
        with pytest.raises(TypeError):
            table["y0"] = (pt(0), 1)
        with pytest.raises(TypeError):
            twin._edges[0] = table


def test_no_module_level_caches():
    # derived data is kept on the objects it belongs to; a module-level cache
    # would keep every tree it has seen alive
    import importlib
    import pkgutil

    import sphere_trees
    for info in pkgutil.iter_modules(sphere_trees.__path__):
        module = importlib.import_module(f"sphere_trees.{info.name}")
        cached = [name for name, obj in vars(module).items() if hasattr(obj, "cache_info")]
        assert cached == [], (info.name, cached)


def chart_values(e, triple, labels):
    return {x: e[triple, x] for x in labels}


class TestEmbed:
    def test_identity_chart(self):
        # (1, 2, 3) already sits at (0, 1, inf): its chart leaves every point in place
        marking = {"1": pt(0), "2": pt(1), "3": INF, "4": pt(2, 1)}
        e = embed(sphere_as_tree(MarkedSphere.make(marking)))
        assert chart_values(e, ("1", "2", "3"), marking) == marking

    def test_cross_ratio_chart(self):
        t = sphere_as_tree(MarkedSphere.make(
            {"1": pt(1), "2": pt(2), "3": pt(4), "4": pt(3)}))
        assert embed(t)[("1", "2", "3"), "4"] == pt(4)

    def test_two_vertex_charts_each_triple_at_its_separating_vertex(self, two_vertex):
        e, labels = embed(two_vertex), ["1", "2", "3", "4"]
        # (1, 2, 3) is charted at vertex 0, where 3 and 4 share the far branch
        assert chart_values(e, ("1", "2", "3"), labels) == {
            "1": pt(0), "2": pt(1), "3": INF, "4": INF}
        # (1, 3, 4) is charted at vertex 1, where 1 and 2 share the far branch
        assert chart_values(e, ("1", "3", "4"), labels) == {
            "1": pt(0), "2": pt(0), "3": pt(1), "4": INF}

    def test_each_triple_is_charted_at_the_vertex_that_separates_it(self, tree_corpus):
        for t in tree_corpus[:40]:
            e, labels = embed(t), sorted(t.labels)
            for triple in combinations(labels, 3):
                hits = [v for v in t.shape.internal if len(
                    {b for b in partition_at(t.shape, v) for x in triple if x in b}) == 3]
                assert len(hits) == 1
                sigma = vertex_chart(t, hits[0], triple)
                assert chart_values(e, triple, labels) == {
                    x: sigma.apply(p) for x, p in marking_dict(t, hits[0]).items()}

    def test_triple_forced(self):
        t = sphere_as_tree(MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF}))
        e = embed(t)
        assert e[("1", "2", "3"), "1"] == pt(0)
        assert e[("1", "2", "3"), "2"] == pt(1)
        assert e[("1", "2", "3"), "3"] == INF

    def test_star_value(self, star4):
        assert embed(star4)[("1", "2", "3"), "4"] == pt(5)

    def test_two_vertex_values(self, two_vertex):
        e = embed(two_vertex)
        assert e[("1", "2", "3"), "4"] == INF
        assert e[("3", "4", "1"), "2"] == INF

    def test_single_vertex_is_classical_cross_ratio(self):
        from itertools import permutations
        from conftest import cross_ratio
        points = {"1": pt(Fraction(1, 3)), "2": pt(-2), "3": pt(0, 1), "4": INF}
        t = sphere_as_tree(MarkedSphere.make(points))
        e = embed(t)
        for triple in permutations(sorted(points), 3):
            for x in sorted(points):
                expected = cross_ratio(points[triple[0]], points[triple[1]],
                                       points[triple[2]], points[x])
                assert e[triple, x] == expected

    def test_matches_the_anharmonic_oracle_on_the_corpus(self, tree_corpus):
        for t in tree_corpus:
            assert embed(t) == oracle_embed(t)

    def test_matches_the_anharmonic_oracle_on_twisted_random_trees(self):
        rng = random.Random(4310)
        for n in range(3, 11):
            for _ in range(3):
                t = random_marking(random_stable_shape(n, rng), rng)
                t = twist(t, {v: random_moebius(rng) for v in t.shape.internal})
                e = embed(t)
                assert e == oracle_embed(t) and len(e) == n * (n - 1) * (n - 2) * n

    def test_matches_the_anharmonic_oracle_on_limit_trees(self):
        rng = random.Random(4311)
        for n in range(4, 10):
            fam = plumb_family(random_marking(random_stable_shape(n, rng), rng))
            for fam in (fam, fam.twist(random_moebius(rng)), fam.reparametrize(2)):
                t = limit_tree(fam)
                assert embed(t) == oracle_embed(t)


class TestSpheresIso:
    def test_twist_invariance(self, two_vertex):
        rng = random.Random(5)
        twisted = twist(two_vertex, {0: random_moebius(rng), 1: random_moebius(rng)})
        assert spheres_iso(two_vertex, twisted)
        assert canonical_form(two_vertex) == canonical_form(twisted)

    def test_distinct_cross_ratio(self, star4):
        other = sphere_as_tree(MarkedSphere.make(
            {"1": pt(0), "2": pt(1), "3": INF, "4": pt(6)}))
        assert not spheres_iso(star4, other)

    def test_moebius_moved_star(self, star4):
        # same four cross-ratios written in another chart
        other = sphere_as_tree(MarkedSphere.make(
            {"1": INF, "2": pt(1), "3": pt(0), "4": pt(Fraction(1, 5))}))
        assert spheres_iso(star4, other) == (
            embed(star4) == embed(other))

    def test_label_mismatch(self, star4):
        t = sphere_as_tree(MarkedSphere.make({"a": pt(0), "b": pt(1), "c": INF}))
        with pytest.raises(LeafSetMismatch):
            spheres_iso(star4, t)

    def test_explicit_iso(self, two_vertex):
        rng = random.Random(11)
        twisted = twist(two_vertex, {0: random_moebius(rng), 1: random_moebius(rng)})
        iso = iso_of_spheres(two_vertex, twisted)
        assert iso is not None
        vmap, moebs = iso
        assert vmap[0] in twisted.shape.internal
        for v, m in moebs.items():
            a1 = marking_dict(two_vertex, v)
            a2 = marking_dict(twisted, vmap[v])
            assert all(m.apply(a1[x]) == a2[x] for x in two_vertex.labels)


def _remark_one_vertex(t: TreeOfSpheres, rng: random.Random) -> TreeOfSpheres:
    """t with the edge points of one internal vertex drawn afresh.

    At a trivalent vertex any three points are Moebius-equivalent, so the
    class is kept; at a higher valence it almost always moves.
    """
    v = rng.choice(sorted(t.shape.internal))
    marking = {w: dict(t.edge_points(w)) for w in t.shape.internal}
    ns = neighbors(t.shape, v)
    marking[v] = dict(zip(ns, rng.sample(POINT_POOL, len(ns))))
    return TreeOfSpheres.make(t.shape, marking)


class TestIsoOracles:
    """spheres_iso decides by the explicit isomorphism; the embedding and the
    canonical forms are independent oracles for its verdicts."""

    @pytest.mark.parametrize("seed", range(3))
    def test_verdict_matches_embedding_and_explicit_iso(self, seed):
        rng = random.Random(5100 + seed)
        verdicts = []
        for n in range(5, 11):
            for form in ("twist", "remark_vertex", "remark"):
                a = random_marking(random_stable_shape(n, rng), rng)
                b = twist(a, {v: random_moebius(rng) for v in a.shape.internal})
                if form == "remark_vertex":
                    b = _remark_one_vertex(b, rng)
                elif form == "remark":
                    b = random_marking(a.shape, rng)
                verdict = spheres_iso(a, b)
                assert verdict == (embed(a) == embed(b))
                assert verdict == (iso_of_spheres(a, b) is not None)
                assert verdict == (canonical_form(a) == canonical_form(b))
                if form == "twist":
                    assert verdict
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts


def oracle_iso_of_spheres(t1: TreeOfSpheres, t2: TreeOfSpheres):
    """iso_of_spheres as it was before the chart table: both vertex charts
    of each vertex pair are built afresh on every call."""
    parts1 = {v: partition_at(t1.shape, v) for v in t1.shape.internal}
    parts2 = {partition_at(t2.shape, v): v for v in t2.shape.internal}
    if frozenset(parts1.values()) != frozenset(parts2):
        return None
    vmap: dict = {x: x for x in t1.labels} | {v: parts2[p] for v, p in parts1.items()}
    mmap: dict = {}
    for v1, p in parts1.items():
        v2 = vmap[v1]
        triple = representative_triple(p)
        iso = (moduli.vertex_chart(t2, v2, triple).inverse()
               .compose(moduli.vertex_chart(t1, v1, triple)))
        row2 = t2.edge_points(v2)
        if any(iso.apply(q) != row2[vmap[n]] for n, q in t1.edge_points(v1).items()):
            return None
        mmap[v1] = iso
    return vmap, mmap


def triple_edges(t: TreeOfSpheres, v: int) -> list:
    """The edges at v toward its representative triple's labels, in the triple's order."""
    beyond = branches(t.shape, v)
    return [next(n for n, b in beyond.items() if x in b)
            for x in representative_triple(partition_at(t.shape, v))]


def _classify_item(n: int, rng: random.Random) -> list:
    """A tree, two Moebius twists of it and a fresh marking of its shape."""
    base = random_marking(random_stable_shape(n, rng), rng)
    return [base] + [twist(base, {v: random_moebius(rng) for v in base.shape.internal})
                     for _ in range(2)] + [random_marking(base.shape, rng)]


class TestChartTable:
    """canonical_form and iso_of_spheres read one chart table per tree."""

    @pytest.fixture
    def chart_calls(self, monkeypatch):
        calls = Counter()
        real = moduli.vertex_chart

        def counted(t, v, triple):
            calls[id(t), v] += 1
            return real(t, v, triple)
        monkeypatch.setattr(moduli, "vertex_chart", counted)
        return calls

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_each_vertex_is_charted_once(self, chart_calls, n):
        # the decision and the canonical forms read the chart tables and build no vertex
        # chart; each explicit isomorphism builds one per vertex of each of its trees
        rng = random.Random(7300 + n)
        for _ in range(3):
            trees = _classify_item(n, rng)
            canon = [canonical_form(t) for t in trees]
            verdicts = [spheres_iso(trees[0], t) for t in trees[1:]]
            assert verdicts[:2] == [True, True]
            assert verdicts == [canon[0] == c for c in canon[1:]]
            assert not chart_calls
            for t in trees[1:3]:
                assert iso_of_spheres(trees[0], t) is not None
                assert chart_calls == Counter({(id(s), v): 1 for s in (trees[0], t)
                                               for v in s.shape.internal})
                chart_calls.clear()

    def test_table_holds_partition_and_representative_chart(self):
        rng = random.Random(7400)
        for t in _classify_item(9, rng):
            table = moduli.vertex_charts(t)
            assert table is moduli.vertex_charts(t)
            for v in t.shape.internal:
                p = partition_at(t.shape, v)
                sigma = moduli.vertex_chart(t, v, representative_triple(p))
                row = {n: sigma.apply(q) for n, q in t.edge_points(v).items()}
                assert table[v] == (p, row)
                with pytest.raises(TypeError):
                    table[v][1][triple_edges(t, v)[0]] = INF
            with pytest.raises(TypeError):
                table[0] = table[min(t.shape.internal)]

    @pytest.mark.parametrize("seed", range(3))
    def test_charted_rows_are_the_representative_charts(self, seed):
        # at every edge point, the three triple edges included, on random, star,
        # spine and all-trivalent shapes
        rng = random.Random(f"charted-rows-{seed}")
        for n in (4, 7, 12, 20):
            for shape in (random_stable_shape(n, rng), spine_shape(n, n + 1),
                          spine_shape(n, 5), trivalent_shape(n, rng)):
                t = random_marking(shape, rng)
                for v, (p, row) in moduli.vertex_charts(t).items():
                    sigma = vertex_chart(t, v, representative_triple(p))
                    assert [row[e] for e in triple_edges(t, v)] == [pt(0), pt(1), INF]
                    assert row == {n: sigma.apply(q) for n, q in t.edge_points(v).items()}

    @pytest.mark.parametrize("seed", range(3))
    def test_one_moved_edge_point_off_the_triple(self, seed):
        # pairs differing at one edge point of a vertex of valence >= 4, not on its
        # representative triple's edges: the decision, the explicit iso and the
        # old iso agree, and so do the canonical forms
        rng = random.Random(f"moved-point-{seed}")
        seen = Counter()
        for n in (5, 8, 12, 16):
            for shape in (random_stable_shape(n, rng), spine_shape(n, n + 1),
                          spine_shape(n, 5)):
                a = random_marking(shape, rng)
                high = [v for v in sorted(shape.internal) if len(neighbors(shape, v)) > 3]
                if not high:
                    continue
                v = rng.choice(high)
                edges = triple_edges(a, v)
                n_moved = rng.choice([e for e in neighbors(shape, v) if e not in edges])
                marking = {w: dict(a.edge_points(w)) for w in shape.internal}
                used = set(marking[v].values())
                marking[v][n_moved] = rng.choice([q for q in POINT_POOL if q not in used])
                b = twist(TreeOfSpheres.make(shape, marking),
                          {w: random_moebius(rng) for w in shape.internal})
                for x, y in ((a, b), (b, a)):
                    got = iso_of_spheres(x, y)
                    assert got == oracle_iso_of_spheres(x, y)
                    assert spheres_iso(x, y) == (got is not None) == (
                        canonical_form(x) == canonical_form(y))
                seen[spheres_iso(a, b)] += 1
        assert seen[False] and not seen[True]

    def test_limit_cover_builds_each_chart_once(self, chart_calls):
        # the decision builds no vertex chart; the explicit maps build one at every
        # vertex of both trees
        for fam in (conftest.degenerate_family_two_vertex(),
                    conftest.degenerate_family_three_vertex(),
                    conftest.degenerate_family_extra_fiber()):
            cover = limit_cover(fam)
            assert chart_calls and set(chart_calls.values()) == {1}
            assert len(chart_calls) == 2 * len(cover.target.shape.internal)
            chart_calls.clear()

    def test_trivalent_trees_are_decided_without_moebius_maps(self, monkeypatch):
        rng = random.Random(7600)
        pairs = [(random_marking(shape, rng), random_marking(shape, rng))
                 for shape in (trivalent_shape(n, rng) for n in (3, 6, 11, 24))]

        def refuse(*args):
            raise AssertionError("a Moebius map was built or applied")
        monkeypatch.setattr(moduli, "moebius_from_three", refuse)
        monkeypatch.setattr(Moebius, "apply", refuse)
        for a, b in pairs:
            assert spheres_iso(a, b) and spheres_iso(b, a)
            assert canonical_form(a) == canonical_form(b)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_vertex_builds_a_moebius_map(self, monkeypatch, seed):
        # the chart tables, the decision and the canonical forms of trees of every
        # valence, twisted and remarked, construct and apply no Moebius map
        rng = random.Random(f"no-moebius-{seed}")
        items = [_classify_item(n, rng) for n in (4, 7, 12, 20)]
        items += [[random_marking(shape, rng) for _ in range(2)]
                  for shape in (spine_shape(12, 13), spine_shape(12, 5))]
        expected = [[oracle_iso_of_spheres(ts[0], t) is not None for t in ts] for ts in items]

        def refuse(*args):
            raise AssertionError("a Moebius map was built or applied")
        for owner, name in ((Moebius, "of_triples"), (Moebius, "apply"),
                            (moduli, "moebius_from_three"), (moduli, "vertex_chart")):
            monkeypatch.setattr(owner, name, refuse)
        for ts, verdicts in zip(items, expected):
            tables = [moduli.vertex_charts(t) for t in ts]
            assert all(len(table) == len(t.shape.internal) for t, table in zip(ts, tables))
            assert [spheres_iso(ts[0], t) for t in ts] == verdicts
            assert [canonical_form(ts[0]) == canonical_form(t) for t in ts] == verdicts
        assert any(not v for vs in expected for v in vs)

    def test_partition_mismatch_builds_no_chart(self, monkeypatch, two_vertex):
        def refuse(t, v, triple):
            raise AssertionError("a chart was built for trees of different shapes")
        monkeypatch.setattr(moduli, "vertex_chart", refuse)
        shape = MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                                [("1", 0), ("3", 0), (0, 1), ("2", 1), ("4", 1)])
        other = TreeOfSpheres.make(shape, {
            0: {"1": pt(0), "3": pt(1), 1: INF},
            1: {"2": pt(0), "4": pt(1), 0: INF},
        })
        assert iso_of_spheres(two_vertex, other) is None
        assert not spheres_iso(other, two_vertex)
        assert two_vertex._charts is None and other._charts is None

    @pytest.mark.parametrize("seed", range(3))
    def test_witness_matches_the_old_iso(self, seed):
        rng = random.Random(7500 + seed)
        seen = Counter()
        for n in range(4, 17):
            shape = random_stable_shape(n, rng)
            a = random_marking(shape, rng)
            others = [
                twist(a, {v: random_moebius(rng) for v in a.shape.internal}),
                _remark_one_vertex(a, rng),
                random_marking(shape, rng),
                random_marking(random_stable_shape(n, rng), rng),
            ]
            for b in others:
                if rng.random() < 0.5:  # the tables may already be filled
                    canonical_form(a), canonical_form(b)
                got = iso_of_spheres(a, b)
                assert got == oracle_iso_of_spheres(a, b)
                assert (iso_of_spheres(b, a) is None) == (got is None)
                seen[got is not None] += 1
        assert seen[True] and seen[False]


def _share_labels(cover: TreeCover) -> TreeCover:
    """The cover with each target label renamed to one of its preimages."""
    vm = cover.vm
    rename, used = {}, set()
    for z in sorted(cover.target.labels):
        rename[z] = next(y for y in sorted(cover.source.labels)
                         if vm[y] == z and y not in used)
        used.add(rename[z])

    def rn(v):
        return rename.get(v, v)

    shape = cover.target.shape
    target = TreeOfSpheres.make(
        MarkedTree.make([rn(x) for x in shape.leaves], shape.internal,
                        [tuple(rn(v) for v in e) for e in shape.edges]),
        {w: {rn(n): p for n, p in cover.target.edge_points(w).items()}
         for w in shape.internal})
    return TreeCover.make(cover.source, target, {v: rn(w) for v, w in vm.items()},
                          dict(cover.maps))


class TestDecisionsSkipTheEmbedding:
    """Isomorphism, cover isomorphism and dynamics membership never build
    the O(n^4) embedding; their verdicts still match the explicit iso and,
    for trees and covers, the canonical forms."""

    @pytest.fixture(autouse=True)
    def no_embed(self, monkeypatch):
        def refuse(t):
            raise AssertionError("the embedding was built on a decision path")
        monkeypatch.setattr(moduli, "embed", refuse)

    def test_spheres_iso(self, tree_corpus):
        rng = random.Random(31)
        for t in rng.sample(tree_corpus, 60):
            twisted = twist(t, {v: random_moebius(rng) for v in t.shape.internal})
            assert spheres_iso(t, twisted)
        for _ in range(300):
            a, b = rng.choice(tree_corpus), rng.choice(tree_corpus)
            if a.labels == b.labels:
                verdict = spheres_iso(a, b)
                assert verdict == (iso_of_spheres(a, b) is not None)
                assert verdict == (canonical_form(a) == canonical_form(b))

    def test_cover_iso(self, cover_corpus):
        seen = set()
        for c1 in cover_corpus:
            for c2 in cover_corpus:
                if extract_portrait(c1) != extract_portrait(c2):
                    continue
                verdict = cover_iso(c1, c2)
                assert verdict == (iso_of_spheres(c1.source, c2.source) is not None)
                assert verdict == (canonical_form(c1.source) == canonical_form(c2.source))
                seen.add(verdict)
        assert seen == {True, False}

    def test_dyn_membership(self, cover_corpus):
        rng = random.Random(37)
        seen = set()
        for cover in map(_share_labels, cover_corpus):
            labels = sorted(cover.target.labels)
            for sub in {tuple(labels)} | {tuple(sorted(rng.sample(labels, 3)))
                                          for _ in range(3)}:
                member, witness = dyn_membership(cover, sub)
                expected = iso_of_spheres(project(cover.source, sub),
                                          project(cover.target, sub))
                assert member == (expected is not None)
                assert (witness is not None) == member
                seen.add(member)
        assert seen == {True, False}


class TestProject:
    def test_full_set_is_identity(self, two_vertex):
        p = project(two_vertex, ["1", "2", "3", "4"])
        assert spheres_iso(p, two_vertex)

    def test_full_set_renumbers_by_partition_rank_and_keeps_every_row(self):
        # the identity dynamics.compatible relies on: projecting a tree onto its own labels
        # renames internal vertices by the rank of their partitions and moves no point
        rng = random.Random(4312)
        for n in range(3, 13):
            for twisted in (False, True):
                t = random_marking(random_stable_shape(n, rng), rng)
                if twisted:
                    t = twist(t, {v: random_moebius(rng) for v in t.shape.internal})
                order = sorted(t.shape.internal,
                               key=lambda v: partition_sort_key(partition_at(t.shape, v)))
                rank = {v: i for i, v in enumerate(order)} | {x: x for x in t.labels}
                shape = MarkedTree.make(t.labels, range(len(order)),
                                        [tuple(rank[x] for x in e) for e in t.shape.edges])
                expected = TreeOfSpheres.make(shape, {
                    rank[v]: {rank[m]: p for m, p in t.edge_points(v).items()} for v in order})
                assert project(t, t.labels) == expected
                assert project(t, t.labels).marking == expected.marking

    def test_drops_unseparated_vertex(self):
        shape = MarkedTree.make(
            ["1", "2", "3", "4", "5"], [0, 1],
            [("1", 0), ("2", 0), ("3", 0), (0, 1), ("4", 1), ("5", 1)])
        t = TreeOfSpheres.make(shape, {
            0: {"1": pt(0), "2": pt(1), "3": pt(2), 1: INF},
            1: {"4": pt(0), "5": pt(1), 0: INF},
        })
        p = project(t, ["1", "2", "3", "4"])
        assert len(p.shape.internal) == 1
        assert marking_dict(p, 0) == {"1": pt(0), "2": pt(1), "3": pt(2), "4": INF}

    def test_star_restriction(self, star4):
        p = project(star4, ["1", "2", "4"])
        assert marking_dict(p, 0) == {"1": pt(0), "2": pt(1), "4": pt(5)}

    def test_commuting_square(self):
        # the forgetful map in cross-ratio coordinates: embedding a projection
        # reads the same values as embedding the tree, on every 4-label set
        rng = random.Random(2014)
        for k in range(12):
            t = random_marking(random_stable_shape(4 + k % 6, rng), rng)
            if k % 2:
                t = twist(t, {v: random_moebius(rng) for v in t.shape.internal})
            et = embed(t)
            for sub in combinations(sorted(t.labels), 4):
                for (triple, x), value in embed(project(t, sub)).items():
                    assert et[triple, x] == value, (k, sub, triple, x)

    def test_idempotent(self, two_vertex):
        p1 = project(two_vertex, ["1", "3", "4"])
        p2 = project(p1, ["1", "3", "4"])
        assert spheres_iso(p1, p2)

    def test_composition(self, small_shapes):
        # restricting in two steps agrees with restricting at once
        rng = random.Random(123)
        for shape in rng.sample(small_shapes[6], 6):
            t = random_marking(shape, rng)
            labels = sorted(t.labels)
            big = rng.sample(labels, 5)
            small = sorted(rng.sample(big, 3))
            two_step = project(project(t, big), small)
            one_step = project(t, small)
            assert spheres_iso(two_step, one_step)

    def test_too_small(self, two_vertex):
        with pytest.raises(MarkedSetTooSmall):
            project(two_vertex, ["1", "2"])


def project_scale_digests() -> list[str]:
    """'n form i k sha256' of the project dump of each of three seeded random trees of
    spheres per n in (16, 32, 64) and form, each projected to three random label subsets
    of k labels; rewrite the pin with `PYTHONPATH=src:tests python3 -c "import
    test_moduli as t; print(*t.project_scale_digests(), sep=chr(10))" >
    tests/golden/project_scale.sha`"""
    lines = []
    for n in (16, 32, 64):
        for form in ("plain", "twist"):
            rng = random.Random(f"project-scale-{n}-{form}")
            for i in range(3):
                t = random_marking(random_stable_shape(n, rng), rng)
                if form == "twist":
                    t = twist(t, {v: random_moebius(rng) for v in sorted(t.shape.internal)})
                for _ in range(3):
                    sub = rng.sample(sorted(t.labels), rng.randint(3, n - 1))
                    out = ser.canonical_dumps(ser.tree_of_spheres_to_json(project(t, sub)))
                    digest = hashlib.sha256(out.encode()).hexdigest()
                    lines.append(f"{n} {form} {i} {len(sub)} {digest}")
    return lines


def test_project_digests_are_pinned_at_scale():
    # byte identity of project past TestProject's small trees
    golden = pathlib.Path(__file__).parent / "golden" / "project_scale.sha"
    assert project_scale_digests() == golden.read_text().splitlines()


def spine_shape(n: int, valence: int) -> MarkedTree:
    """Labels "1".."n" on a path of internal vertices, each holding up to
    valence - 2 labels (the ends one more), so that most vertices have high
    valence; with valence >= n it is the star."""
    labels = [str(i) for i in range(1, n + 1)]
    groups, rest = [labels[:valence - 1]], labels[valence - 1:]
    while len(rest) > valence - 1:
        groups.append(rest[:valence - 2])
        rest = rest[valence - 2:]
    if rest:
        groups.append(rest)
    if len(groups) > 1 and len(groups[-1]) < 2:
        groups[-1] = groups[-2][-1:] + groups[-1]
        groups[-2] = groups[-2][:-1]
    edges = [(x, k) for k, group in enumerate(groups) for x in group]
    edges += [(k, k + 1) for k in range(len(groups) - 1)]
    return MarkedTree.make(labels, range(len(groups)), edges)


def trivalent_shape(n: int, rng: random.Random) -> MarkedTree:
    """A stable tree on labels "1".."n" whose internal vertices are all
    trivalent: each new label subdivides a random edge."""
    labels = [str(i) for i in range(1, n + 1)]
    edges = [(x, 0) for x in labels[:3]]
    for k, x in enumerate(labels[3:], start=1):
        a, b = edges.pop(rng.randrange(len(edges)))
        edges += [(a, k), (k, b), (x, k)]
    return MarkedTree.make(labels, range(n - 2), edges)


def canonical_scale_digests() -> list[str]:
    """'n shape i kind verdict sha256' for three seeded trees of spheres per n in
    (16, 32, 64) and shape, each paired with a twist, a twist with one vertex
    re-marked and a fresh marking of its shape: the canonical_form dump of the
    tree (kind "self") or of its partner, then the spheres_iso verdict and the
    sorted iso_of_spheres witness, hashed together; rewrite the pin with
    `PYTHONPATH=src:tests python3 -c "import test_moduli as t;
    print(*t.canonical_scale_digests(), sep=chr(10))" > tests/golden/canonical_scale.sha`"""
    def dump(t: TreeOfSpheres) -> str:
        return ser.canonical_dumps(ser.tree_of_spheres_to_json(canonical_form(t)))

    lines = []
    for n in (16, 32, 64):
        for kind in ("random", "star", "spine", "trivalent"):
            rng = random.Random(f"canonical-scale-{n}-{kind}")
            for i in range(3):
                shape = {"random": lambda: random_stable_shape(n, rng),
                         "star": lambda: spine_shape(n, n + 1),
                         "spine": lambda: spine_shape(n, rng.randint(5, 9)),
                         "trivalent": lambda: trivalent_shape(n, rng)}[kind]()
                a = random_marking(shape, rng)
                twisted = twist(a, {v: random_moebius(rng) for v in sorted(a.shape.internal)})
                pairs = [("self", a), ("twist", twisted),
                         ("remark", _remark_one_vertex(twisted, rng)),
                         ("fresh", random_marking(a.shape, rng))]
                for name, b in pairs:
                    iso = iso_of_spheres(a, b)
                    verdict = spheres_iso(a, b)
                    witness = None if iso is None else (
                        sorted(iso[0].items(), key=lambda kv: vertex_key(kv[0])),
                        sorted(iso[1].items()))
                    out = f"{dump(b)}\n{verdict}\n{witness!r}"
                    digest = hashlib.sha256(out.encode()).hexdigest()
                    lines.append(f"{n} {kind} {i} {name} {verdict} {digest}")
    return lines


def test_canonical_and_iso_are_pinned_at_scale():
    # byte identity of canonical_form and of the iso witness past the small corpora
    golden = pathlib.Path(__file__).parent / "golden" / "canonical_scale.sha"
    assert canonical_scale_digests() == golden.read_text().splitlines()


class TestCanonicalForm:
    def test_fixed_point(self, two_vertex):
        c = canonical_form(two_vertex)
        assert canonical_form(c) == c

    def test_separates_classes(self, star4):
        other = sphere_as_tree(MarkedSphere.make(
            {"1": pt(0), "2": pt(1), "3": INF, "4": pt(6)}))
        assert canonical_form(star4) != canonical_form(other)


def caterpillar_shape(n: int) -> MarkedTree:
    """Labels "1".."n" on a path of internal vertices 0..n-3: two labels at each
    end of the path and one at every other vertex."""
    labels = [str(i) for i in range(1, n + 1)]
    edges = [(labels[0], 0), (labels[-1], n - 3)]
    edges += [(labels[k + 1], k) for k in range(n - 2)]
    edges += [(k, k + 1) for k in range(n - 3)]
    return MarkedTree.make(labels, range(n - 2), edges)


def assembly_corpus(rng: random.Random) -> list:
    """Limit trees of plumbed families (plain, twisted, reparametrized) and of
    plumbed caterpillars, and random markings of random and caterpillar shapes."""
    out = []
    for n in (4, 6, 9, 12):
        for shape in (random_stable_shape(n, rng), caterpillar_shape(n)):
            fam = plumb_family(random_marking(shape, rng))
            out += [limit_tree(fam), limit_tree(fam.twist(random_moebius(rng))),
                    limit_tree(fam.reparametrize(2)), random_marking(shape, rng)]
    return out


def assert_rebuilds(t: TreeOfSpheres) -> None:
    """t is what the full constructors make of its own data, with a valid shape
    whose derived tables are the ones a walk gives."""
    shape = MarkedTree.make(t.shape.leaves, t.shape.internal, t.shape.edges)
    again = TreeOfSpheres.make(shape, {v: dict(row) for v, row in t.marking})
    assert again == t and repr(again.marking) == repr(t.marking)
    assert validate_tree(t.shape) == [] and trees._tree_problems(t.shape) == []
    for v in sorted(t.shape.internal):
        assert list(branches(t.shape, v).items()) == list(branches(shape, v).items())
        assert neighbors(t.shape, v) == neighbors(shape, v)


class TestAssembledOnce:
    """Limit assembly, canonical forms and twists build their trees without the
    full checks of TreeOfSpheres.make, which parsed and reconstructed trees keep."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_construction_rebuilds_from_its_own_data(self, seed):
        rng = random.Random(f"assembled-{seed}")
        for t in assembly_corpus(rng):
            charts = {partition_at(t.shape, v): marking_dict(t, v) for v in t.shape.internal}
            labels = sorted(t.labels)
            sub = rng.sample(labels, rng.randint(3, len(labels)))
            maps = {v: random_moebius(rng) for v in t.shape.internal if rng.random() < 0.7}
            made = [tree_from_charts(charts), canonical_form(t), twist(t, maps), project(t, sub)]
            made.append(canonical_form(made[1]))
            for result in [t] + made:
                assert_rebuilds(result)
            assert spheres_iso(made[0], t) and spheres_iso(made[2], t)
            assert made[4] == made[1]

    def test_a_chart_with_two_block_minima_at_one_point_is_refused(self):
        # ranks: 0 is {1}{2}{3,4}, 1 is {1,2}{3}{4}; at vertex 1 the edge toward 0
        # takes the point of "1", which the chart gives to "3" as well
        blocks = [["1"], ["2"], ["3", "4"]], [["1", "2"], ["3"], ["4"]]
        parts = [frozenset(map(frozenset, p)) for p in blocks]
        charts = {parts[0]: {"1": pt(0), "2": pt(1), "3": INF, "4": INF},
                  parts[1]: {"1": pt(0), "2": pt(0), "3": pt(0), "4": INF}}
        with pytest.raises(InvalidFamily) as info:
            tree_from_charts(charts)
        assert str(info.value) == "edge marking at vertex 1 is not injective"
        assert info.value.witness == ["0", "3"]

    def test_make_names_the_first_vertex_at_fault(self, two_vertex):
        shape = two_vertex.shape
        collide = {"1": pt(0), "2": pt(0), 1: INF}
        with pytest.raises(InvalidFamily) as info:
            TreeOfSpheres.make(shape, {0: collide, 1: {"3": pt(0), 0: INF}})
        assert str(info.value) == "edge marking at vertex 0 is not injective"
        assert info.value.witness == ["1", "2"]
        with pytest.raises(InvalidFamily) as info:
            TreeOfSpheres.make(shape, {0: {"1": pt(0), 1: INF},
                                       1: {"3": pt(0), "4": pt(0), 0: INF}})
        assert str(info.value) == "marking at vertex 0 must assign exactly its edges"
        assert info.value.witness == ["1", "1", "2"]  # leaves "1", "2" and vertex 1

    def test_twist_refuses_keys_that_are_not_internal_vertices(self, two_vertex):
        m = Moebius.make(gr(2), gr(0), gr(0), gr(1))
        for maps, stray in [({"1": m}, ["1"]), ({0: m, 7: m, "3": m}, ["3", "7"])]:
            with pytest.raises(InvalidFamily) as info:
                twist(two_vertex, maps)
            assert str(info.value) == "twist maps must be keyed by internal vertices"
            assert info.value.witness == stray
        assert twist(two_vertex, {}) == two_vertex
        assert twist(two_vertex, {1: m}).edge_points(0) == two_vertex.edge_points(0)


class TestRowsInNeighborsOrder:
    """Every constructor leaves each row in neighbors order, which the writer, the
    cover check and the reconstruction read without sorting it again."""

    @pytest.mark.parametrize("seed", range(3))
    def test_trees_of_spheres(self, seed):
        rng = random.Random(f"rows-{seed}")
        for t in assembly_corpus(rng):  # limit_tree and make, over random shapes
            labels = sorted(t.labels)
            maps = {v: random_moebius(rng) for v in t.shape.internal if rng.random() < 0.7}
            # make given each row backwards, and ids past 9, where str and int order part
            backwards = TreeOfSpheres.make(t.shape, {v: dict(reversed(row)) for v, row in t.marking})
            made = [t, backwards, conftest.relabel_tree(t, 7), canonical_form(t), twist(t, maps),
                    project(t, rng.sample(labels, rng.randint(3, len(labels))))]
            made.append(canonical_form(made[2]))
            for result in made:
                assert_rows_in_neighbors_order(result)
            assert backwards == t and made[-1] == made[3]

    def test_cover_targets(self, cover_corpus):
        families = [conftest.degenerate_family_two_vertex(),
                    conftest.degenerate_family_three_vertex(),
                    conftest.degenerate_family_split_fiber(),
                    conftest.degenerate_family_double_fold()]
        covers = [limit_cover(fam) for fam in families]
        rebuilt = [reconstruct_cover(c.source, extract_portrait(c)) for c in cover_corpus]
        for cover in covers + rebuilt:
            assert_rows_in_neighbors_order(cover.source)
            assert_rows_in_neighbors_order(cover.target)
        assert any(len(c.target.shape.internal) > 1 for c in covers + rebuilt)


@pytest.fixture
def derivations(monkeypatch):
    """Counts of stability checks and of branch walks, that is branches asked of
    a tree that has no branch table yet."""
    counts = Counter()
    problems, walk = trees._tree_problems, trees.branches

    def counted_problems(t):
        counts["problems"] += 1
        return problems(t)

    def counted_walk(t, v):
        if t._branches is None:
            counts["walks"] += 1
        return walk(t, v)

    monkeypatch.setattr(trees, "_tree_problems", counted_problems)
    for module in (trees, moduli):
        monkeypatch.setattr(module, "branches", counted_walk)
    return counts


class TestAssemblyWork:
    @pytest.mark.parametrize("n", [6, 12])
    def test_limit_tree_checks_its_shape_once_and_walks_nothing(self, derivations, n):
        rng = random.Random(n)
        fam = plumb_family(random_marking(random_stable_shape(n, rng), rng))
        derivations.clear()
        t = limit_tree(fam)
        assert derivations == {}  # the admissibility check certifies the shape
        assert t.shape._problems == ()

    def test_canonical_forms_and_twists_derive_nothing(self, derivations):
        rng = random.Random("work")
        sources = [limit_tree(plumb_family(random_marking(random_stable_shape(9, rng), rng))),
                  random_marking(caterpillar_shape(9), rng)]
        moduli.vertex_charts(sources[1])
        derivations.clear()
        for t in sources:
            c = canonical_form(t)
            twisted = twist(t, {v: random_moebius(rng) for v in t.shape.internal})
            canonical_form(c)
            twist(c, {0: random_moebius(rng)})
            canonical_form(twisted)
        assert derivations == {}
