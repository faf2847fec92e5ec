"""Limit trees of Laurent families, numeric mode, cover limits."""

from __future__ import annotations

import random

import pytest

from conftest import (
    INF,
    LINF,
    degenerate_family_split_fiber,
    degenerate_family_three_vertex,
    degenerate_family_two_vertex,
    lconst,
    lpoly,
    pt,
    random_marking,
    random_moebius,
    random_stable_shape,
)
from sphere_trees.covers import extract_portrait, reconstruct_cover, validate_cover
from sphere_trees.errors import NotStabilized
from sphere_trees.gaussian import gr
from sphere_trees.laurent import LaurentPoly
from sphere_trees.limits import (
    LaurentFamily,
    NumericConfigSequence,
    limit_cover,
    limit_tree,
    numeric_limit_tree,
)
from sphere_trees.moduli import embed, marking_dict, sphere_as_tree, spheres_iso
from sphere_trees.moduli import MarkedSphere
from sphere_trees.plumbing import plumb_family
from sphere_trees.trees import tree_partitions


def fs(*blocks):
    return frozenset(frozenset(b) for b in blocks)


@pytest.fixture
def eps_family():
    return LaurentFamily.make({
        "1": lconst(0), "2": lconst(1), "3": LINF, "4": lpoly([(1, gr(1))])})


class TestLimitTree:
    def test_constant_family(self):
        fam = LaurentFamily.make({"1": lconst(0), "2": lconst(1), "3": LINF})
        t = limit_tree(fam)
        expected = sphere_as_tree(MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF}))
        assert spheres_iso(t, expected)

    def test_eps_two_vertex(self, eps_family):
        from sphere_trees.trees import partition_at
        t = limit_tree(eps_family)
        assert tree_partitions(t.shape) == frozenset([
            fs(["1", "4"], ["2"], ["3"]), fs(["1"], ["2", "3"], ["4"])])
        coarse = next(v for v in t.shape.internal
                      if partition_at(t.shape, v) == fs(["1", "4"], ["2"], ["3"]))
        assert marking_dict(t, coarse) == {
            "1": pt(0), "2": pt(1), "3": INF, "4": pt(0)}

    def test_caterpillar_three_vertices(self):
        fam = LaurentFamily.make({
            "1": lconst(0), "2": lconst(1), "3": LINF,
            "4": lpoly([(1, gr(1))]),
            "5": lpoly([(1, gr(1)), (2, gr(1))]),
        })
        t = limit_tree(fam)
        assert len(t.shape.internal) == 3

    @staticmethod
    def assert_embedding_is_quadruple_limits(fam):
        """The oracle: every embedding value of the limit tree is the leading
        value of the full Laurent cross-ratio of that quadruple."""
        from itertools import permutations
        from sphere_trees.laurent import laurent_cross_ratio, laurent_leading_value
        values = embed(limit_tree(fam)).mapping
        paths = dict(fam.paths)
        for triple in permutations(sorted(paths), 3):
            for x in sorted(paths):
                cr = laurent_cross_ratio(paths[triple[0]], paths[triple[1]],
                                         paths[triple[2]], paths[x])
                assert values[(triple, x)] == laurent_leading_value(cr), (triple, x)

    def test_embedding_agrees_with_quadruple_limits(self, eps_family):
        self.assert_embedding_is_quadruple_limits(eps_family)

    @pytest.mark.parametrize("n", range(5, 10))
    @pytest.mark.parametrize("form", ["plain", "twist", "reparametrize"])
    def test_embedding_agrees_with_quadruple_limits_on_plumbed_families(self, n, form):
        rng = random.Random(f"{n}-{form}")
        fam = plumb_family(random_marking(random_stable_shape(n, rng), rng))
        if form == "twist":
            fam = fam.twist(random_moebius(rng))
        elif form == "reparametrize":
            fam = fam.reparametrize(2)
        self.assert_embedding_is_quadruple_limits(fam)

    def test_laurent_products_grow_with_pairs_not_quadruples(self, monkeypatch):
        # each of the n(n-1)/2 brackets is expanded once, at two products each
        n = 12
        rng = random.Random(12)
        fam = plumb_family(random_marking(random_stable_shape(n, rng), rng))
        fam = fam.twist(random_moebius(rng))
        calls = []
        mul = LaurentPoly.__mul__

        def counted(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        limit_tree(fam)
        assert 0 < len(calls) <= n * (n - 1)

    def test_reparametrization_invariance(self, eps_family):
        assert spheres_iso(limit_tree(eps_family),
                           limit_tree(eps_family.reparametrize(2)))

    def test_global_moebius_invariance(self, eps_family):
        rng = random.Random(3)
        m = random_moebius(rng)
        assert spheres_iso(limit_tree(eps_family), limit_tree(eps_family.twist(m)))


class TestNumericLimit:
    def test_constant_snapshots(self):
        snaps = [{"1": 0j, "2": 1 + 0j, "3": None, "4": 5 + 0j} for _ in range(10)]
        seq = NumericConfigSequence.make(snaps, [1.0 / (i + 2) for i in range(10)])
        t = numeric_limit_tree(seq)
        assert len(t.shape.internal) == 1

    def test_harmonic_degeneration(self, eps_family):
        snaps, eps = [], []
        for n in range(10, 201):
            snaps.append({"1": 0j, "2": 1 + 0j, "3": None, "4": complex(1.0 / n)})
            eps.append(1.0 / n)
        t = numeric_limit_tree(NumericConfigSequence.make(snaps, eps))
        assert tree_partitions(t.shape) == tree_partitions(limit_tree(eps_family).shape)

    def test_random_walk_not_stabilized(self):
        rng = random.Random(1)
        snaps = [{"1": complex(rng.random(), rng.random()), "2": 1 + 0j,
                  "3": None, "4": 5 + 0j} for _ in range(30)]
        with pytest.raises(NotStabilized):
            numeric_limit_tree(NumericConfigSequence.make(
                snaps, [1.0 / (i + 10) for i in range(30)]))

    def test_coincident_labels_refused(self):
        # labels 2 and 4 round to the same float in the snapshot nearest the limit
        snaps = [{"1": 0j, "2": 1 + 0j, "3": None, "4": 5 + 0j} for _ in range(10)]
        snaps[9]["4"] = 1 + 0j
        eps = [1.0 / (i + 2) for i in range(10)]
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(NumericConfigSequence.make(snaps, eps))
        assert info.value.witness == {"quadruple": ["1", "2", "4", "2"], "eps": eps[9]}

    def test_non_transitive_clustering(self):
        from sphere_trees.errors import InconsistentClustering
        # a, b, c settle at mutual chordal gaps of 8e-7, 8e-7, and 1.6e-6
        snap = {"a": 0j, "b": 4e-7 + 0j, "c": 8e-7 + 0j, "d": 1 + 0j, "e": None}
        snaps = [dict(snap) for _ in range(10)]
        seq = NumericConfigSequence.make(snaps, [1.0 / (i + 2) for i in range(10)])
        with pytest.raises(InconsistentClustering):
            numeric_limit_tree(seq)


class TestLimitCover:
    def test_two_vertex_family(self):
        fam = degenerate_family_two_vertex()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert spheres_iso(cover.source, limit_tree(fam.y_family))
        assert spheres_iso(cover.target, limit_tree(fam.z_family))
        assert len(cover.source.shape.internal) == 2

    def test_three_vertex_family(self):
        fam = degenerate_family_three_vertex()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert len(cover.source.shape.internal) == 3
        rebuilt = reconstruct_cover(cover.source, fam.portrait)
        from sphere_trees.covers import cover_iso
        assert cover_iso(rebuilt, cover)

    def test_portrait_preserved(self):
        fam = degenerate_family_two_vertex()
        assert extract_portrait(limit_cover(fam)) == fam.portrait

    def test_double_fold_family(self):
        from conftest import degenerate_family_double_fold
        from sphere_trees.covers import cover_iso
        fam = degenerate_family_double_fold()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert len(cover.source.shape.internal) == 5
        assert len(cover.target.shape.internal) == 3
        fibers: dict = {}
        for v in cover.source.shape.internal:
            fibers.setdefault(cover.vm[v], []).append(v)
        assert sorted(len(f) for f in fibers.values()) == [1, 2, 2]
        rebuilt = reconstruct_cover(cover.source, fam.portrait)
        assert cover_iso(rebuilt, cover)

    def test_split_fiber_family(self):
        # two source vertices fold onto one target vertex with degree 1 each
        fam = degenerate_family_split_fiber()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert len(cover.source.shape.internal) == 3
        assert len(cover.target.shape.internal) == 2
        images = [cover.vm[v] for v in cover.source.shape.internal]
        assert len(set(images)) < len(images)
        rebuilt = reconstruct_cover(cover.source, fam.portrait)
        from sphere_trees.covers import cover_iso
        assert cover_iso(rebuilt, cover)
