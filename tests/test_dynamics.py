"""Compatibility, dynamical validation, membership, conjugacy."""

from __future__ import annotations

import random

import pytest

from conftest import (
    INF,
    POINT_POOL,
    oracle_compatible,
    pt,
    random_marking,
    random_moebius,
    random_stable_shape,
    relabel_tree,
    z_squared_map,
)
from sphere_trees.covers import (
    MarkedSphereCover,
    Portrait,
    TreeCover,
    cover_from_marked,
)
from sphere_trees.dynamics import (
    DynSystem,
    compatible,
    dyn_conjugate,
    dyn_membership,
    validate_dyn,
)
from sphere_trees.errors import NotASubset, PortraitMismatch
from sphere_trees.moduli import (
    MarkedSphere,
    TreeOfSpheres,
    marking_dict,
    project,
    sphere_as_tree,
    spheres_iso,
    twist,
)
from sphere_trees.projective import M_IDENTITY
from sphere_trees.trees import partition_at, vertex_key


def dyn_z_squared(fourth=-1):
    portrait = Portrait.make(
        {"p0": "p0", "p1": "p1", "pinf": "pinf", "m": "p1"},
        {"p0": 2, "p1": 1, "pinf": 2, "m": 1}, 2)
    y = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF, "m": pt(fourth)})
    z = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF})
    return cover_from_marked(MarkedSphereCover(z_squared_map(), y, z), portrait)


def source_twisted(cover, seed=17):
    """The same cover with every source vertex chart moved by a random Moebius map."""
    rng = random.Random(seed)
    m = {v: random_moebius(rng) for v in cover.source.shape.internal}
    maps = {v: cover.map_at(v).precompose(m[v].inverse()) for v in cover.source.shape.internal}
    return TreeCover.make(twist(cover.source, m), cover.target, cover.vm, maps)


def mismatch_cover(c=2):
    """Cover with an extra marked fiber; projections to the shared quadruple
    disagree because the source sees c where the target sees c^2."""
    portrait = Portrait.make(
        {"p0": "p0", "p1": "p1", "pinf": "pinf", "m": "p1", "pc": "pc", "mc": "pc"},
        {"p0": 2, "p1": 1, "pinf": 2, "m": 1, "pc": 1, "mc": 1}, 2)
    y = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF,
                           "m": pt(-1), "pc": pt(c), "mc": pt(-c)})
    z = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF, "pc": pt(c * c)})
    return cover_from_marked(MarkedSphereCover(z_squared_map(), y, z), portrait)


class TestCompatible:
    def test_projection_is_compatible(self):
        cover = dyn_z_squared()
        witness = project(cover.source, ["p0", "p1", "pinf"])
        assert compatible(witness, cover.source)

    def test_wrong_marking(self):
        cover = dyn_z_squared()
        other = sphere_as_tree(MarkedSphere.make(
            {"p0": pt(0), "p1": pt(1), "pinf": pt(2)}))
        assert not compatible(other, cover.source)

    def test_not_a_subset(self):
        cover = dyn_z_squared()
        alien = sphere_as_tree(MarkedSphere.make({"a": pt(0), "b": pt(1), "c": INF}))
        with pytest.raises(NotASubset):
            compatible(alien, cover.source)


def pointwise_compatible(t_x, t_y) -> bool:
    """Oracle: the projection's vertices matched to t_x's through their
    partitions, and the derived markings compared label by label."""
    projected = project(t_y, t_x.labels)
    parts_x = {partition_at(t_x.shape, v): v for v in t_x.shape.internal}
    parts_p = {partition_at(projected.shape, v): v for v in projected.shape.internal}
    if set(parts_x) != set(parts_p):
        return False
    return all(marking_dict(t_x, v) == marking_dict(projected, parts_p[p])
               for p, v in parts_x.items())


def remark_one_point(t, rng):
    """t with one edge point of one internal vertex moved to a point the row lacks."""
    v = rng.choice(sorted(t.shape.internal))
    marking = {w: dict(t.edge_points(w)) for w in t.shape.internal}
    n = rng.choice(sorted(marking[v], key=vertex_key))
    marking[v][n] = rng.choice([p for p in POINT_POOL if p not in marking[v].values()])
    return TreeOfSpheres.make(t.shape, marking)


class TestCompatibleCorpus:
    """compatible is value equality of projections; the explicit isomorphism with an
    identity map at every vertex (oracle_compatible) and the pointwise comparison of
    derived markings are its oracles."""

    def test_projections_are_compatible_and_twists_are_not(self, tree_corpus):
        rng = random.Random(31)
        for t in tree_corpus:
            labels = sorted(t.labels)
            t_x = project(t, rng.sample(labels, rng.randint(3, len(labels))))
            assert compatible(t_x, t) and pointwise_compatible(t_x, t)
            assert oracle_compatible(t_x, t) and compatible(relabel_tree(t_x, 7), t)
            m = random_moebius(rng)
            while m == M_IDENTITY:
                m = random_moebius(rng)
            bent = twist(t_x, {rng.choice(sorted(t_x.shape.internal)): m})
            assert not compatible(bent, t) and not pointwise_compatible(bent, t)
            assert not oracle_compatible(bent, t)

    def test_agrees_with_pointwise_rule_on_corpus_pairs(self, tree_corpus):
        pairs = agree = 0
        for t_x in tree_corpus[:40]:
            for t_y in tree_corpus[:40]:
                if t_x.labels <= t_y.labels:
                    got = compatible(t_x, t_y)
                    assert got == pointwise_compatible(t_x, t_y) == oracle_compatible(t_x, t_y)
                    pairs, agree = pairs + 1, agree + got
        assert pairs > 100 and agree >= 40  # each tree is compatible with itself

    def test_single_point_perturbations_break_compatibility(self, tree_corpus):
        # same partitions, one edge point moved: never compatible, even where the moved
        # tree is isomorphic to the projection (a trivalent vertex has no moduli)
        rng = random.Random(43)
        isomorphic = 0
        for t in tree_corpus[:200]:
            labels = sorted(t.labels)
            t_x = remark_one_point(project(t, rng.sample(labels, rng.randint(3, len(labels)))), rng)
            assert not compatible(t_x, t) and not oracle_compatible(t_x, t)
            assert not compatible(relabel_tree(t_x, 7), t)
            isomorphic += spheres_iso(t_x, project(t, t_x.labels))
        assert isomorphic > 20

    def test_agrees_with_the_identity_rule_on_random_trees(self):
        rng = random.Random(47)
        seen = set()
        for n in range(4, 11):
            for _ in range(6):
                t = random_marking(random_stable_shape(n, rng), rng)
                p = project(t, rng.sample(sorted(t.labels), rng.randint(3, n)))
                for t_x in (p, remark_one_point(p, rng),
                            twist(p, {v: random_moebius(rng) for v in p.shape.internal})):
                    got = compatible(t_x, t)
                    assert got == oracle_compatible(t_x, t) == pointwise_compatible(t_x, t)
                    seen.add(got)
        assert seen == {True, False}


class TestValidateDyn:
    def test_witness_passes(self):
        cover = dyn_z_squared()
        ok, witness = dyn_membership(cover, ["p0", "p1", "pinf"])
        assert ok
        assert validate_dyn(DynSystem(cover, witness)) == []

    def test_perturbed_marking_fails(self):
        cover = dyn_z_squared()
        bad = sphere_as_tree(MarkedSphere.make(
            {"p0": pt(0), "p1": pt(2), "pinf": INF}))
        assert validate_dyn(DynSystem(cover, bad)) != []


class TestMembership:
    def test_shared_triple(self):
        ok, witness = dyn_membership(dyn_z_squared(), ["p0", "p1", "pinf"])
        assert ok and witness is not None

    def test_four_point_mismatch(self):
        ok, witness = dyn_membership(mismatch_cover(), ["p0", "p1", "pinf", "pc"])
        assert not ok and witness is None

    def test_triple_of_mismatch_cover(self):
        ok, _ = dyn_membership(mismatch_cover(), ["p0", "p1", "pinf"])
        assert ok

    def test_not_a_subset(self):
        with pytest.raises(NotASubset):
            dyn_membership(dyn_z_squared(), ["p0", "m", "pinf"])

    def test_invariant_under_cover_twist(self):
        cover = mismatch_cover()
        rng = random.Random(13)
        m = {v: random_moebius(rng) for v in cover.source.shape.internal}
        source = twist(cover.source, m)
        maps = {v: cover.map_at(v).precompose(m[v].inverse())
                for v in cover.source.shape.internal}
        twisted = TreeCover.make(source, cover.target, cover.vm, maps)
        for labels in (["p0", "p1", "pinf"], ["p0", "p1", "pinf", "pc"]):
            assert dyn_membership(cover, labels)[0] == dyn_membership(twisted, labels)[0]

    def test_projections_pairwise_iso(self):
        cover = dyn_z_squared()
        ok, witness = dyn_membership(cover, ["p0", "p1", "pinf"])
        assert ok
        ps = project(cover.source, witness.labels)
        pz = project(cover.target, witness.labels)
        assert spheres_iso(ps, pz) and spheres_iso(ps, witness)


class TestConjugacy:
    def test_self_conjugate(self):
        cover = dyn_z_squared()
        _, witness = dyn_membership(cover, ["p0", "p1", "pinf"])
        d = DynSystem(cover, witness)
        assert dyn_conjugate(d, d)

    def test_different_marked_fiber(self):
        c1 = mismatch_cover(2)
        c2 = mismatch_cover(3)
        _, w1 = dyn_membership(c1, ["p0", "p1", "pinf"])
        _, w2 = dyn_membership(c2, ["p0", "p1", "pinf"])
        assert not dyn_conjugate(DynSystem(c1, w1), DynSystem(c2, w2))

    def test_different_label_sets_are_refused(self):
        # one cover, two dynamical label sets, each a member
        cover = mismatch_cover(2)
        systems = []
        for labels in (["p0", "p1", "pinf"], ["p0", "p1", "pc"]):
            member, witness = dyn_membership(cover, labels)
            assert member
            systems.append(DynSystem(cover, witness))
        for a, b in (systems, systems[::-1]):
            with pytest.raises(PortraitMismatch, match="different label sets") as info:
                dyn_conjugate(a, b)
            assert info.value.witness is None

    def test_permuted_internal_ids(self):
        from conftest import relabel_internal_ids
        cover = dyn_z_squared()
        relabeled = relabel_internal_ids(cover)
        _, w1 = dyn_membership(cover, ["p0", "p1", "pinf"])
        _, w2 = dyn_membership(relabeled, ["p0", "p1", "pinf"])
        assert dyn_conjugate(DynSystem(cover, w1), DynSystem(relabeled, w2))

    def test_conjugate_under_global_twist(self):
        cover = dyn_z_squared()
        twisted = source_twisted(cover)
        _, w1 = dyn_membership(cover, ["p0", "p1", "pinf"])
        _, w2 = dyn_membership(twisted, ["p0", "p1", "pinf"])
        assert dyn_conjugate(DynSystem(cover, w1), DynSystem(twisted, w2))
