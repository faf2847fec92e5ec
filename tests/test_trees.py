"""Stable trees and the partition correspondence."""

from __future__ import annotations

import pytest

from sphere_trees.errors import (
    EmptySet,
    InvalidIncidence,
    LeafSetMismatch,
    NotAdmissible,
    SingleVertexTree,
)
from sphere_trees.trees import (
    MarkedTree,
    branch,
    enumerate_stable_trees,
    is_admissible,
    partition_at,
    peripheral_internal,
    representative_triple,
    separating_vertex,
    tree_from_partitions,
    tree_partitions,
    trees_isomorphic,
    validate_tree,
)


def fs(*blocks):
    return frozenset(frozenset(b) for b in blocks)


@pytest.fixture
def star():
    return MarkedTree.make(["1", "2", "3"], [0], [("1", 0), ("2", 0), ("3", 0)])


@pytest.fixture
def two_vertex():
    return MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                           [("1", 0), ("2", 0), (0, 1), ("3", 1), ("4", 1)])


@pytest.fixture
def caterpillar():
    return MarkedTree.make(
        ["1", "2", "3", "4", "5"], [0, 1, 2],
        [("1", 0), ("2", 0), (0, 1), ("3", 1), (1, 2), ("4", 2), ("5", 2)])


class TestValidate:
    def test_star_ok(self, star):
        assert validate_tree(star) == []

    def test_valence_two_rejected(self):
        t = MarkedTree(frozenset(["1", "2", "3"]), frozenset([0, 1]),
                       frozenset([frozenset(["1", 0]), frozenset([0, 1]),
                                  frozenset(["2", 1]), frozenset(["3", 1])]))
        assert any("valence" in p for p in validate_tree(t))

    def test_disconnected_rejected(self):
        t = MarkedTree(frozenset(["1", "2", "3", "4", "5", "6"]), frozenset([0, 1]),
                       frozenset([frozenset(["1", 0]), frozenset(["2", 0]),
                                  frozenset(["3", 0]), frozenset(["4", 1]),
                                  frozenset(["5", 1]), frozenset(["6", 1])]))
        problems = validate_tree(t)
        assert any("disconnected" in p or "tree" in p for p in problems)

    def test_too_few_labels(self):
        t = MarkedTree(frozenset(["1", "2"]), frozenset([0]),
                       frozenset([frozenset(["1", 0]), frozenset(["2", 0])]))
        assert any("< 3" in p for p in validate_tree(t))


class TestEnumerate:
    def test_fewer_than_three_labels_refused(self):
        with pytest.raises(EmptySet):
            enumerate_stable_trees(["1", "2"])
        # repeated labels count once
        with pytest.raises(EmptySet):
            enumerate_stable_trees(["1", "2", "2"])

    def test_four_labels(self, star):
        # the star on four labels and the three two-vertex trees, each once
        trees = list(enumerate_stable_trees(["1", "2", "3", "4"]))
        assert len(trees) == 4
        assert sorted(len(t.internal) for t in trees) == [1, 2, 2, 2]
        assert len({tree_partitions(t) for t in trees}) == 4
        assert all(validate_tree(t) == [] for t in trees)


class TestBranch:
    def test_star_branches(self, star):
        assert branch(star, 0, "1") == frozenset(["1"])

    def test_two_vertex_branches(self, two_vertex):
        assert branch(two_vertex, 0, 1) == frozenset(["3", "4"])
        assert branch(two_vertex, 1, 0) == frozenset(["1", "2"])

    def test_invalid_incidence(self, two_vertex):
        with pytest.raises(InvalidIncidence):
            branch(two_vertex, 0, "3")

    def test_partition_at(self, star, two_vertex):
        assert partition_at(star, 0) == fs(["1"], ["2"], ["3"])
        assert partition_at(two_vertex, 0) == fs(["1"], ["2"], ["3", "4"])
        assert partition_at(two_vertex, 1) == fs(["3"], ["4"], ["1", "2"])


class TestTreePartitions:
    def test_star_four(self):
        t = MarkedTree.make(["1", "2", "3", "4"], [0],
                            [("1", 0), ("2", 0), ("3", 0), ("4", 0)])
        assert tree_partitions(t) == frozenset([fs(["1"], ["2"], ["3"], ["4"])])

    def test_two_vertex(self, two_vertex):
        assert tree_partitions(two_vertex) == frozenset([
            fs(["1"], ["2"], ["3", "4"]), fs(["3"], ["4"], ["1", "2"])])

    def test_caterpillar_middle(self, caterpillar):
        assert fs(["1", "2"], ["3"], ["4", "5"]) in tree_partitions(caterpillar)


class TestAdmissibility:
    def test_valid_pair(self):
        ps = [fs(["1"], ["2"], ["3", "4"]), fs(["3"], ["4"], ["1", "2"])]
        assert is_admissible(ps) is None

    def test_condition_one(self):
        v = is_admissible([fs(["1"], ["2", "3", "4"])])
        assert v is not None and v.condition == 1

    def test_condition_two(self):
        v = is_admissible([fs(["1"], ["2"], ["3", "4"])])
        assert v is not None and v.condition == 2
        assert v.block == frozenset(["3", "4"])

    def test_condition_three(self):
        # conditions 1 and 2 hold: the singleton star partition shares
        # blocks with the two coarser partitions
        ps = [fs(["1"], ["2"], ["3", "4"]),
              fs(["1", "2"], ["3"], ["4"]),
              fs(["1"], ["2"], ["3"], ["4"])]
        v = is_admissible(ps)
        assert v is not None and v.condition == 3

    def test_all_singletons_admissible(self):
        assert is_admissible([fs(["1"], ["2"], ["3"], ["4"])]) is None


class TestTreeFromPartitions:
    def test_star(self, star):
        built = tree_from_partitions([fs(["1"], ["2"], ["3"])])
        assert trees_isomorphic(built, star)

    def test_two_vertex(self, two_vertex):
        built = tree_from_partitions(tree_partitions(two_vertex))
        assert trees_isomorphic(built, two_vertex)

    def test_not_admissible_refused(self):
        with pytest.raises(NotAdmissible):
            tree_from_partitions([fs(["1"], ["2"], ["3", "4"])])

    def test_empty_refused(self):
        with pytest.raises(NotAdmissible):
            tree_from_partitions([])


class TestIsomorphism:
    def test_renamed_ids(self, two_vertex):
        renamed = MarkedTree.make(["1", "2", "3", "4"], [7, 9],
                                  [("1", 7), ("2", 7), (7, 9), ("3", 9), ("4", 9)])
        assert trees_isomorphic(two_vertex, renamed)

    def test_star_vs_two_vertex(self, two_vertex):
        star4 = MarkedTree.make(["1", "2", "3", "4"], [0],
                                [("1", 0), ("2", 0), ("3", 0), ("4", 0)])
        assert not trees_isomorphic(star4, two_vertex)

    def test_swapped_roles(self, two_vertex):
        swapped = MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                                  [("3", 0), ("4", 0), (0, 1), ("1", 1), ("2", 1)])
        assert trees_isomorphic(two_vertex, swapped)

    def test_label_mismatch(self, star, two_vertex):
        with pytest.raises(LeafSetMismatch):
            trees_isomorphic(star, two_vertex)


class TestSeparatingVertex:
    def test_star_any_triple(self, star):
        assert separating_vertex(star, ("1", "2", "3")) == 0

    def test_two_vertex(self, two_vertex):
        assert separating_vertex(two_vertex, ("1", "2", "3")) == 0
        assert separating_vertex(two_vertex, ("1", "3", "4")) == 1

    def test_representative_triple(self, two_vertex):
        assert representative_triple(partition_at(two_vertex, 0)) == ("1", "2", "3")
        assert representative_triple(partition_at(two_vertex, 1)) == ("1", "3", "4")


class TestPeripheral:
    def test_two_vertex(self, two_vertex):
        assert peripheral_internal(two_vertex) == 0

    def test_caterpillar_never_middle(self, caterpillar):
        assert peripheral_internal(caterpillar) in (0, 2)

    def test_star_raises(self, star):
        with pytest.raises(SingleVertexTree):
            peripheral_internal(star)


class TestProperties:
    def test_round_trip_small(self, small_shapes):
        for n in (3, 4, 5):
            for t in small_shapes[n]:
                ps = tree_partitions(t)
                assert is_admissible(ps) is None
                assert trees_isomorphic(tree_from_partitions(ps), t)

    def test_strict_branch_nesting(self, caterpillar):
        # path [0, 1, 2]: any branch at 1 away from 0 nests strictly in branch(0, 1)
        outer = branch(caterpillar, 0, 1)
        for n in ("3", 2):
            inner = branch(caterpillar, 1, n)
            assert inner < outer

    def test_partitions_stable(self, small_shapes):
        for t in small_shapes[5]:
            for v in t.internal:
                p = partition_at(t, v)
                assert len(p) >= 3 and all(b for b in p)

    def test_iso_equivalence_relation(self, small_shapes):
        trees = small_shapes[4]
        for a in trees:
            assert trees_isomorphic(a, a)
        for a in trees:
            for b in trees:
                assert trees_isomorphic(a, b) == trees_isomorphic(b, a)
