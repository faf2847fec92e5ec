"""Stable trees and the partition correspondence."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import oracle_edge_order, random_stable_shape
from sphere_trees.errors import (
    InvalidFamily,
    InvalidIncidence,
    LeafSetMismatch,
    MarkedSetTooSmall,
    NotAdmissible,
)
from sphere_trees.trees import (
    AdmissibilityViolation,
    MarkedTree,
    adjacency,
    branch,
    branches,
    enumerate_stable_trees,
    is_admissible,
    neighbors,
    partition_at,
    partition_sort_key,
    representative_triple,
    sorted_edges,
    tree_from_partitions,
    tree_partitions,
    trees_isomorphic,
    validate_tree,
    vertex_key,
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

    def test_the_verdict_is_kept_and_each_call_gets_a_fresh_list(self, star):
        t = MarkedTree(frozenset(["1", "2"]), frozenset([0]),
                       frozenset([frozenset(["1", 0]), frozenset(["2", 0])]))
        first = validate_tree(t)
        first.append("mutated")
        first.pop(0)
        assert validate_tree(t) == ["marked set has 2 < 3 labels"]
        ok = validate_tree(star)
        ok.append("mutated")
        assert validate_tree(star) == []

    def test_the_makers_keep_the_verdict(self, star):
        # MarkedTree.make validates what it builds, tree_from_partitions certifies it by
        # the admissibility conditions; each keeps the verdict
        rebuilt = tree_from_partitions(tree_partitions(star))
        assert star._problems == rebuilt._problems == ()

    @pytest.mark.parametrize("edges", [
        [("1", 0), ("2", 0), ("3", 1)],  # disconnected, valences too low
        [("1", 0), ("2", 0), ("3", 0), (0, 1)],  # a valence-one internal vertex
        [("1", "2", 0), ("3", 0), (0, 1)],  # an edge with three ends
        [("1", 0), ("2", 0), ("3", 0), ("1", 7)],  # an end outside the vertex set
    ])
    def test_an_invalid_tree_refuses_its_tables_as_make_does(self, edges):
        leaves, internal = frozenset(["1", "2", "3"]), frozenset([0, 1])
        with pytest.raises(InvalidFamily) as made:
            MarkedTree.make(leaves, internal, edges)
        t = MarkedTree(leaves, internal, frozenset(map(frozenset, edges)))
        asks = [adjacency, lambda t: neighbors(t, 0), lambda t: branches(t, 0),
                lambda t: branch(t, 0, "1"), lambda t: partition_at(t, 0), tree_partitions]
        for ask in asks:
            with pytest.raises(InvalidFamily) as info:
                ask(t)
            assert str(info.value) == str(made.value) == "invalid marked tree"
            assert info.value.witness == made.value.witness == validate_tree(t) != []
        assert t._adjacency is None and t._branches is None


class TestEnumerate:
    def test_fewer_than_three_labels_refused(self):
        with pytest.raises(MarkedSetTooSmall):
            enumerate_stable_trees(["1", "2"])
        # repeated labels count once
        with pytest.raises(MarkedSetTooSmall):
            enumerate_stable_trees(["1", "2", "2"])

    def test_four_labels(self, star):
        # the star on four labels and the three two-vertex trees, each once
        trees = list(enumerate_stable_trees(["1", "2", "3", "4"]))
        assert len(trees) == 4
        assert sorted(len(t.internal) for t in trees) == [1, 2, 2, 2]
        assert len({tree_partitions(t) for t in trees}) == 4
        assert all(validate_tree(t) == [] for t in trees)


def oracle_enumerate(labels):
    """enumerate_stable_trees as written with its own sort of each tree's edge set."""
    labs = sorted(set(labels))
    current = [MarkedTree.make(labs[:3], [0], [(y, 0) for y in labs[:3]])]
    for x in labs[3:]:
        nxt = []
        for t in current:
            fresh = max(t.internal) + 1
            nxt += [MarkedTree.make(t.leaves | {x}, t.internal, t.edges | {frozenset((x, v))})
                    for v in sorted(t.internal)]
            for a, b in oracle_edge_order(t):
                rest = t.edges - {frozenset((a, b))} | {
                    frozenset((a, fresh)), frozenset((fresh, b)), frozenset((x, fresh))}
                nxt.append(MarkedTree.make(t.leaves | {x}, t.internal | {fresh}, rest))
        current = nxt
    return current


class TestSortedEdges:
    """sorted_edges, the one edge order of the tree writer, the cover check and the
    enumeration, against the sort each of them once made of the edge set."""

    def test_matches_the_sorted_edge_set_on_the_corpus(self, tree_corpus):
        for t in tree_corpus:
            assert sorted_edges(t.shape) == oracle_edge_order(t.shape)

    def test_matches_the_sorted_edge_set_on_random_trees(self):
        rng = random.Random("sorted-edges")
        for n in range(3, 41):
            for _ in range(4):
                t = random_stable_shape(n, rng)
                # internal ids past 9, where string and integer order part, and ranked ids
                shifted = MarkedTree.make(t.leaves, [v + 7 for v in t.internal], [
                    [x + 7 if isinstance(x, int) else x for x in e] for e in t.edges])
                for u in (t, shifted, tree_from_partitions(tree_partitions(t))):
                    assert sorted_edges(u) == oracle_edge_order(u)
                    assert len(sorted_edges(u)) == len(u.edges)

    def test_matches_on_every_tree_of_six_labels(self):
        trees = list(enumerate_stable_trees("123456"))
        assert len(trees) == len({tree_partitions(t) for t in trees}) == 236
        for t in trees:
            assert sorted_edges(t) == oracle_edge_order(t)
        assert trees == oracle_enumerate("123456")

    def test_an_invalid_tree_refuses_its_edges_as_adjacency_does(self):
        t = MarkedTree(frozenset("123"), frozenset({0}),
                       frozenset({frozenset(("1", 0)), frozenset(("2", 0))}))
        for read in (adjacency, sorted_edges):
            with pytest.raises(InvalidFamily, match="invalid marked tree"):
                read(t)


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


class TestRepresentativeTriple:
    def test_representative_triple(self, two_vertex):
        assert representative_triple(partition_at(two_vertex, 0)) == ("1", "2", "3")
        assert representative_triple(partition_at(two_vertex, 1)) == ("1", "3", "4")

    def test_is_the_least_triple_hitting_three_blocks(self, small_shapes):
        # the oracle scans every triple of sorted labels; labels up to "12" make
        # string order differ from numeric order
        rng = random.Random("triples")
        shapes = [t for n in (3, 4, 5, 6) for t in small_shapes[n]]
        shapes += [random_stable_shape(n, rng) for n in (9, 12) for _ in range(10)]
        for t in shapes:
            for v in t.internal:
                p = partition_at(t, v)
                side = {x: b for b in p for x in b}
                least = next(c for c in combinations(sorted(t.leaves), 3)
                             if len({side[x] for x in c}) == 3)
                assert representative_triple(p) == least


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


# ---------------------------------------------------------------------------
# oracles for the partition->tree assembly


def ordered_is_admissible(ps, labels=None):
    """The scan over every partition pair that is_admissible's block index
    replaced, kept as its oracle.  Condition 3 names the smallest shared block."""
    parts = sorted(set(ps), key=partition_sort_key)
    if labels is None:
        if not parts:
            return None
        labels = frozenset().union(*parts[0])
    for p in parts:
        blocks = list(p)
        union = frozenset().union(*blocks) if blocks else frozenset()
        if union != labels or any(not b for b in blocks):
            return AdmissibilityViolation(0, "not a partition of the label set", p)
        if sum(len(b) for b in blocks) != len(labels):
            return AdmissibilityViolation(0, "blocks are not pairwise disjoint", p)
    for p in parts:
        if len(p) < 3:
            return AdmissibilityViolation(1, f"partition has {len(p)} < 3 blocks", p)
    for p in parts:
        for b in sorted(p, key=lambda b: tuple(sorted(b))):
            if len(b) > 1 and not any(labels - b in q for q in parts):
                return AdmissibilityViolation(
                    2, "non-singleton block has no partner partition containing its complement",
                    p, b)
    for p1, p2 in combinations(parts, 2):
        if p1 & p2:
            return AdmissibilityViolation(3, "distinct partitions share a block", p1,
                                          min(p1 & p2, key=lambda b: tuple(sorted(b))))
    return None


def walked_branch(t, v, toward):
    """The labels beyond the edge {v, toward}, by a walk from toward."""
    seen, stack, leaves = {v, toward}, [toward], set()
    while stack:
        w = stack.pop()
        if isinstance(w, str):
            leaves.add(w)
        for n in neighbors(t, w):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return frozenset(leaves)


def mutations(ps, rng):
    """Drop a partition, merge two blocks, move a label, repeat a block of one
    partition in another, and swap two labels in every partition, which keeps
    the set admissible."""
    parts = sorted(ps, key=partition_sort_key)
    i = rng.randrange(len(parts))
    p, rest = parts[i], parts[:i] + parts[i + 1:]
    blocks = sorted(p, key=lambda b: tuple(sorted(b)))
    if rest:
        yield rest
    b1, b2 = rng.sample(blocks, 2)
    yield rest + [(p - {b1, b2}) | {b1 | b2}]
    x = rng.choice(sorted(b1))
    yield rest + [(p - {b1, b2}) | {b1 - {x}, b2 | {x}}]
    if rest:
        q = rng.choice(rest)
        b = rng.choice(blocks)
        yield parts[:i] + [p] + [r for r in rest if r != q] + [
            frozenset([b, *(c - b for c in q if c - b)])]
    x, y = rng.sample(sorted(frozenset().union(*p)), 2)
    swap = {x: y, y: x}
    yield [frozenset(frozenset(swap.get(z, z) for z in c) for c in r) for r in parts]


def assert_walked_tables(t):
    """The tables tree_from_partitions assembled for t, in order, against those the
    validation walk in MarkedTree.make leaves the same tree built from its edges."""
    walked = MarkedTree.make(t.leaves, t.internal, t.edges)
    assert walked._branches is not None and walked._adjacency is not None
    assert dict(adjacency(t)) == dict(adjacency(walked))
    for v in t.internal:
        assert list(branches(t, v).items()) == list(branches(walked, v).items())
        assert dict(branches(t, v)) == {n: walked_branch(walked, v, n) for n in neighbors(t, v)}
    assert tree_partitions(t) == tree_partitions(walked)
    assert validate_tree(t) == validate_tree(walked) == []


def assert_edges_seen_from_both_ends(t):
    """Each vertex's neighbors, in order, are the other ends of its edges: the installed
    adjacency read against the edges, without the installer."""
    ends = {v: [] for v in t.vertices}
    for a, b in map(tuple, t.edges):
        ends[a].append(b)
        ends[b].append(a)
    assert dict(adjacency(t)) == {v: tuple(sorted(ns, key=vertex_key)) for v, ns in ends.items()}


def set_partitions(labels):
    """Every partition of the list labels, as a frozenset of blocks."""
    if not labels:
        yield frozenset()
        return
    for p in set_partitions(labels[1:]):
        yield p | {frozenset(labels[:1])}
        for b in p:
            yield (p - {b}) | {b | {labels[0]}}


def grown_partition_set(pool, labels, rng):
    """Partitions drawn from pool at random: a first one, then for most non-singleton
    blocks b a random partition holding labels - b, at most len(labels) in all.  Such a
    set is rarely near a single tree's set, and often breaks condition 3."""
    ps = [rng.choice(pool)]
    for p in ps:
        for b in sorted(p, key=sorted):
            holders = [q for q in pool if labels - b in q]
            if len(b) > 1 and holders and len(ps) < len(labels) and rng.random() < 0.9:
                ps.append(rng.choice(holders))
    return ps


def assembles_or_is_refused(ps) -> bool:
    """Whether ps is admissible.  An admissible ps assembles into a tree that
    MarkedTree.make accepts from its edges, with the walk's tables, each edge seen from
    both ends, and ps as its partition set; any other ps is refused with the witness
    of the ordered scan."""
    expected = ordered_is_admissible(ps)
    assert is_admissible(ps) == expected
    if expected is None:
        built = tree_from_partitions(ps)
        assert_walked_tables(built)
        assert_edges_seen_from_both_ends(built)
        assert tree_partitions(built) == frozenset(ps)
        return True
    with pytest.raises(NotAdmissible) as info:
        tree_from_partitions(ps)
    assert info.value.witness == expected
    return False


def contractions(ps):
    """Each partition set of the tree with one internal edge {i, j} contracted: p_i
    and p_j become one partition, without the block of each that holds the other."""
    parts = sorted(ps, key=partition_sort_key)
    labels = frozenset().union(*parts[0])
    for p, q in combinations(parts, 2):
        for b in sorted(p, key=lambda b: tuple(sorted(b))):
            if labels - b in q:
                yield [r for r in parts if r not in (p, q)] + [(p - {b}) | (q - {labels - b})]


class TestAssemblyOracles:
    def test_round_trip_every_shape_four_to_seven_labels(self):
        for n in range(4, 8):
            for t in enumerate_stable_trees([str(i) for i in range(1, n + 1)]):
                ps = tree_partitions(t)
                built = tree_from_partitions(ps)
                assert_walked_tables(built)
                assert tree_partitions(built) == ps

    def test_contracted_partition_sets_assemble_as_the_walk_does(self, small_shapes):
        # admissible sets next to a tree's own, which mutations never yields
        count = 0
        for n in (4, 5, 6):
            for t in small_shapes[n]:
                for ps in contractions(tree_partitions(t)):
                    assert is_admissible(ps) is None and ordered_is_admissible(ps) is None
                    built = tree_from_partitions(ps)
                    assert_walked_tables(built)
                    assert tree_partitions(built) == frozenset(ps)
                    count += 1
        assert count > 500

    def test_assembled_tables_equal_the_walk_on_random_shapes(self):
        rng = random.Random(35)
        for n in (12, 40, 90):
            for _ in range(3):
                ps = tree_partitions(random_stable_shape(n, rng))
                built = tree_from_partitions(ps)
                assert_walked_tables(built)
                assert tree_partitions(built) == ps

    def test_branches_equal_walks(self, small_shapes):
        rng = random.Random(7)
        shapes = small_shapes[5] + small_shapes[6] + [
            random_stable_shape(n, rng) for n in (12, 40, 90)]
        for t in shapes:
            for v in t.vertices:
                for n in neighbors(t, v):
                    assert branch(t, v, n) == walked_branch(t, v, n)
            for v in t.internal:
                assert dict(branches(t, v)) == {
                    n: walked_branch(t, v, n) for n in neighbors(t, v)}

    def test_mutated_partition_sets_give_the_ordered_witness(self, small_shapes):
        rng = random.Random(21)
        seen, admissible = set(), 0
        for n in (4, 5, 6):
            for t in small_shapes[n]:
                for ps in mutations(tree_partitions(t), rng):
                    expected = ordered_is_admissible(ps)
                    got = is_admissible(ps)
                    assert got == expected
                    if expected is None:
                        built = tree_from_partitions(ps)
                        assert tree_partitions(built) == frozenset(ps)
                        assert_walked_tables(built)
                        admissible += 1
                        continue
                    seen.add(expected.condition)
                    with pytest.raises(NotAdmissible) as info:
                        tree_from_partitions(ps)
                    assert info.value.witness == expected
        assert seen == {0, 1, 2, 3}
        assert admissible > 0

    def test_every_set_of_four_label_partitions_assembles_or_is_refused(self):
        # the 7 partitions of 4 labels with at least 3 blocks: 6 with one pair, and
        # the singletons; the admissible subsets are the sets of the 4 stable trees
        pool = [p for p in set_partitions(["1", "2", "3", "4"]) if len(p) >= 3]
        sets = [ps for k in range(1, 8) for ps in combinations(pool, k)]
        assert len(pool) == 7 and len(sets) == 127
        assert Counter(map(assembles_or_is_refused, sets)) == {True: 4, False: 123}

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_partition_sets_assemble_or_are_refused(self, n):
        rng = random.Random(f"partition-sets-{n}")
        labels = frozenset(str(i) for i in range(n))
        pool = [p for p in set_partitions(sorted(labels)) if len(p) >= 3]
        conditions = Counter()
        for _ in range(2000):
            ps = grown_partition_set(pool, labels, rng)
            admissible = assembles_or_is_refused(ps)
            conditions[None if admissible else is_admissible(ps).condition] += 1
        assert conditions[None] >= 50 and conditions[3] >= 100, conditions

    def test_assembled_adjacency_lists_every_edge_from_both_ends(self, small_shapes):
        rng = random.Random("both-ends")
        for t in small_shapes[5] + small_shapes[6] + [random_stable_shape(40, rng)]:
            assert_edges_seen_from_both_ends(t)
            assert_edges_seen_from_both_ends(tree_from_partitions(tree_partitions(t)))

    def test_condition_three_names_the_smallest_shared_block(self):
        ps = [fs(["1"], ["2"], ["3", "4"]),
              fs(["1", "2"], ["3"], ["4"]),
              fs(["1"], ["2"], ["3"], ["4"])]
        v = is_admissible(ps)
        assert (v.condition, v.partition, v.block) == (
            3, fs(["1"], ["2"], ["3"], ["4"]), frozenset(["1"]))
