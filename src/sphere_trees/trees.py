"""Stable combinatorial trees marked by a finite label set.

A marked tree has the labels as its leaves and internal vertices of valence
at least three.  Up to isomorphism fixing the labels, such a tree is the
same data as an admissible set of partitions of the label set; both
directions of that correspondence are implemented here, together with the
small tree-walking utilities the rest of the package relies on.

Vertices are heterogeneous: leaves are label strings, internal vertices are
opaque integers that never participate in equality of the classified data.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    InvalidIncidence,
    InvalidFamily,
    LeafSetMismatch,
    MarkedSetTooSmall,
    NotAdmissible,
)
from .values import field, value

Vertex = Union[str, int]
Edge = frozenset  # of two vertices
Block = frozenset  # of labels
Partition = frozenset  # of Blocks
PartitionSet = frozenset  # of Partitions


def vertex_key(v: Vertex) -> tuple:
    """Total order over mixed leaf/internal vertices (leaves first)."""
    return (0, v) if isinstance(v, str) else (1, v)


def edge_of(a: Vertex, b: Vertex) -> Edge:
    if a == b:
        raise ValueError("self-loop is not an edge")
    return frozenset((a, b))


def partition_sort_key(p: Partition) -> tuple:
    return tuple(sorted(tuple(sorted(b)) for b in p))


@value
class MarkedTree:
    leaves: frozenset
    internal: frozenset
    edges: frozenset
    # derived lookups, filled on first use by adjacency and branches, so an
    # unvalidated tree derives nothing until asked
    _adjacency: Optional[Mapping] = field(init=False)
    _branches: Optional[Mapping] = field(init=False)

    @classmethod
    def make(cls, leaves: Iterable[str], internal: Iterable[int],
             edges: Iterable[Iterable[Vertex]]) -> "MarkedTree":
        t = cls(
            frozenset(leaves),
            frozenset(internal),
            frozenset(frozenset(e) for e in edges),
        )
        problems = validate_tree(t)
        if problems:
            raise InvalidFamily("invalid marked tree", witness=problems)
        return t

    @property
    def vertices(self) -> frozenset:
        return self.leaves | self.internal


def adjacency(t: MarkedTree) -> Mapping:
    """Sorted neighbors of every vertex, computed once per tree."""
    if t._adjacency is None:
        adj: dict[Vertex, list] = {v: [] for v in t.vertices}
        for e in t.edges:
            a, b = tuple(e)
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(t, "_adjacency", MappingProxyType(
            {v: tuple(sorted(ns, key=vertex_key)) for v, ns in adj.items()}))
    return t._adjacency


def neighbors(t: MarkedTree, v: Vertex) -> tuple:
    return adjacency(t)[v]


def validate_tree(t: MarkedTree) -> list[str]:
    """Diagnostics for the stability invariants; empty list means valid."""
    problems: list[str] = []
    if len(t.leaves) < 3:
        problems.append(f"marked set has {len(t.leaves)} < 3 labels")
    if t.leaves & t.internal:
        problems.append("leaf labels and internal ids overlap")
    verts = t.leaves | t.internal
    adj: dict[Vertex, list] = {v: [] for v in verts}
    first_edge = len(problems)
    for e in t.edges:
        ends = tuple(e)
        if len(ends) != 2:
            problems.append(f"edge {sorted(map(str, ends))} does not have two endpoints")
            continue
        a, b = ends
        if a not in verts or b not in verts:
            problems.append(f"edge endpoint outside the vertex set: {sorted(map(str, ends))}")
            continue
        adj[a].append(b)
        adj[b].append(a)
    if problems:
        # sorted: t.edges is a frozenset, whose order depends on the hash seed
        problems[first_edge:] = sorted(problems[first_edge:])
        return problems
    if len(t.edges) != len(verts) - 1:
        problems.append("edge count does not match a tree")
    # connectivity
    if verts:
        seen = set()
        stack = [next(iter(verts))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
        if seen != verts:
            problems.append("graph is disconnected")
    for x in sorted(t.leaves):
        if len(adj[x]) != 1:
            problems.append(f"leaf {x!r} has valence {len(adj[x])} != 1")
    for v in sorted(t.internal):
        if len(adj[v]) < 3:
            problems.append(f"internal vertex {v} has valence {len(adj[v])} < 3 (not stable)")
    return problems


def branch(t: MarkedTree, v: Vertex, toward: Vertex) -> Block:
    """Labels whose path to v starts with the edge {v, toward}."""
    if toward not in neighbors(t, v):
        raise InvalidIncidence(f"{toward!r} is not adjacent to {v!r}")
    return t.leaves - {v} if isinstance(v, str) else branches(t, v)[toward]


def branches(t: MarkedTree, v: int) -> Mapping:
    """The branch beyond each edge at v.

    One post-order pass from the smallest internal vertex fills the table for
    every internal vertex: each subtree's label set, and the labels outside it
    toward the parent; O(V·n) for V internal vertices and n labels.
    """
    if t._branches is None:
        adj = adjacency(t)
        root = min(t.internal)
        parent, order = {root: None}, [root]
        for w in order:
            for n in adj[w]:
                if n not in parent:
                    parent[n] = w
                    order.append(n)
        below: dict[Vertex, Block] = {}
        for w in reversed(order):
            below[w] = frozenset((w,)) if isinstance(w, str) else frozenset().union(
                *(below[n] for n in adj[w] if n != parent[w]))
        object.__setattr__(t, "_branches", MappingProxyType({w: MappingProxyType(
            {n: below[n] if n != parent[w] else t.leaves - below[w] for n in adj[w]})
            for w in t.internal}))
    return t._branches[v]


def partition_at(t: MarkedTree, v: int) -> Partition:
    """The partition of the labels induced by the branches at v."""
    return frozenset(branches(t, v).values())


def tree_partitions(t: MarkedTree) -> PartitionSet:
    """The classifying set of partitions, one per internal vertex."""
    return frozenset(partition_at(t, v) for v in t.internal)


@value
class AdmissibilityViolation:
    condition: int
    detail: str
    partition: Optional[Partition] = None
    block: Optional[Block] = None


def _admissibility(parts: list, labels: frozenset
                   ) -> tuple[Optional[AdmissibilityViolation], set]:
    """The first violated condition of the sorted partitions, and their tree's
    edges, both read from one index from each block to its partition's rank.

    A non-singleton block is joined to the rank holding its complement, a
    singleton to its leaf: Σdeg lookups.  The witness is the ordered scan's:
    the first partition with a failing block and its smallest such block,
    or the first pair of ranks sharing a block and their smallest shared one.
    """
    for p in parts:
        if frozenset().union(*p) != labels or any(not b for b in p):
            return AdmissibilityViolation(0, "not a partition of the label set", p), set()
        if sum(map(len, p)) != len(labels):
            return AdmissibilityViolation(0, "blocks are not pairwise disjoint", p), set()
    for p in parts:
        if len(p) < 3:
            return AdmissibilityViolation(1, f"partition has {len(p)} < 3 blocks", p), set()
    rank: dict[Block, int] = {}
    shared = []  # (first rank holding the block, a later rank holding it)
    for i, p in enumerate(parts):
        for b in p:
            first = rank.setdefault(b, i)
            if first != i:
                shared.append((first, i))
    edges: set[Edge] = set()
    missing = []  # (rank, block) of each block whose complement no partition holds
    for i, p in enumerate(parts):
        for b in p:
            if len(b) == 1:
                edges.add(edge_of(i, next(iter(b))))
            elif (j := rank.get(labels - b)) is None:
                missing.append((i, b))
            else:
                edges.add(edge_of(i, j))
    if missing:
        i = min(i for i, _ in missing)
        b = min((b for k, b in missing if k == i), key=sorted)
        return AdmissibilityViolation(
            2, "non-singleton block has no partner partition containing its complement",
            parts[i], b), edges
    if shared:
        i, j = min(shared)
        b = min((b for b in parts[i] if b in parts[j]), key=sorted)
        return AdmissibilityViolation(3, "distinct partitions share a block", parts[i], b), edges
    return None, edges


def is_admissible(ps: Iterable[Partition], labels: Optional[frozenset] = None
                  ) -> Optional[AdmissibilityViolation]:
    """Check the admissibility conditions; None means admissible.

    Returns the first violated condition (by index 0, 1, 2, 3) with a witness.
    One index from each block to its partition's rank answers conditions 2
    and 3, so the check costs O(V·n) for V partitions of n labels.
    """
    parts = sorted(set(ps), key=partition_sort_key)
    if labels is None:
        if not parts:
            return None
        labels = frozenset().union(*parts[0])
    return _admissibility(parts, labels)[0]


def tree_from_partitions(ps: Iterable[Partition]) -> MarkedTree:
    """Build the stable tree classified by an admissible partition set.

    Internal ids are the ranks of the partitions in canonical sort order, so
    the construction is deterministic.  The admissibility check's block index
    gives the edges, O(V·n) for V partitions of n labels, and the assembled
    tree must give back the partition set.
    """
    parts = sorted(set(ps), key=partition_sort_key)
    if not parts:
        raise NotAdmissible("empty partition set does not describe a tree")
    labels = frozenset().union(*parts[0])
    violation, edges = _admissibility(parts, labels)
    if violation is not None:
        raise NotAdmissible("partition set is not admissible", witness=violation)
    t = MarkedTree(labels, frozenset(range(len(parts))), frozenset(edges))
    problems = validate_tree(t)
    if problems:
        raise NotAdmissible("partition set does not assemble into a stable tree",
                            witness=problems)
    if tree_partitions(t) != frozenset(parts):
        raise NotAdmissible("assembled tree does not reproduce the partition set")
    return t


def trees_isomorphic(t1: MarkedTree, t2: MarkedTree) -> bool:
    """Isomorphism fixing the labels, decided through the partition sets."""
    if t1.leaves != t2.leaves:
        raise LeafSetMismatch("trees are marked by different label sets")
    return tree_partitions(t1) == tree_partitions(t2)


def block_of(p: Partition, x: str) -> Block:
    for b in p:
        if x in b:
            return b
    raise KeyError(x)


def separating_vertex(t: MarkedTree, triple: tuple[str, str, str]) -> int:
    """The unique internal vertex with the three labels in distinct branches."""
    x0, x1, x2 = triple
    if len({x0, x1, x2}) != 3:
        raise ValueError("separating vertex requires three distinct labels")
    hits = []
    for v in sorted(t.internal):
        p = partition_at(t, v)
        if len({block_of(p, x0), block_of(p, x1), block_of(p, x2)}) == 3:
            hits.append(v)
    if len(hits) != 1:
        raise InvalidFamily(
            f"triple {triple} separated by {len(hits)} vertices in an invalid tree")
    return hits[0]


def representative_triple(p: Partition) -> tuple[str, str, str]:
    """Lexicographically smallest triple hitting three distinct blocks."""
    labels = sorted(frozenset().union(*p))
    x0 = labels[0]
    b0 = block_of(p, x0)
    x1 = next(x for x in labels if x not in b0)
    b1 = block_of(p, x1)
    x2 = next(x for x in labels if x not in b0 and x not in b1)
    return (x0, x1, x2)


def enumerate_stable_trees(labels: Iterable[str]) -> Iterator[MarkedTree]:
    """Exhaustively enumerate stable trees on the given labels, each once.

    Attaching label n to every tree on the first n-1 labels, either at an
    internal vertex or along an edge (subdividing it), produces every stable
    shape exactly once: removing the last leaf and smoothing inverts it.
    """
    labs = sorted(set(labels))
    if len(labs) < 3:
        raise MarkedSetTooSmall("stable trees need at least three labels")
    base = MarkedTree.make(labs[:3], [0], [(labs[0], 0), (labs[1], 0), (labs[2], 0)])
    current = [base]
    for x in labs[3:]:
        nxt: list[MarkedTree] = []
        for t in current:
            fresh = max(t.internal) + 1
            for v in sorted(t.internal):
                nxt.append(MarkedTree.make(
                    t.leaves | {x}, t.internal,
                    set(t.edges) | {edge_of(x, v)}))
            for e in sorted(t.edges, key=lambda e: tuple(sorted(map(vertex_key, e)))):
                a, b = tuple(e)
                rest = set(t.edges) - {e}
                rest |= {edge_of(a, fresh), edge_of(fresh, b), edge_of(x, fresh)}
                nxt.append(MarkedTree.make(
                    t.leaves | {x}, t.internal | {fresh}, rest))
        current = nxt
    return iter(current)
