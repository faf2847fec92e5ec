"""Stable combinatorial trees marked by a finite label set.

A marked tree has the labels as its leaves and internal vertices of valence
at least three.  Up to isomorphism fixing the labels, such a tree is the
same data as an admissible set of partitions of the label set; both
directions of that correspondence are implemented here, together with the
small tree-walking utilities the rest of the package relies on.  Each tree is
certified once: one built from partitions by the admissibility conditions, which
already make a stable tree, one built from edges by the validation walk, which
leaves it its adjacency and branch table.

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
    return tuple(sorted(map(tuple, map(sorted, p))))


@value
class MarkedTree:
    leaves: frozenset
    internal: frozenset
    edges: frozenset
    # derived, set together by _install: by ranked_tree and renumbered, else by the walk of
    # validate_tree, which adjacency and branches start; an invalid tree has no tables
    _adjacency: Optional[Mapping] = field(init=False)
    _branches: Optional[Mapping] = field(init=False)
    _problems: Optional[tuple] = field(init=False)

    @classmethod
    def make(cls, leaves: Iterable[str], internal: Iterable[int],
             edges: Iterable[Iterable[Vertex]]) -> "MarkedTree":
        return _certified(cls(frozenset(leaves), frozenset(internal),
                              frozenset(frozenset(e) for e in edges)))

    @property
    def vertices(self) -> frozenset:
        return self.leaves | self.internal


def _certified(t: MarkedTree) -> MarkedTree:
    """t, once validate_tree finds no problem; else InvalidFamily with the problems."""
    problems = validate_tree(t)
    if problems:
        raise InvalidFamily("invalid marked tree", witness=problems)
    return t


def _install(t: MarkedTree, rows: Mapping) -> None:
    """Give t, a valid tree, its verdict and tables from its branch rows {internal vertex:
    {neighbor: labels beyond}}, each in neighbors order; a leaf's neighbor names it."""
    table = {v: MappingProxyType(dict(sorted(row.items(), key=lambda nb: vertex_key(nb[0]))))
             for v, row in rows.items()}
    adj = {n: (v,) for v, row in table.items() for n in row if isinstance(n, str)}
    adj.update((v, tuple(row)) for v, row in table.items())
    object.__setattr__(t, "_problems", ())
    object.__setattr__(t, "_adjacency", MappingProxyType(adj))
    object.__setattr__(t, "_branches", MappingProxyType(table))


def adjacency(t: MarkedTree) -> Mapping:
    """Sorted neighbors of every vertex; InvalidFamily for a tree that fails validate_tree."""
    return t._adjacency if t._adjacency is not None else _certified(t)._adjacency


def neighbors(t: MarkedTree, v: Vertex) -> tuple:
    return adjacency(t)[v]


def sorted_edges(t: MarkedTree) -> list:
    """Every edge as its ends (a, b) by vertex_key, the pairs in that order: each leaf's
    edge, then each internal vertex's to larger ids; InvalidFamily for an invalid tree."""
    adj = adjacency(t)
    inner = [(v, n) for v in sorted(t.internal) for n in adj[v] if isinstance(n, int) and n > v]
    return [(x, adj[x][0]) for x in sorted(t.leaves)] + inner


def validate_tree(t: MarkedTree) -> list[str]:
    """Diagnostics for the stability invariants, computed once per tree; empty means valid."""
    if t._problems is None:
        object.__setattr__(t, "_problems", tuple(_tree_problems(t)))
    return list(t._problems)


def _tree_problems(t: MarkedTree) -> list[str]:
    """validate_tree's diagnostics, from one walk that gives a valid tree without tables
    its tables: a BFS from the smallest internal vertex decides connectivity, and its
    reverse order gives each subtree's labels, O(V·n) for V vertices and n labels."""
    problems: list[str] = []
    if len(t.leaves) < 3:
        problems.append(f"marked set has {len(t.leaves)} < 3 labels")
    if t.leaves & t.internal:
        problems.append("leaf labels and internal ids overlap")
    verts = t.vertices
    adj: dict[Vertex, list] = {v: [] for v in verts}
    first_edge = len(problems)
    for e in t.edges:
        if len(e) != 2:
            problems.append(f"edge {sorted(map(str, e))} does not have two endpoints")
        elif not e <= verts:
            problems.append(f"edge endpoint outside the vertex set: {sorted(map(str, e))}")
        else:
            a, b = e
            adj[a].append(b)
            adj[b].append(a)
    if problems:
        # sorted: t.edges is a frozenset, whose order depends on the hash seed
        problems[first_edge:] = sorted(problems[first_edge:])
        return problems
    if len(t.edges) != len(verts) - 1:
        problems.append("edge count does not match a tree")
    root = min(t.internal or t.leaves)  # there are at least three leaves
    order, parent = [root], {root: None}
    for w in order:
        for n in adj[w]:
            if n not in parent:
                parent[n] = w
                order.append(n)
    if len(order) != len(verts):
        problems.append("graph is disconnected")
    for x in sorted(t.leaves):
        if len(adj[x]) != 1:
            problems.append(f"leaf {x!r} has valence {len(adj[x])} != 1")
    for v in sorted(t.internal):
        if len(adj[v]) < 3:
            problems.append(f"internal vertex {v} has valence {len(adj[v])} < 3 (not stable)")
    if not problems and t._branches is None:
        below: dict[Vertex, Block] = {}
        for w in reversed(order):
            below[w] = frozenset((w,)) if isinstance(w, str) else frozenset().union(
                *(below[n] for n in adj[w] if n != parent[w]))
        _install(t, {w: dict((n, below[n] if n != parent[w] else t.leaves - below[w])
                             for n in adj[w]) for w in t.internal})
    return problems


def branch(t: MarkedTree, v: Vertex, toward: Vertex) -> Block:
    """Labels whose path to v starts with the edge {v, toward}."""
    if toward not in neighbors(t, v):
        raise InvalidIncidence(f"{toward!r} is not adjacent to {v!r}")
    return t.leaves - {v} if isinstance(v, str) else branches(t, v)[toward]


def branches(t: MarkedTree, v: int) -> Mapping:
    """The branch beyond each edge at v, in neighbors order; InvalidFamily for a tree
    that fails validate_tree."""
    return (t._branches if t._branches is not None else _certified(t)._branches)[v]


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
                   ) -> tuple[Optional[AdmissibilityViolation], list]:
    """The first violated condition of the sorted partitions, and at each rank
    the row from each neighbour to the block beyond it, both read from one index
    from each block to its partition's rank.

    A singleton block {x} joins leaf x, any other block the rank holding its
    complement: Σdeg lookups.  The witness is the ordered scan's: the first
    partition with a failing block and its smallest such block, or the first
    pair of ranks sharing a block and their smallest shared one.
    """
    for p in parts:
        if frozenset().union(*p) != labels or frozenset() in p:
            return AdmissibilityViolation(0, "not a partition of the label set", p), []
        if sum(map(len, p)) != len(labels):
            return AdmissibilityViolation(0, "blocks are not pairwise disjoint", p), []
    for p in parts:
        if len(p) < 3:
            return AdmissibilityViolation(1, f"partition has {len(p)} < 3 blocks", p), []
    rank: dict[Block, int] = {}
    shared = []  # (first rank holding the block, a later rank holding it)
    for i, p in enumerate(parts):
        for b in p:
            first = rank.setdefault(b, i)
            if first != i:
                shared.append((first, i))
    rows: list[dict] = []
    missing = []  # (rank, block) of each block whose complement no partition holds
    for i, p in enumerate(parts):
        rows.append(row := {})
        for b in p:
            if len(b) == 1:
                row[next(iter(b))] = b
            elif (j := rank.get(labels - b)) is None:
                missing.append((i, b))
            else:
                row[j] = b
    if missing:
        i = min(i for i, _ in missing)
        b = min((b for k, b in missing if k == i), key=sorted)
        return AdmissibilityViolation(
            2, "non-singleton block has no partner partition containing its complement",
            parts[i], b), []
    if shared:
        i, j = min(shared)
        b = min((b for b in parts[i] if b in parts[j]), key=sorted)
        return AdmissibilityViolation(3, "distinct partitions share a block", parts[i], b), []
    return None, rows


def is_admissible(ps: Iterable[Partition], labels: Optional[frozenset] = None
                  ) -> Optional[AdmissibilityViolation]:
    """The first violated admissibility condition (by index 0, 1, 2, 3) with a witness,
    or None: one index from each block to its partition's rank answers conditions 2
    and 3, so the check costs O(V·n) for V partitions of n labels."""
    parts = sorted(set(ps), key=partition_sort_key)
    if labels is None:
        if not parts:
            return None
        labels = frozenset().union(*parts[0])
    return _admissibility(parts, labels)[0]


def tree_from_partitions(ps: Iterable[Partition]) -> MarkedTree:
    """The stable tree classified by an admissible partition set; its internal ids are
    the ranks of the partitions in canonical sort order (see ranked_tree)."""
    return ranked_tree(ps)[0]


def ranked_tree(ps: Iterable[Partition]) -> tuple[MarkedTree, list]:
    """tree_from_partitions and, by rank (internal id), the partition objects of ps.

    The admissibility check's rows give the edges (an internal one from its lower
    rank only) and, through _install, the adjacency and the branch table, O(V·n) for
    V partitions of n labels.  Conditions 0-3 alone make the tree stable, so it is
    not walked.  Write L for the labels.
    1. No partition holds both a block b and L - b: it would have only two blocks.
       So a non-singleton b of p is joined to exactly one other partition q, the
       one holding L - b (condition 3 makes it unique).
    2. L - b is the union of at least two other blocks of p, so it is not a
       singleton.  So q's row names p back: every internal edge is seen from both ends.
    3. q's other blocks split b into at least two proper subsets.  So, descending
       from any block, one reaches singletons: every label is a singleton block of
       exactly one partition, and every internal vertex reaches every leaf.  The
       graph is connected, leaves have valence 1, and the labels beyond p's edge
       at b are b itself.
    4. A path that never steps back enters strictly smaller blocks.  So there is no
       cycle, and no two edges join one pair of vertices (else p = {b, b'} with
       b | b' = L).  Each p has valence |p| >= 3 by condition 1.
    """
    parts = sorted(set(ps), key=partition_sort_key)
    if not parts:
        raise NotAdmissible("empty partition set does not describe a tree")
    labels = frozenset().union(*parts[0])
    violation, rows = _admissibility(parts, labels)
    if violation is not None:
        raise NotAdmissible("partition set is not admissible", witness=violation)
    t = MarkedTree(labels, frozenset(range(len(parts))), frozenset(
        frozenset((i, n)) for i, row in enumerate(rows) for n in row
        if isinstance(n, str) or n > i))
    _install(t, dict(enumerate(rows)))
    return t, parts


def renumbered(t: MarkedTree, rename: Mapping[int, int]) -> MarkedTree:
    """t with internal vertex v renamed rename[v]: t's verdict and tables carry over, rows
    re-sorted; InvalidFamily for a t that fails validate_tree."""
    rows = _certified(t)._branches
    out = MarkedTree(t.leaves, frozenset(rename.values()), frozenset(
        frozenset(rename.get(x, x) for x in e) for e in t.edges))
    _install(out, {rename[v]: dict((rename.get(n, n), b) for n, b in row.items())
                   for v, row in rows.items()})
    return out


def trees_isomorphic(t1: MarkedTree, t2: MarkedTree) -> bool:
    """Isomorphism fixing the labels, decided through the partition sets."""
    if t1.leaves != t2.leaves:
        raise LeafSetMismatch("trees are marked by different label sets")
    return tree_partitions(t1) == tree_partitions(t2)


def representative_triple(p: Partition) -> tuple[str, str, str]:
    """Lexicographically smallest triple hitting three distinct blocks: the three
    smallest block minima."""
    return tuple(sorted(map(min, p))[:3])


def enumerate_stable_trees(labels: Iterable[str]) -> Iterator[MarkedTree]:
    """Exhaustively enumerate stable trees on the given labels, each once.

    Attaching label n to every tree on the first n-1 labels, either at an
    internal vertex or along an edge (subdividing it), produces every stable
    shape exactly once: removing the last leaf and smoothing inverts it.
    """
    labs = sorted(set(labels))
    if len(labs) < 3:
        raise MarkedSetTooSmall("stable trees need at least three labels")
    current = [MarkedTree.make(labs[:3], [0], [(y, 0) for y in labs[:3]])]
    for x in labs[3:]:
        nxt: list[MarkedTree] = []
        for t in current:
            fresh = max(t.internal) + 1
            for v in sorted(t.internal):
                nxt.append(MarkedTree.make(t.leaves | {x}, t.internal, t.edges | {edge_of(x, v)}))
            for a, b in sorted_edges(t):
                rest = t.edges - {edge_of(a, b)} | {edge_of(a, fresh), edge_of(fresh, b), edge_of(x, fresh)}
                nxt.append(MarkedTree.make(t.leaves | {x}, t.internal | {fresh}, rest))
        current = nxt
    return iter(current)
