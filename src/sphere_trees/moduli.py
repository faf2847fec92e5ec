"""Marked spheres, trees of spheres, and the cross-ratio embedding.

A tree of spheres is a stable tree with, at each internal vertex, an
injective row sending its edges, in neighbors order, to points of a sphere;
the label marking a_v (each label to its branch's point) is read from it.
``TreeOfSpheres._assembled`` builds every tree and checks rows' injectivity, ``make`` first
checks parsed and reconstructed rows against the shape, ``rows`` maps them on first read.

``vertex_charts`` fills each tree's chart table once: at every internal vertex, its
partition and its row charted at its representative triple by ``cross_ratio_chart``, which
charts the limit engine's vertices too, so no vertex builds a Moebius map to be charted.
``canonical_form`` renames the charted rows.  ``_iso_vertex_map`` decides isomorphism on
partition sets, then charted rows; ``iso_of_spheres`` builds explicit Moebius maps for the
callers that read them.
The embedding, a plain mapping from (ordered triple, label) to the label's point in the
chart of the vertex that separates the triple, and canonical forms are outputs and
oracles for the verdicts.
"""

from __future__ import annotations

from itertools import permutations, product
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import (
    InvalidFamily,
    InvariantBreach,
    LeafSetMismatch,
    MarkedSetTooSmall,
    NotASubset,
)
from .projective import Moebius, ProjPoint, cross_ratio_chart, moebius_from_three
from .trees import (
    MarkedTree,
    Partition,
    branches,
    neighbors,
    partition_at,
    partition_sort_key,
    representative_triple,
    ranked_tree,
    renumbered,
)
from .values import field, value


def _sharing(row: Iterable[tuple]) -> list:
    """The least sorted list of keys, as strings, sharing one point in row's pairs."""
    keys_at: dict = {}
    for key, p in row:
        keys_at.setdefault(p, []).append(str(key))
    return min(sorted(keys) for keys in keys_at.values() if len(keys) > 1)


@value
class MarkedSphere:
    labels: frozenset
    points: tuple  # sorted (label, ProjPoint) pairs
    mapping: Mapping = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.points)))

    @classmethod
    def make(cls, points: Mapping[str, ProjPoint]) -> "MarkedSphere":
        if len(points) < 3:
            raise MarkedSetTooSmall("a marked sphere needs at least three labels")
        values = list(points.values())
        if len(set(values)) != len(values):
            raise InvalidFamily("marking is not injective", witness=_sharing(points.items()))
        return cls(frozenset(points), tuple(sorted(points.items())))

    def point(self, x: str) -> ProjPoint:
        return self.mapping[x]


@value
class TreeOfSpheres:
    shape: MarkedTree
    marking: tuple  # sorted (vertex id, ((neighbor, ProjPoint), ...)) pairs
    # derived tables, filled on first use: the rows by rows, the chart table by vertex_charts
    _rows: Optional[Mapping] = field(init=False)
    _charts: Optional[Mapping] = field(init=False)

    @property
    def rows(self) -> Mapping:
        if self._rows is None:
            object.__setattr__(self, "_rows", MappingProxyType({
                v: MappingProxyType(dict(row)) for v, row in self.marking}))
        return self._rows

    @classmethod
    def make(cls, shape: MarkedTree, marking: Mapping[int, Mapping] ) -> "TreeOfSpheres":
        """Checks that each vertex's row assigns exactly its edges, injectively."""
        if set(marking) != set(shape.internal):
            raise InvalidFamily("marking must cover exactly the internal vertices")
        rows = []
        for v in sorted(shape.internal):
            row, ns = dict(marking[v]), neighbors(shape, v)
            if set(row) != set(ns):
                cls._assembled(shape, rows)  # a fault at an earlier vertex is named first
                raise InvalidFamily(f"marking at vertex {v} must assign exactly its edges",
                                    witness=sorted(map(str, ns)))
            rows.append((v, tuple((n, row[n]) for n in ns)))
        return cls._assembled(shape, tuple(rows))

    @classmethod
    def _assembled(cls, shape: MarkedTree, marking: tuple) -> "TreeOfSpheres":
        """From (vertex, row) pairs by vertex, each row assigning the vertex's edges in
        neighbors order, as the caller guarantees; only injectivity is checked here."""
        for v, row in marking:
            if len({p for _, p in row}) != len(row):
                raise InvalidFamily(f"edge marking at vertex {v} is not injective",
                                    witness=_sharing(row))
        return cls(shape, marking)

    @property
    def labels(self) -> frozenset:
        return self.shape.leaves

    def edge_points(self, v: int) -> Mapping:
        return self.rows[v]


def marking_dict(t: TreeOfSpheres, v: int) -> dict:
    """The derived marking a_v: every label gets the point of its branch."""
    beyond = branches(t.shape, v)
    return {x: p for n, p in t.rows[v].items() for x in beyond[n]}


def tree_from_charts(charts: Mapping[Partition, Mapping[str, ProjPoint]]) -> TreeOfSpheres:
    """The tree of spheres classified by the partitions of an admissible set.

    Each partition comes with a chart sending at least each block's smallest
    label to a point, constant on the blocks; the vertex of the partition marks
    each of its edges with the point of the smallest label beyond it.
    """
    shape, parts = ranked_tree(charts)
    return TreeOfSpheres._assembled(shape, tuple(
        (i, tuple((n, chart[min(b)]) for n, b in branches(shape, i).items()))
        for i, chart in enumerate(map(charts.__getitem__, parts))))


def sphere_as_tree(s: MarkedSphere) -> TreeOfSpheres:
    """The single-vertex tree of spheres identified with a marked sphere."""
    labels = sorted(s.labels)
    shape = MarkedTree.make(labels, [0], [(x, 0) for x in labels])
    return TreeOfSpheres.make(shape, {0: {x: s.point(x) for x in labels}})


def vertex_chart(t: TreeOfSpheres, v: int, triple: tuple[str, str, str]) -> Moebius:
    """The Moebius map sending the marked images of the triple at v to (0, 1, inf):
    each label's image is the point of the edge toward the branch holding it."""
    row, beyond = t.edge_points(v), branches(t.shape, v)
    return moebius_from_three(*(p for x in triple for n, p in row.items() if x in beyond[n]))


def vertex_charts(t: TreeOfSpheres) -> Mapping:
    """At each internal vertex v, computed once per tree: (partition at v, the charted row
    {neighbor: cross-ratio of its edge point}), the edges toward v's representative triple
    sent to 0, 1 and inf, by ``cross_ratio_chart``: no Moebius map is built."""
    if t._charts is None:
        table = {}
        for v in t.shape.internal:
            beyond = branches(t.shape, v)
            triple = representative_triple(p := frozenset(beyond.values()))
            row = {n: (1, 0, 0) if q.is_infinity() else (q.u.a, q.u.b, q.u.c)
                   for n, q in t.rows[v].items()}
            first = [(n, row.pop(n)) for x in triple for n, b in beyond.items() if x in b]
            table[v] = (p, MappingProxyType(cross_ratio_chart(first + list(row.items()))))
        object.__setattr__(t, "_charts", MappingProxyType(table))
    return t._charts


def embed(t: TreeOfSpheres) -> dict:
    """The cross-ratio embedding {(triple, label): point}: each ordered triple is charted at
    the vertex that separates it, its labels in three distinct branches, by the Moebius map
    sending their edge points to (0, 1, inf), one map per ordered triple of edges, and every
    label takes the image of its branch's edge point."""
    out = {}
    for v in t.shape.internal:
        row, beyond = t.rows[v], branches(t.shape, v)
        for edges in permutations(row, 3):
            sigma = moebius_from_three(*(row[n] for n in edges))
            images = [(beyond[n], sigma.apply(p)) for n, p in row.items()]
            for triple in product(*(sorted(beyond[n]) for n in edges)):
                out.update(((triple, x), q) for b, q in images for x in b)
    return out


def spheres_iso(t1: TreeOfSpheres, t2: TreeOfSpheres) -> bool:
    """Isomorphism of trees of spheres, decided on charted rows without a Moebius map."""
    return _iso_vertex_map(t1, t2) is not None


def canonical_form(t: TreeOfSpheres) -> TreeOfSpheres:
    """Canonical representative of the isomorphism class: internal ids become the
    canonical ranks of their partitions and every row is its charted row, in the chart of
    the lexicographically smallest triple the vertex separates, so two trees are
    isomorphic iff their canonical forms are equal."""
    table = vertex_charts(t)
    order = sorted(t.shape.internal, key=lambda v: partition_sort_key(table[v][0]))
    shape = renumbered(t.shape, {v: i for i, v in enumerate(order)})
    # each charted row read in its renamed neighbors order; order[n] is the vertex renamed n
    return TreeOfSpheres._assembled(shape, tuple(
        (i, tuple((n, table[v][1][n if isinstance(n, str) else order[n]])
                  for n in neighbors(shape, i))) for i, v in enumerate(order)))


def induced_partition(t: TreeOfSpheres, v: int, sub: frozenset) -> Optional[Partition]:
    """Partition of the sub-label-set at v, or None when fewer than 3 blocks."""
    blocks = frozenset(b & sub for b in partition_at(t.shape, v)) - {frozenset()}
    return blocks if len(blocks) >= 3 else None


def project(t: TreeOfSpheres, sub: Iterable[str]) -> TreeOfSpheres:
    """Restrict the marked set, keeping vertices that separate triples of it.

    Each kept vertex contributes its induced partition and its derived
    marking restricted to the sub-label-set; the shape is rebuilt from the
    induced partitions.
    """
    sub_set = frozenset(sub)
    if not sub_set <= t.labels:
        raise NotASubset("projection target is not a subset of the marked set")
    if len(sub_set) < 3:
        raise MarkedSetTooSmall("projection target needs at least three labels")
    found: dict[Partition, Mapping] = {}
    for v in sorted(t.shape.internal):
        p = induced_partition(t, v, sub_set)
        if p is None:
            continue
        if p in found:
            raise InvariantBreach(
                "two vertices induce the same partition of the sub-label-set")
        found[p] = marking_dict(t, v)
    if not found:
        raise InvariantBreach(
            "no vertex separates a triple of the sub-label-set")
    return tree_from_charts(found)


def twist(t: TreeOfSpheres, maps: Mapping[int, Moebius]) -> TreeOfSpheres:
    """Post-compose each named vertex's marking with a Moebius map (same class)."""
    if stray := set(maps) - t.shape.internal:
        raise InvalidFamily("twist maps must be keyed by internal vertices",
                            witness=sorted(map(str, stray)))
    return TreeOfSpheres._assembled(t.shape, tuple(
        (v, row if (m := maps.get(v)) is None else tuple((n, m.apply(p)) for n, p in row))
        for v, row in t.marking))


def _iso_vertex_map(t1: TreeOfSpheres, t2: TreeOfSpheres) -> Optional[dict]:
    """The one isomorphism decision: the vertex map of an isomorphism t1 -> t2, or None.

    Internal vertices are matched through their partitions, whose sets are compared
    first, so trees of different shapes cost no chart; labels map to themselves.  Then
    each vertex's charted row must be carried onto its image's, since for the charts s1,
    s2 of one representative triple, s2^-1 . s1 (q) = p iff s1(q) = s2(p); a trivalent
    row is (0, 1, inf) on the edges toward the same blocks in both trees."""
    if t1.labels != t2.labels:
        raise LeafSetMismatch("trees of spheres are marked by different label sets")
    parts1 = {v: partition_at(t1.shape, v) for v in t1.shape.internal}
    parts2 = {partition_at(t2.shape, v): v for v in t2.shape.internal}
    if frozenset(parts1.values()) != frozenset(parts2):
        return None
    charts2 = vertex_charts(t2)
    vmap: dict = ({x: x for x in t1.labels}
                  | {v: parts2[p] for v, p in parts1.items()})
    for v1, (_, row1) in vertex_charts(t1).items():
        row2 = charts2[vmap[v1]][1]
        if len(row1) > 3 and any(row2[vmap[n]] != q for n, q in row1.items()):
            return None
    return vmap


def iso_of_spheres(t1: TreeOfSpheres, t2: TreeOfSpheres) -> Optional[tuple[dict, dict]]:
    """Explicit isomorphism (vertex map, per-vertex Moebius) or None, for the callers that
    read the maps: ``_iso_vertex_map`` decides, then each map is s2^-1 . s1 for the vertex
    charts of the representative triple, built here at every vertex of both trees.  It
    carries every edge point of its vertex, the marked point of the labels beyond it, to
    the edge point of the image edge."""
    if (vmap := _iso_vertex_map(t1, t2)) is None:
        return None
    triples = {v: representative_triple(p) for v, (p, _) in vertex_charts(t1).items()}
    return vmap, {v: vertex_chart(t2, vmap[v], triple).inverse().compose(vertex_chart(t1, v, triple))
                  for v, triple in triples.items()}
