"""Marked spheres, trees of spheres, and the cross-ratio embedding.

A tree of spheres is a stable tree together with, at each internal vertex,
an injective assignment of its edges to exact points of a sphere.  The
derived vertex markings, the normalized charts of separating triples,
isomorphism, the embedding by all quadruple cross-ratios, canonical
representatives, and restriction of the marking to a sub-label-set all live
here.  ``iso_of_spheres`` is the one isomorphism decision and returns its
witness; ``canonical_form`` and ``embed`` are outputs, and serve the tests
and the benchmark as independent oracles for its verdicts.

Each tree of spheres keeps one chart table, built on first use by
``vertex_charts``: at every internal vertex, its partition and the vertex
chart of the partition's representative triple.  ``canonical_form`` and
``iso_of_spheres`` both read it, so a tree is charted once however often it
is classified or compared.  ``iso_of_spheres`` compares partition sets before
it asks for the table, so trees of different shapes cost no chart.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import (
    InvalidFamily,
    InvariantBreach,
    LeafSetMismatch,
    MarkedSetTooSmall,
    NotASubset,
)
from .projective import Moebius, ProjPoint, moebius_from_three
from .trees import (
    MarkedTree,
    Partition,
    branches,
    neighbors,
    partition_at,
    partition_sort_key,
    representative_triple,
    separating_vertex,
    tree_from_partitions,
    vertex_key,
)
from .values import field, value


def _sharing(row: Mapping) -> list:
    """The least sorted list of keys, as strings, that share one point in row."""
    keys_at: dict = {}
    for key, p in row.items():
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
            raise InvalidFamily("marking is not injective", witness=_sharing(points))
        return cls(frozenset(points), tuple(sorted(points.items())))

    def point(self, x: str) -> ProjPoint:
        return self.mapping[x]


@value
class TreeOfSpheres:
    shape: MarkedTree
    marking: tuple  # sorted (vertex id, ((neighbor, ProjPoint), ...)) pairs
    rows: Mapping = field(init=False)
    # derived label markings and chart table, filled on first use by
    # marking_dict and vertex_charts
    _markings: Optional[Mapping] = field(init=False)
    _charts: Optional[Mapping] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", MappingProxyType({
            v: MappingProxyType(dict(row)) for v, row in self.marking}))

    @classmethod
    def make(cls, shape: MarkedTree, marking: Mapping[int, Mapping] ) -> "TreeOfSpheres":
        if set(marking) != set(shape.internal):
            raise InvalidFamily("marking must cover exactly the internal vertices")
        rows = []
        for v in sorted(shape.internal):
            row = dict(marking[v])
            expected = set(neighbors(shape, v))
            if set(row) != expected:
                raise InvalidFamily(
                    f"marking at vertex {v} must assign exactly its edges",
                    witness=sorted(map(str, expected)))
            pts = list(row.values())
            if len(set(pts)) != len(pts):
                raise InvalidFamily(f"edge marking at vertex {v} is not injective",
                                    witness=_sharing(row))
            rows.append((v, tuple(sorted(row.items(), key=lambda kv: vertex_key(kv[0])))))
        return cls(shape, tuple(rows))

    @property
    def labels(self) -> frozenset:
        return self.shape.leaves

    def edge_points(self, v: int) -> Mapping:
        return self.rows[v]


def marking_dict(t: TreeOfSpheres, v: int) -> Mapping:
    """The derived marking a_v: every label gets the point of its branch.

    The markings of all internal vertices are computed once per tree.
    """
    if t._markings is None:
        object.__setattr__(t, "_markings", MappingProxyType({
            w: MappingProxyType(dict(sorted(
                (x, p) for n, p in row.items() for x in branches(t.shape, w)[n])))
            for w, row in t.rows.items()}))
    return t._markings[v]


def tree_from_charts(charts: Mapping[Partition, Mapping[str, ProjPoint]]) -> TreeOfSpheres:
    """The tree of spheres classified by the partitions of an admissible set.

    Each partition comes with a chart sending at least each block's smallest
    label to a point, constant on the blocks; the vertex of the partition marks
    each of its edges with the point of the smallest label beyond it.
    """
    shape = tree_from_partitions(charts)
    marking = {}
    for i in shape.internal:
        chart = charts[partition_at(shape, i)]
        marking[i] = {n: chart[min(b)] for n, b in branches(shape, i).items()}
    return TreeOfSpheres.make(shape, marking)


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
    """At each internal vertex v, (partition at v, vertex chart of its
    representative triple at v); computed once per tree."""
    if t._charts is None:
        table = {}
        for v in t.shape.internal:
            p = partition_at(t.shape, v)
            table[v] = (p, vertex_chart(t, v, representative_triple(p)))
        object.__setattr__(t, "_charts", MappingProxyType(table))
    return t._charts


def t_chart(t: TreeOfSpheres, triple: tuple[str, str, str]
            ) -> tuple[int, Moebius, dict]:
    """Separating vertex, normalizing chart, and the chart marking.

    The chart is the vertex chart of the triple at its separating vertex;
    the returned mapping is its composition with the vertex marking on
    every label.
    """
    v = separating_vertex(t.shape, triple)
    sigma = vertex_chart(t, v, triple)
    return v, sigma, {x: sigma.apply(p) for x, p in marking_dict(t, v).items()}


@value
class Embedding:
    """All chart values (alpha_t(x)) indexed by (triple, label).

    Values where the label lies in the triple are the forced 0/1/inf, so the
    table is total and embeds three-label trees as well.
    """

    values: tuple  # sorted (((x0, x1, xinf), x), ProjPoint)
    mapping: Mapping = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.values)))

    def value(self, triple: tuple[str, str, str], x: str) -> ProjPoint:
        return self.mapping[(triple, x)]


# chart changes induced by permuting a normalized triple, on (u : v)
_ANHARMONIC = {
    (0, 1, 2): lambda u, v: (u, v),          # identity
    (0, 2, 1): lambda u, v: (u, u - v),      # z / (z - 1)
    (1, 0, 2): lambda u, v: (v - u, v),      # 1 - z
    (1, 2, 0): lambda u, v: (u - v, u),      # (z - 1) / z
    (2, 0, 1): lambda u, v: (v, v - u),      # 1 / (1 - z)
    (2, 1, 0): lambda u, v: (v, u),          # 1 / z
}


def embed(t: TreeOfSpheres) -> Embedding:
    labels = sorted(t.labels)
    out = {}
    for combo in combinations(labels, 3):
        _, _, base = t_chart(t, combo)
        for perm, transform in _ANHARMONIC.items():
            triple = (combo[perm[0]], combo[perm[1]], combo[perm[2]])
            for x in labels:
                p = base[x]
                out[(triple, x)] = ProjPoint.make(*transform(p.u, p.v))
    return Embedding(tuple(sorted(out.items())))


def spheres_iso(t1: TreeOfSpheres, t2: TreeOfSpheres) -> bool:
    """Isomorphism of trees of spheres: does ``iso_of_spheres`` find one?"""
    return iso_of_spheres(t1, t2) is not None


def canonical_form(t: TreeOfSpheres) -> TreeOfSpheres:
    """Canonical representative of the isomorphism class.

    Internal ids become the canonical ranks of their partitions and every
    vertex is re-charted by the chart of the lexicographically smallest
    triple it separates, so two trees are isomorphic iff their canonical
    forms are equal.  It is an output and an oracle; ``iso_of_spheres``
    decides isomorphism.
    """
    table = vertex_charts(t)
    order = sorted(t.shape.internal, key=lambda v: partition_sort_key(table[v][0]))
    rename = {v: i for i, v in enumerate(order)}

    def rn(v):
        return rename[v] if isinstance(v, int) else v

    shape = MarkedTree.make(
        t.shape.leaves,
        range(len(order)),
        [tuple(rn(x) for x in e) for e in t.shape.edges],
    )
    marking = {}
    for v in order:
        sigma = table[v][1]
        marking[rename[v]] = {
            rn(n): sigma.apply(p) for n, p in t.edge_points(v).items()
        }
    return TreeOfSpheres.make(shape, marking)


def induced_partition(t: TreeOfSpheres, v: int, sub: frozenset) -> Optional[Partition]:
    """Partition of the sub-label-set at v, or None when fewer than 3 blocks."""
    blocks = [b & sub for b in partition_at(t.shape, v)]
    blocks = [b for b in blocks if b]
    if len(blocks) < 3:
        return None
    return frozenset(blocks)


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
    """Post-compose each vertex marking with a Moebius map (same class)."""
    marking = {}
    for v in t.shape.internal:
        m = maps.get(v, Moebius.identity())
        marking[v] = {n: m.apply(p) for n, p in t.edge_points(v).items()}
    return TreeOfSpheres.make(t.shape, marking)


def iso_of_spheres(t1: TreeOfSpheres, t2: TreeOfSpheres
                   ) -> Optional[tuple[dict, dict]]:
    """Explicit isomorphism (vertex map, per-vertex Moebius) or None.

    This decides isomorphism of trees of spheres and witnesses it.  The
    vertex map matches internal vertices through their partitions and is the
    identity on labels; each Moebius is pinned by the vertex charts of a
    representative triple, read from both trees' chart tables, and must
    carry every edge point of its vertex to the edge point of the image
    edge.  Every edge point is the marked point of the labels beyond it, so
    this checks the whole label marking.
    """
    if t1.labels != t2.labels:
        raise LeafSetMismatch("trees of spheres are marked by different label sets")
    parts1 = {v: partition_at(t1.shape, v) for v in t1.shape.internal}
    parts2 = {partition_at(t2.shape, v): v for v in t2.shape.internal}
    if frozenset(parts1.values()) != frozenset(parts2):
        return None
    charts1, charts2 = vertex_charts(t1), vertex_charts(t2)
    vmap: dict = ({x: x for x in t1.labels}
                  | {v: parts2[p] for v, p in parts1.items()})
    mmap: dict = {}
    for v1 in parts1:
        v2 = vmap[v1]  # same partition, so both charts are of one representative triple
        iso = charts2[v2][1].inverse().compose(charts1[v1][1])
        row2 = t2.edge_points(v2)
        if any(iso.apply(q) != row2[vmap[n]] for n, q in t1.edge_points(v1).items()):
            return None
        mmap[v1] = iso
    return vmap, mmap
