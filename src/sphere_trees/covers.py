"""Portraits and covers between trees of spheres.

A cover carries a tree map (leaves to leaves, internal to internal, edges to
edges) and one exact rational map per internal source vertex, equivariant on
the edge markings, with full fibers over every attaching point and coherent
local degrees across internal edges.  Validation certifies through the
degree ledger sum(local_degree - 1) = 2 deg - 2 that every critical point is
a marked point, so no root isolation is ever needed.  Each cover computes
the image and local degree at every edge point once (`edge_table`); the
validation, the portrait and the isomorphism check all read that table.
Beside it each cover keeps its validation verdict and extracted portrait,
so a second `validate_cover` only compares against its expected portrait.
Rows are read in the neighbors order their trees store, edges in `sorted_edges` order.

Reconstruction builds the unique cover with a given source tree and leaf
portrait in one loop over the whole source.  Each round peels one target
vertex: the labels beside a peripheral unpeeled source vertex name it, its
fiber is every unpeeled vertex carrying one of those labels, its chart is
pinned from the discovered attaching points, and the fiber maps follow from
their zero/pole divisors.  The target tree is assembled once, after the last
fiber.  It checks only what it needs to proceed;
`validate_cover` is the one certifier, of reconstructed covers and of covers
lifted from marked spheres alike.
"""

from __future__ import annotations

from itertools import count
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import (
    InconsistentDegree,
    InvalidFamily,
    InvariantBreach,
    LeafSetMismatch,
    NotRealizable,
    OverlappingDivisors,
    PortraitMismatch,
    SphereTreesError,
    UnitOnDivisor,
)
from .gaussian import GaussianRational, horner, linear_product, quotient
from .moduli import MarkedSphere, TreeOfSpheres, iso_of_spheres, sphere_as_tree
from .projective import P_INF, P_ONE, P_ZERO, ProjPoint
from .rational import RationalMap, local_degree
from .trees import (
    MarkedTree,
    Vertex,
    neighbors,
    sorted_edges,
    validate_tree,
    vertex_key,
)
from .values import field, value


# ---------------------------------------------------------------------------
# portraits


@value
class Portrait:
    y_labels: frozenset
    z_labels: frozenset
    fmap: tuple    # sorted (y, z) pairs
    degmap: tuple  # sorted (y, k) pairs
    d: int
    f_dict: Mapping = field(init=False)
    deg_dict: Mapping = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "f_dict", MappingProxyType(dict(self.fmap)))
        object.__setattr__(self, "deg_dict", MappingProxyType(dict(self.degmap)))

    @classmethod
    def make(cls, fmap: Mapping[str, str], degmap: Mapping[str, int], d: int) -> "Portrait":
        y = frozenset(fmap)
        if set(degmap) != set(y):
            raise InvalidFamily("degree map must be defined exactly on the source labels")
        if any(k < 1 for k in degmap.values()):
            raise InvalidFamily("local degrees must be positive")
        if d < 1:
            raise InvalidFamily("portrait degree must be positive")
        z = frozenset(fmap.values())
        return cls(y, z, tuple(sorted(fmap.items())), tuple(sorted(degmap.items())), d)

    def f(self, a: str) -> str:
        return self.f_dict[a]

    def deg(self, a: str) -> int:
        return self.deg_dict[a]


def validate_portrait(p: Portrait, allow_degree_one: bool = False) -> list[str]:
    """Diagnostics for the two degree-sum identities and d >= 2."""
    problems = []
    if p.d < 2 and not allow_degree_one:
        problems.append(f"portrait degree d = {p.d} < 2")
    total = sum(k - 1 for k in p.deg_dict.values())
    if total != 2 * p.d - 2:
        problems.append(f"sum of (deg - 1) is {total}, expected {2 * p.d - 2}")
    fibers: dict[str, int] = {z: 0 for z in p.z_labels}
    for a, z in p.fmap:
        fibers[z] += p.deg(a)
    for z in sorted(fibers):
        if fibers[z] != p.d:
            problems.append(f"fiber of {z!r} sums to {fibers[z]}, expected {p.d}")
    return problems


# ---------------------------------------------------------------------------
# covers


@value
class TreeCover:
    source: TreeOfSpheres
    target: TreeOfSpheres
    vertex_map: tuple  # sorted (vertex, vertex) pairs
    maps: tuple        # sorted (internal id, RationalMap) pairs
    vm: Mapping = field(init=False)
    _maps: Mapping = field(init=False)
    # derived, filled on first use by edge_table and validate_cover
    _edges: Optional[Mapping] = field(init=False)
    _verdict: Optional[tuple] = field(init=False)  # (diagnostics, portrait or None)

    def __post_init__(self):
        object.__setattr__(self, "vm", MappingProxyType(dict(self.vertex_map)))
        object.__setattr__(self, "_maps", MappingProxyType(dict(self.maps)))

    @classmethod
    def make(cls, source: TreeOfSpheres, target: TreeOfSpheres,
             vertex_map: Mapping[Vertex, Vertex],
             maps: Mapping[int, RationalMap]) -> "TreeCover":
        if set(vertex_map) != set(source.shape.vertices):
            raise InvalidFamily("vertex map must be defined on every source vertex")
        if set(maps) != set(source.shape.internal):
            raise InvalidFamily("one rational map per internal source vertex required")
        vm = tuple(sorted(vertex_map.items(), key=lambda kv: vertex_key(kv[0])))
        mp = tuple(sorted(maps.items()))
        return cls(source, target, vm, mp)

    def map_at(self, v: int) -> RationalMap:
        return self._maps[v]


def carrier(shape: MarkedTree, leaf: str) -> int:
    """The unique internal vertex adjacent to a leaf."""
    return neighbors(shape, leaf)[0]


def edge_table(c: TreeCover, v: int) -> Mapping:
    """(image, local degree) of the map at v at each of its edge points, keyed by
    edge neighbour; computed once per cover for every v, one map application a point."""
    if c._edges is None:
        object.__setattr__(c, "_edges", MappingProxyType({
            w: None if f.is_constant() else MappingProxyType(
                {n: (q, local_degree(f, p, q)) for n, p in c.source.edge_points(w).items()
                 for q in (f.apply(p),)})
            for w, f in c.maps}))
    row = c._edges[v]
    if row is None:
        raise InvalidFamily(f"map at vertex {v} is constant")
    return row


def leaf_degree(c: TreeCover, y: str) -> int:
    return edge_table(c, carrier(c.source.shape, y))[y][1]


def global_degree(c: TreeCover) -> int:
    """Common fiber degree sum over target vertices; errors when they differ."""
    sums: dict[int, int] = {w: 0 for w in c.target.shape.internal}
    for v in c.source.shape.internal:
        if c.vm[v] in sums:
            sums[c.vm[v]] += c.map_at(v).degree
    values = sorted(set(sums.values()))
    if len(values) != 1:
        raise InconsistentDegree("fiber degree sums differ across target vertices",
                                 witness={str(k): v for k, v in sums.items()})
    return values[0]


def extract_portrait(c: TreeCover) -> Portrait:
    if c._verdict is not None and c._verdict[1] is not None:
        return c._verdict[1]
    fmap = {y: c.vm[y] for y in c.source.labels}
    degmap = {y: leaf_degree(c, y) for y in c.source.labels}
    return Portrait.make(fmap, degmap, global_degree(c))


def validate_cover(c: TreeCover, expected_portrait: Optional[Portrait] = None) -> list[str]:
    """All cover invariants as diagnostics; empty list means valid.  Everything but the
    comparison with expected_portrait is computed once per cover and kept with the
    extracted portrait, which is None where validation stops before extracting it."""
    if c._verdict is None:
        object.__setattr__(c, "_verdict", _cover_problems(c))
    problems, portrait = c._verdict
    problems, e = list(problems), expected_portrait
    if portrait is not None and e is not None:  # one line per differing leaf datum, and one for d
        for y in sorted(portrait.y_labels | e.y_labels):
            for what, got, want in (("image", portrait.f_dict, e.f_dict),
                                    ("local degree", portrait.deg_dict, e.deg_dict)):
                if got.get(y) != want.get(y):
                    problems.append(
                        f"leaf {y!r}: {what} {got.get(y)!r}, expected {want.get(y)!r}")
        if portrait.d != e.d:
            problems.append(f"degree {portrait.d}, expected {e.d}")
    return problems


def _cover_problems(c: TreeCover) -> tuple:
    """(diagnostics, extracted portrait or None) of `validate_cover`, without its comparison."""
    problems = []
    problems += [f"source: {p}" for p in validate_tree(c.source.shape)]
    problems += [f"target: {p}" for p in validate_tree(c.target.shape)]
    if problems:
        return tuple(problems), None
    vm = c.vm
    for y in sorted(c.source.labels):
        if not isinstance(vm[y], str) or vm[y] not in c.target.labels:
            problems.append(f"leaf {y!r} does not map to a target leaf")
    for v in sorted(c.source.shape.internal):
        if not isinstance(vm[v], int) or vm[v] not in c.target.shape.internal:
            problems.append(f"internal vertex {v} does not map to a target internal vertex")
    if problems:
        return tuple(problems), None
    edges = sorted_edges(c.source.shape)
    for e in edges:
        if frozenset(vm[x] for x in e) not in c.target.shape.edges:
            problems.append(f"edge {sorted(map(str, e))} does not map to a target edge")
    if problems:
        return tuple(problems), None

    for v in sorted(c.source.shape.internal):
        f = c.map_at(v)
        if f.degree < 1:
            problems.append(f"map at vertex {v} is constant")
            continue
        tgt_pts = c.target.edge_points(vm[v])
        table = edge_table(c, v)
        # equivariance on edge markings
        for n, (q, _) in table.items():
            if q != tgt_pts[vm[n]]:
                problems.append(
                    f"vertex {v}: image of the edge point toward {n!r} is not the "
                    f"marked point toward {vm[n]!r}")
        # full fibers over every attaching point of the target vertex
        for q_neighbor, q in tgt_pts.items():
            total = sum(k for image, k in table.values() if image == q)
            if total != f.degree:
                problems.append(
                    f"vertex {v}: fiber over the point toward {q_neighbor!r} sums to "
                    f"{total}, expected {f.degree}")
        # critical-point ledger: every critical point is a marked point
        ledger = sum(k - 1 for _, k in table.values())
        if ledger != 2 * f.degree - 2:
            problems.append(
                f"vertex {v}: degree ledger {ledger} != {2 * f.degree - 2}")
    if problems:
        return tuple(problems), None

    for a, b in edges:
        if isinstance(a, int):  # an internal edge: a leaf's edge lists the leaf first
            da, db = edge_table(c, a)[b][1], edge_table(c, b)[a][1]
            if da != db:
                problems.append(
                    f"edge {sorted(map(str, (a, b)))}: local degrees {da} != {db} disagree")

    try:
        portrait = extract_portrait(c)
    except InconsistentDegree as exc:
        return (*problems, str(exc)), None
    return (*problems, *validate_portrait(portrait, allow_degree_one=True)), portrait


# ---------------------------------------------------------------------------
# divisor construction


def rational_from_divisors(zeros: Iterable[ProjPoint], poles: Iterable[ProjPoint],
                           unit_point: ProjPoint) -> RationalMap:
    """The unique map with the given zero/pole multisets and value 1 at unit_point.

    Points at infinity contribute through degree balancing instead of a
    linear factor.  The factors c z - (a + b i) of the finite points multiply
    as Gaussian-integer pairs (`linear_product`), with no gcd until the end.
    """
    zeros, poles = list(zeros), list(poles)
    if not zeros or len(zeros) != len(poles):
        raise InvalidFamily("zeros and poles must have equal positive total multiplicity")
    if set(zeros) & set(poles):
        raise OverlappingDivisors("zero and pole supports intersect",
                                  witness=sorted(map(str, set(zeros) & set(poles))))
    if unit_point in zeros or unit_point in poles:
        raise UnitOnDivisor("normalization point lies on the divisor")
    num = linear_product(p.u for p in zeros if not p.is_infinity())
    den = linear_product(p.u for p in poles if not p.is_infinity())
    if unit_point.is_infinity():  # unit not on the divisor: equal degrees, value the top ratio
        (na, nb, nc), at_unit = (*num[-1], 1), (*den[-1], 1)
    else:
        r = unit_point.u
        (na, nb, nc), at_unit = (horner([(x, y, 1) for x, y in cs], r.a, r.b, r.c)[-1]
                                 for cs in (num, den))
    top = den[-1][0]  # the product of the poles' denominators, so den / top is monic
    # s = den(unit) / (top num(unit)), so that (s num) / (den / top) is 1 at the unit point
    s = quotient(*at_unit, top * na, top * nb, nc)
    # already reduced: products of linear factors over disjoint supports are coprime, so
    # neither RationalMap.make gcd is needed; one reduction per output coefficient
    return RationalMap(
        tuple(GaussianRational._raw(x * s.a - y * s.b, x * s.b + y * s.a, s.c) for x, y in num),
        tuple(GaussianRational._raw(x, y, top) for x, y in den))


# ---------------------------------------------------------------------------
# reconstruction from the source tree and the portrait


def reconstruct_cover(source: TreeOfSpheres, portrait: Portrait) -> TreeCover:
    """The unique cover with the given source tree and leaf portrait.

    Raises NotRealizable where the construction cannot proceed, or with the
    ``validate_cover`` violations of what it built.
    """
    cover = _build_cover(source, portrait)
    violations = validate_cover(cover, expected_portrait=portrait)
    if violations:
        raise NotRealizable("reconstructed object is not a valid cover", witness=violations)
    return cover


def _build_cover(source: TreeOfSpheres, portrait: Portrait) -> TreeCover:
    """`reconstruct_cover` without its validation; `limit_cover` validates its move instead."""
    problems = validate_portrait(portrait, allow_degree_one=True)
    if problems:
        raise NotRealizable("portrait is invalid", witness=problems)
    if source.labels != portrait.y_labels:
        raise LeafSetMismatch("source tree is not marked by the portrait's source labels")
    try:
        target, vmap, maps = _reconstruct(
            source, portrait.f_dict, portrait.deg_dict, portrait.z_labels)
        cover = TreeCover.make(source, target, vmap, maps)
    except NotRealizable:
        raise
    except SphereTreesError as exc:
        raise NotRealizable(f"forced construction failed: {exc}",
                            witness=getattr(exc, "witness", None)) from exc
    return cover


def _fiber_maps(source: TreeOfSpheres, seen: dict, fiber: list, z0: frozenset):
    """Maps f_w for every vertex in the fiber of the newly pinned target vertex.

    ``seen[w]`` gives the target label and local degree of each leaf and cut
    edge of w, keyed by neighbour; a cut edge leads to a vertex peeled
    earlier.  The other edges of w, its internal edges, lead to unpeeled
    vertices.  The chart is pinned with leaf edges at 0 and infinity (their
    multiplicities are portrait data); the unit slot takes the third leaf edge
    when one exists and the internal edge otherwise.  Returns the maps, the
    attaching points of the new target vertex read off the leaf and cut edges,
    the image of the internal edges, and their local degrees.  It checks only what
    it needs to proceed; ``validate_cover`` certifies leaf images, degrees and
    full fibers.
    """
    zs = sorted(z0)
    zero_z, pole_z = zs[0], zs[-1] if len(zs) == 2 else zs[2]
    unit_leaf = zs[1] if len(zs) >= 3 else None

    maps: dict[int, RationalMap] = {}
    edge_mult: dict[tuple[int, int], int] = {}
    attach: dict[str, ProjPoint] = {zero_z: P_ZERO, pole_z: P_INF}
    if unit_leaf is not None:
        attach[unit_leaf] = P_ONE
    internal_value: Optional[ProjPoint] = None

    for w in fiber:
        pts, ends = source.edge_points(w), seen[w]
        internal_pts = {n: p for n, p in pts.items() if n not in ends}
        bad = sorted(str(n) for n, (z, _) in ends.items() if z not in z0)
        if bad:
            raise NotRealizable(
                f"vertex {w}: leaves {bad} map outside the forced fiber labels")
        zeros = [pts[n] for n, (z, k) in ends.items() if z == zero_z for _ in range(k)]
        poles = [pts[n] for n, (z, k) in ends.items() if z == pole_z for _ in range(k)]
        if not zeros or len(zeros) != len(poles):
            raise NotRealizable(
                f"vertex {w}: zero/pole fibers have multiplicities "
                f"{len(zeros)} and {len(poles)}")
        units = (internal_pts.values() if unit_leaf is None
                 else [pts[n] for n, (z, _) in ends.items() if z == unit_leaf])
        unit = min(units, key=ProjPoint.sort_key, default=None)
        if unit is None:
            raise NotRealizable(f"vertex {w}: no candidate point for the unit slot")
        f = rational_from_divisors(zeros, poles, unit)
        maps[w] = f
        for n, p in pts.items():
            if n in ends and ends[n][0] not in attach:
                attach[ends[n][0]] = f.apply(p)
        images = {n: f.apply(p) for n, p in internal_pts.items()}
        ivalues = set(images.values())
        edge_mult.update(((w, n), local_degree(f, internal_pts[n], q)) for n, q in images.items())
        if len(ivalues) > 1:
            raise NotRealizable(
                f"vertex {w}: internal edges map to several points")
        if ivalues:
            q = ivalues.pop()
            if internal_value is None:
                internal_value = q
            elif internal_value != q:
                raise NotRealizable(
                    "internal-edge attaching point differs between fiber vertices")
    return maps, attach, internal_value, edge_mult


def _reconstruct(source: TreeOfSpheres, fmap: dict, degmap: dict,
                 zlabels: frozenset):
    """Peel the source one target vertex at a time; returns (target tree,
    vertex map, maps).

    Each round takes v0, the smallest unpeeled internal vertex with at most
    one unpeeled internal neighbour.  The target labels on its leaf and cut
    edges name one target vertex, whose fiber is every unpeeled vertex that
    carries one of those labels, in every component of the unpeeled part at
    once.  Once peeled, that target vertex is a label "@t<i>" on the cut edges
    toward its fiber, distinct from every remaining target label.  When v0
    has no unpeeled internal neighbour, all unpeeled vertices form the last
    fiber, and each must see every remaining label.  The target is assembled
    once, with ids in reverse peel order; each "@t<i>" label becomes the edge
    to the vertex of the peel that made it.
    """
    shape = source.shape
    unpeeled = set(shape.internal)
    # leaf and cut edges of each unpeeled vertex: neighbour -> (target label, local degree)
    seen = {
        v: {n: (fmap[n], degmap[n]) for n in neighbors(shape, v) if isinstance(n, str)}
        for v in unpeeled}
    live = set(zlabels)  # the remaining target labels, "@t<i>" labels included
    owner: dict[str, int] = {}  # live "@t<i>" label -> the peel that made it
    peels = []  # (fiber, attaching points keyed by label or earlier peel, internal value)
    maps: dict[int, RationalMap] = {}
    while True:
        v0 = min(v for v in unpeeled
                 if sum(n in unpeeled for n in neighbors(shape, v)) <= 1)
        last = not any(n in unpeeled for n in neighbors(shape, v0))
        z0 = frozenset(live) if last else frozenset(z for z, _ in seen[v0].values())
        if len(z0) < 2:
            raise NotRealizable(
                f"peripheral vertex {v0}: its leaves map to fewer than two target labels")
        if last:
            fiber = sorted(unpeeled)
            if any({z for z, _ in seen[w].values()} != z0 for w in fiber):
                raise NotRealizable("single-vertex source does not cover every target label")
        else:
            fiber = sorted(w for w in unpeeled
                           if any(z in z0 for z, _ in seen[w].values()))
            if any(n in fiber for w in fiber for n in neighbors(shape, w)):
                raise NotRealizable("two fiber vertices of the peeled target vertex are adjacent")
        fiber_maps, attach, internal_value, edge_mult = _fiber_maps(source, seen, fiber, z0)
        maps.update(fiber_maps)
        for z in z0 & owner.keys():
            attach[owner.pop(z)] = attach.pop(z)
        peels.append((fiber, attach, internal_value))
        if last:
            break
        if internal_value is None:
            raise NotRealizable("fiber vertices have no internal edge to continue along")
        if len(z0) == 2 and internal_value != P_ONE:  # pragma: no cover - forced by pinning
            raise InvariantBreach("unit-slot internal edge did not land at 1")
        sentinel = next(f"@t{i}" for i in count() if f"@t{i}" not in live)
        live = (live - z0) | {sentinel}
        owner[sentinel] = len(peels) - 1
        unpeeled.difference_update(fiber)
        for w in fiber:
            for u in neighbors(shape, w):
                if u in unpeeled:
                    seen[u][w] = (sentinel, edge_mult[w, u])

    top = len(peels) - 1
    vmap: dict[Vertex, Vertex] = dict(fmap)
    marking: dict[int, dict] = {}
    for j, (fiber, attach, _) in enumerate(peels):
        vmap.update((w, top - j) for w in fiber)
        row = marking[top - j] = {}
        for n, p in attach.items():
            if isinstance(n, int):  # an earlier peel, attached at its internal value
                marking[top - n][top - j] = peels[n][2]
                n = top - n
            row[n] = p
    edges = [(v, n) for v, row in marking.items() for n in row]
    target = TreeOfSpheres.make(MarkedTree.make(zlabels, range(top + 1), edges), marking)
    return target, vmap, maps


# ---------------------------------------------------------------------------
# isomorphism of covers


def cover_iso(c1: TreeCover, c2: TreeCover) -> bool:
    """Covers are isomorphic iff their marked source trees are.

    The source class determines the cover, so ``iso_of_spheres`` on the
    sources decides.  Its witness is then checked against the cover: the
    targets' isomorphism must agree with the induced target vertex map and
    make every per-vertex conjugacy square commute; any discrepancy raises
    InvariantBreach.
    """
    if extract_portrait(c1) != extract_portrait(c2):
        raise PortraitMismatch("covers carry different portraits")
    if (iso := iso_of_spheres(c1.source, c2.source)) is None:
        return False
    if (ziso := iso_of_spheres(c1.target, c2.target)) is None:
        raise InvariantBreach("isomorphic sources over non-isomorphic targets")
    (yvmap, ymoeb), (zvmap, zmoeb) = iso, ziso
    for v1 in c1.source.shape.internal:
        w1 = c1.vm[v1]
        if w1 not in zmoeb or zvmap[w1] != c2.vm[yvmap[v1]]:
            raise InvariantBreach("induced target vertex map is inconsistent")

    for v1 in sorted(c1.source.shape.internal):
        f1, f2 = c1.map_at(v1), c2.map_at(yvmap[v1])
        left = f1.postcompose(zmoeb[c1.vm[v1]])
        right = f2.precompose(ymoeb[v1])
        if left != right:
            raise InvariantBreach("conjugacy square of the fiber maps does not commute")
    return True


# ---------------------------------------------------------------------------
# covers between marked spheres


@value
class MarkedSphereCover:
    f: RationalMap
    y: MarkedSphere
    z: MarkedSphere


def cover_from_marked(msc: MarkedSphereCover, portrait: Portrait) -> TreeCover:
    """Lift a cover between marked spheres to single-vertex trees of spheres;
    ``validate_cover`` certifies the lift against the portrait."""
    vmap: dict[Vertex, Vertex] = {0: 0}
    vmap.update(portrait.f_dict)
    cover = TreeCover.make(sphere_as_tree(msc.y), sphere_as_tree(msc.z), vmap, {0: msc.f})
    problems = validate_cover(cover, expected_portrait=portrait)
    if problems:
        raise InvalidFamily("not a marked-sphere cover for this portrait",
                            witness=problems)
    return cover
