"""Limit stable trees of degenerating families, exactly and numerically.

A degenerating one-parameter configuration is a Laurent family: one Laurent
point per label.  Laurent polynomials over Q(i) form a domain, so the limit
of a cross-ratio depends only on the valuation and leading coefficient of
the pairwise brackets [p_x, p_y]: valuations add and leading coefficients
multiply.  The family reads them once, from the lowest terms up, when it is
made.  The valuations alone form an ultrametric whose balls are the vertices
of the limit tree, the tree the labels span in the Berkovich line, and each
vertex is marked by one limit chart.  A degenerating marked rational map is
handled through the limit trees of source and target: each source vertex goes
to the one target vertex whose chart family, composed after the map in the
source vertex's chart and read modulo a doubling power of eps over packed
ints, has a nonconstant leading limit, and that limit is the fiber map.

The numeric mode extrapolates one chart per vertex instead, found by a
lexicographic scan of the unseparated triples, and refuses quadruples that do
not settle within tolerance and snapshots in which two labels coincide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .covers import Portrait, TreeCover, carrier, validate_cover
from .errors import (
    AdmissibilityFailure,
    CollisionAtEpsilon,
    ConstantLimit,
    InconsistentClustering,
    InvalidFamily,
    InvariantBreach,
    MarkedSetTooSmall,
    NotAdmissible,
    NotStabilized,
)
from .laurent import (
    LaurentMap,
    LaurentMoebius,
    LaurentPoint,
    LowOrderReader,
    Packing,
    bracket_lead,
)
from .moduli import MarkedSphere, TreeOfSpheres, tree_from_charts
from .projective import P_INF, P_ONE, P_ZERO, Moebius, ProjPoint
from .rational import RationalMap
from .trees import (
    MarkedTree,
    Partition,
    Vertex,
    neighbors,
    partition_at,
    representative_triple,
    tree_from_partitions,
    tree_partitions,
)
from .values import field, value


# ---------------------------------------------------------------------------
# exact families


@value
class LaurentFamily:
    labels: frozenset
    paths: tuple  # sorted (label, LaurentPoint) pairs
    lead: Mapping = field()  # (x, y): (v, c) of [p_x, p_y]; (y, x): (v, -c)
    mapping: Mapping = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.paths)))

    @classmethod
    def make(cls, paths: Mapping[str, LaurentPoint]) -> "LaurentFamily":
        if len(paths) < 3:
            raise MarkedSetTooSmall("a family needs at least three labels")
        items = sorted(paths.items())
        lead = {}
        for (x, p), (y, q) in combinations(items, 2):
            b = bracket_lead(p, q)
            if b is None:
                raise InvalidFamily(f"paths of {x!r} and {y!r} coincide", witness=[x, y])
            lead[(x, y)], lead[(y, x)] = b, (b[0], -b[1])
        return cls(frozenset(paths), tuple(items), MappingProxyType(lead))

    def path(self, x: str) -> LaurentPoint:
        return self.mapping[x]

    def reparametrize(self, k: int) -> "LaurentFamily":
        """Substitute eps -> eps^k in every path."""
        return LaurentFamily.make({x: p.substitute_power(k) for x, p in self.paths})

    def twist(self, m: Moebius) -> "LaurentFamily":
        """Apply a constant Moebius map to every path."""
        lm = LaurentMoebius.from_constant(m)
        return LaurentFamily.make({x: lm.apply(p) for x, p in self.paths})

    def evaluate(self, eps: Fraction) -> MarkedSphere:
        """The marked sphere at a positive rational eps; must stay injective."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        try:
            points = {x: p.evaluate(eps) for x, p in self.paths}
        except ValueError as exc:
            raise CollisionAtEpsilon(str(exc)) from exc
        values = list(points.values())
        if len(set(values)) != len(values):
            raise CollisionAtEpsilon(f"family members collide at eps = {eps}")
        return MarkedSphere.make(points)


def _limit_chart(labels: Iterable[str], lead: Mapping, triple: tuple[str, str, str]) -> dict:
    """Limits of the cross-ratios [x, t0][t1, tinf] : [x, tinf][t1, t0] of the
    chart sending the triple to (0, 1, inf), from the brackets' leading terms."""
    t0, t1, tinf = triple
    v_num, c_num = lead[(t1, tinf)]
    v_den, c_den = lead[(t1, t0)]
    out = {t0: P_ZERO, t1: P_ONE, tinf: P_INF}
    for x in labels:
        if x in out:
            continue
        v0, c0 = lead[(x, t0)]
        vi, ci = lead[(x, tinf)]
        vu, vv = v0 + v_num, vi + v_den
        if vu > vv:
            out[x] = P_ZERO
        elif vu < vv:
            out[x] = P_INF
        else:
            out[x] = ProjPoint.make(c0 * c_num, ci * c_den)
    return out


def limit_tree(fam: LaurentFamily) -> TreeOfSpheres:
    """The exact limit stable tree of a degenerating Laurent family.

    With r the smallest label and v the bracket valuations of the family's
    lead table, g(x, y) = v(x, y) - v(x, r) - v(y, r) is an ultrametric on
    the other labels whose balls are the vertices.  A ball of minimum m
    splits into the classes of g > m, which with the labels outside it form
    the vertex's partition, marked by its representative triple's chart.
    """
    labels, lead = sorted(fam.labels), fam.lead
    r = labels[0]
    g = {(x, y): v - lead[(x, r)][0] - lead[(y, r)][0]
         for (x, y), (v, _) in lead.items() if r not in (x, y)}
    charts = {}
    balls = [labels[1:]]
    while balls:
        ball = balls.pop()
        # in an ultrametric the minimum over pairs is met at any fixed point
        m = min(g[ball[0], y] for y in ball[1:])
        children: dict[str, list[str]] = {}  # keyed by the first member
        for x in ball:
            children.setdefault(next((c for c in children if g[c, x] > m), x), []).append(x)
        partition = frozenset(map(frozenset, [*children.values(), fam.labels.difference(ball)]))
        charts[partition] = _limit_chart(map(min, partition), lead, representative_triple(partition))
        balls.extend(c for c in children.values() if len(c) > 1)
    return tree_from_charts(charts)


# ---------------------------------------------------------------------------
# numeric families


NumericPoint = tuple[complex, complex]  # homogeneous, scaled to unit norm
_NOT_FINITE = "snapshot coordinates must be finite with a finite modulus: "


def _numeric_point(value) -> NumericPoint:
    """Accepts a complex number, or None for infinity."""
    if value is None:
        return (1.0 + 0j, 0j)
    z = complex(value)
    if not abs(z.real) + abs(z.imag) < math.inf:  # NaN, infinity, or |z| past the float range
        raise InvalidFamily(_NOT_FINITE + repr(z))
    n = abs(z)  # z / 1.0 is complex division, which may clear the sign of a zero part
    return (z / n, 1.0 / n) if n > 1.0 else (z / 1.0, 1.0)


def chordal(p: NumericPoint, q: NumericPoint) -> float:
    np_ = (abs(p[0]) ** 2 + abs(p[1]) ** 2) ** 0.5
    nq = (abs(q[0]) ** 2 + abs(q[1]) ** 2) ** 0.5
    return 2.0 * abs(p[0] * q[1] - q[0] * p[1]) / (np_ * nq)


def _cross_ratio_row(snap: Sequence[NumericPoint], i0: int, i1: int, i2: int) -> list:
    """Cross-ratios [p, p0][p1, pinf] : [p, pinf][p1, p0] of each point of a snapshot,
    (p0, p1, pinf) = snap[i0, i1, i2], scaled to unit max-norm or (0 : 0) where both
    vanish; the two brackets of the triple alone are computed once per row."""
    (a0, b0), (a1, b1), (ai, bi) = snap[i0], snap[i1], snap[i2]
    b1inf = a1 * bi - ai * b1
    b10 = a1 * b0 - a0 * b1
    row = []
    for a, b in snap:
        u = (a * b0 - a0 * b) * b1inf
        v = (a * bi - ai * b) * b10
        n = max(abs(u), abs(v))
        row.append((0j, 0j) if n == 0.0 else (u / n, v / n))
    return row


def _eps_ratios(eps: Sequence[float]) -> list:
    """The ratio table of one ladder: row i lists eps[i - k] / eps[i] for k = 1..i."""
    return [
        [eps[i - k] / eps[i] for k in range(1, i + 1)] for i in range(len(eps))]


def _bs_extrapolate(ratios: Sequence[Sequence[float]], values: Sequence[complex]) -> complex:
    """Rational (Bulirsch-Stoer) extrapolation of the values to eps = 0.

    Rational extrapolation stays accurate when the sampled function has
    poles near the sampled range, which polynomial extrapolation does not.
    Tableau row i needs only row i - 1 and the ladder's ratio table (``_eps_ratios``).
    """
    prev: list = []
    for t, ratio in zip(values, ratios):
        row, lag = [t], None  # lag: the entry of the previous row before p
        for p, r in zip(prev, ratio):
            num = t - p
            den2 = t if lag is None else t - lag
            lag = p
            if den2 != 0:
                d = r * (1 - num / den2) - 1
                t = t + (num / d if d != 0 else 0)
            row.append(t)
        prev = row
    return prev[-1]


def _extrapolate(ratios: Sequence[Sequence[float]], pts: Sequence[NumericPoint]) -> NumericPoint:
    # extrapolate in the affine chart suggested by the sample nearest the limit
    u, v = pts[0]
    if abs(u) <= abs(v):
        return _numeric_point(_bs_extrapolate(ratios, [p[0] / p[1] for p in pts]))
    w = _bs_extrapolate(ratios, [p[1] / p[0] for p in pts])
    return (1.0 + 0j, 0j) if w == 0 else _numeric_point(1.0 / w)


@value
class NumericConfigSequence:
    """Snapshots of a degenerating configuration at known parameter values."""

    labels: tuple
    snapshots: tuple   # per snapshot: tuple of NumericPoint aligned with labels
    eps: tuple         # per-snapshot degeneration parameter, decreasing
    tolerance: float
    stability_window: int

    @classmethod
    def make(cls, snapshots: Sequence[Mapping[str, object]], eps: Sequence[float],
             tolerance: float = 1e-6, stability_window: int = 5) -> "NumericConfigSequence":
        if not snapshots:
            raise InvalidFamily("no snapshots supplied")
        labels = tuple(sorted(snapshots[0]))
        if len(labels) < 3:
            raise MarkedSetTooSmall("snapshots need at least three labels")
        if len(eps) != len(snapshots):
            raise InvalidFamily("one eps value per snapshot is required")
        if len(set(eps)) != len(eps):
            raise InvalidFamily("eps values must be distinct")
        if not all(0 < e < math.inf for e in eps):
            raise InvalidFamily("eps values must be positive and finite")
        if not 0 < tolerance < math.inf or stability_window < 2:
            raise InvalidFamily("tolerance must be positive and finite, window at least 2")
        keys, rows = snapshots[0].keys(), []
        for snap in snapshots:
            if snap.keys() != keys:
                raise InvalidFamily("snapshots do not share a label set")
            row = []  # _numeric_point, inlined
            for z in map(snap.__getitem__, labels):
                if z is None:
                    row.append((1.0 + 0j, 0j))
                    continue
                z = complex(z)
                if not abs(z.real) + abs(z.imag) < math.inf:
                    raise InvalidFamily(_NOT_FINITE + repr(z))
                n = abs(z)
                row.append((z / n, 1.0 / n) if n > 1.0 else (z / 1.0, 1.0))
            rows.append(tuple(row))
        return cls(labels, tuple(rows), tuple(float(e) for e in eps),
                   float(tolerance), int(stability_window))


@value
class NumericTreeOfSpheres:
    """Limit tree with floating markings; shape and clustering are exact sets."""

    shape: MarkedTree
    marking: tuple  # sorted (vertex, ((label, affine complex or None), ...))

    def partitions(self) -> frozenset:
        return tree_partitions(self.shape)


_SUPPORT_POINTS = 9
_LADDER_SPAN = 12.0


def _ladder_nodes(eps: Sequence[float], skip: int, order: Sequence[int] = ()) -> list[int]:
    """Geometric support ladder anchored at the (skip+1)-th smallest parameter.

    Tightly clustered support points amplify the cancellation noise of
    nearly-degenerate snapshots, so the ladder spreads geometrically across
    the sampled range (up to a capped span), smallest parameter first.
    """
    order = (order or sorted(range(len(eps)), key=eps.__getitem__))[skip:]
    count = min(_SUPPORT_POINTS, len(order))
    lo, hi = eps[order[0]], eps[order[-1]]
    span = min(_LADDER_SPAN, hi / lo)
    ratio = max(span ** (1.0 / max(count - 1, 1)), 1.0001)
    nodes = [order[0]]
    target = lo * ratio
    for i in order[1:]:
        if len(nodes) == count:
            break
        if eps[i] >= target * 0.999:
            nodes.append(i)
            target = eps[i] * ratio
    return nodes


def _refuse_coincident(seq: NumericConfigSequence, used: set[int]) -> None:
    """Refuse a used snapshot where labels y, z coincide: with any third label
    w, the cross-ratio of the quadruple (y, z, w; y) is (0 : 0) there."""
    for i in sorted(used, key=lambda i: seq.eps[i]):
        for (y, p), (z, q) in combinations(zip(seq.labels, seq.snapshots[i]), 2):
            if p[0] * q[1] - q[0] * p[1] == 0:
                w = next(x for x in seq.labels if x not in (y, z))
                raise NotStabilized(
                    "two labels coincide in a snapshot; its cross-ratios are undefined",
                    witness={"quadruple": sorted((y, z, w)) + [y], "eps": seq.eps[i]})


def numeric_limit_tree(seq: NumericConfigSequence) -> NumericTreeOfSpheres:
    """Numeric counterpart of limit_tree on sampled snapshots.

    One extrapolated chart per vertex, found by a lexicographic scan of the
    unseparated triples, those no collected partition splits into three blocks.
    Each quadruple has one estimate per ladder anchored at the stability_window
    smallest parameters; a chart is refused at once when a spread, the largest
    chordal distance from the first estimate to another, exceeds tolerance.
    Clustering must be transitive, and a snapshot with coincident labels is refused first.
    A charted triple builds one cross-ratio row per snapshot some ladder uses, and
    refuses the first, by ascending eps, where a product of brackets underflows to
    (0 : 0); each ladder reads its series from those rows and its ratios from one table
    per call.  The triple's own 0 and inf labels, exact zeros of every row's numerator
    or denominator, are charted from ladder 0's last row and as (1 : 0), the bits their
    tableaux would return with spread 0.0.
    """
    w = seq.stability_window
    labels = seq.labels
    if len(seq.snapshots) < w + 1:
        raise NotStabilized("not enough snapshots for the stability window",
                            witness={"snapshots": len(seq.snapshots), "window": w})
    order = sorted(range(len(seq.eps)), key=seq.eps.__getitem__)
    nodes = [_ladder_nodes(seq.eps, skip, order) for skip in range(w)]
    used = {i for node_idx in nodes for i in node_idx}
    _refuse_coincident(seq, used)
    scan = [i for i in order if i in used]
    ladders = [
        (_eps_ratios([seq.eps[i] for i in node_idx]), node_idx) for node_idx in nodes]

    charts: dict[Partition, dict[str, NumericPoint]] = {}
    sides: list[dict[str, int]] = []  # block index of each label, per partition
    for triple in combinations(labels, 3):
        if any(len({side[x] for x in triple}) == 3 for side in sides):
            continue
        i0, i1, i2 = (labels.index(x) for x in triple)
        rows = {i: _cross_ratio_row(seq.snapshots[i], i0, i1, i2) for i in used}
        for i in scan:
            if (0j, 0j) in rows[i]:
                x = labels[rows[i].index((0j, 0j))]
                raise NotStabilized("a cross-ratio underflows to (0 : 0) in a snapshot",
                                    witness={"quadruple": [*triple, x], "eps": seq.eps[i]})
        u, v = rows[nodes[0][-1]][i0]
        chart, unsettled = {triple[0]: _numeric_point(u / v), triple[2]: (1.0 + 0j, 0j)}, []
        for ix, x in enumerate(labels):
            if x in chart:
                continue
            estimates = [
                _extrapolate(ratios, [rows[i][ix] for i in node_idx]) for ratios, node_idx in ladders]
            spread = max(chordal(estimates[0], e) for e in estimates[1:])
            if spread > seq.tolerance:
                unsettled.append({"quadruple": [*triple, x], "spread": spread})
            chart[x] = estimates[0]
        if unsettled:
            raise NotStabilized("quadruples did not settle within tolerance",
                                witness=unsettled)
        partition = _cluster(chart, seq.tolerance)
        if partition not in charts:
            charts[partition] = chart
            sides.append({x: i for i, block in enumerate(partition) for x in block})

    try:
        shape = tree_from_partitions(charts)
    except NotAdmissible as exc:
        raise AdmissibilityFailure("collected partitions are not admissible",
                                   witness=exc.witness) from exc
    marking = []
    for i in sorted(shape.internal):
        chart = charts[partition_at(shape, i)]
        row = []
        for x in labels:
            u, v = chart[x]
            affine = None if abs(v) <= seq.tolerance * abs(u) else u / v
            row.append((x, affine))
        marking.append((i, tuple(row)))
    return NumericTreeOfSpheres(shape, tuple(marking))


def _cluster(values: Mapping[str, NumericPoint], tolerance: float) -> Partition:
    labels = sorted(values)
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in combinations(labels, 2):
        if chordal(values[x], values[y]) <= tolerance:
            parent[find(x)] = find(y)
    blocks: dict[str, set] = {}
    for x in labels:
        blocks.setdefault(find(x), set()).add(x)
    for block in blocks.values():
        for x, y in combinations(sorted(block), 2):
            if chordal(values[x], values[y]) > tolerance:
                raise InconsistentClustering(
                    "tolerance closeness is not transitive",
                    witness=[x, y])
    return frozenset(frozenset(b) for b in blocks.values())


# ---------------------------------------------------------------------------
# cover families and their limits


@value
class CoverFamily:
    portrait: Portrait
    y_family: LaurentFamily
    z_family: LaurentFamily
    map_family: LaurentMap

    @classmethod
    def make(cls, portrait: Portrait, y_family: LaurentFamily,
             z_family: LaurentFamily, map_family: LaurentMap) -> "CoverFamily":
        if y_family.labels != portrait.y_labels or z_family.labels != portrait.z_labels:
            raise InvalidFamily("family label sets do not match the portrait")
        for a in sorted(portrait.y_labels):
            image = map_family.evaluate(y_family.path(a))
            if bracket_lead(image, z_family.path(portrait.f(a))) is not None:
                raise InvalidFamily(
                    f"map family does not send the path of {a!r} to the path of F({a!r})")
        if map_family.degree != portrait.d:
            raise InvalidFamily(
                f"map family degree {map_family.degree} != portrait degree {portrait.d}")
        for eps in (Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)):
            try:
                degree = map_family.specialize(eps).degree
            except ValueError:  # the denominator vanishes at this sample point
                continue
            if degree != portrait.d:
                raise InvalidFamily(f"map family degenerates at generic eps = {eps}")
            break
        else:
            raise InvalidFamily("map family has a zero denominator at every sample eps")
        return cls(portrait, y_family, z_family, map_family)


def limit_cover(fam: CoverFamily) -> TreeCover:
    """Limit of a degenerating cover family as a cover between limit trees.

    Each internal source vertex v is normalized by its representative triple's
    chart family phi_v, and F_v = F . adj(phi_v) (phi_v^-1 up to a scalar) is
    read modulo eps^cap by one LowOrderReader over one Packing of every chart.
    F_v sends v to the target vertex w exactly when M_w . F_v, M_w w's chart
    family, has a nonconstant leading limit (Baker-Rumely), the fiber map at v;
    w is marked by that chart.  The target vertices are tried in sorted order,
    the carriers of the images of v's leaves first: an edge to a leaf maps onto
    the edge to its image leaf, so when v has a leaf the first try is its image.
    ConstantLimit, naming v, is raised when no target vertex gives one.
    """
    source, target = limit_tree(fam.y_family), limit_tree(fam.z_family)
    vs, ws = sorted(source.shape.internal), sorted(target.shape.internal)
    triples = [map(fam.y_family.path, representative_triple(partition_at(source.shape, v))) for v in vs]
    triples += [map(fam.z_family.path, representative_triple(partition_at(target.shape, w))) for w in ws]
    packing = Packing(fam.map_family, triples)
    # every target vertex is some source vertex's image, so each chart is read
    charts = dict(zip(ws, packing.charts[len(vs):]))

    vmap: dict[Vertex, Vertex] = dict(fam.portrait.fmap)
    maps: dict[int, RationalMap] = {}
    for v, phi in zip(vs, packing.charts):
        reader = LowOrderReader(packing, phi)
        forced = [carrier(target.shape, vmap[y]) for y in neighbors(source.shape, v)
                  if isinstance(y, str)]
        for w in dict.fromkeys(forced + list(charts)):
            try:
                maps[v] = reader.leading_limit(charts[w])
            except ConstantLimit:
                continue
            vmap[v] = w
            break
        else:
            raise ConstantLimit("no target vertex yields a nonconstant limit",
                                witness={"vertex": v})
    cover = TreeCover.make(source, target, vmap, maps)
    violations = validate_cover(cover, expected_portrait=fam.portrait)
    if violations:
        raise InvariantBreach("assembled limit is not a valid cover",
                              witness=violations)
    return cover
