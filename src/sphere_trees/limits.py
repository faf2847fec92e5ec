"""Limit stable trees of degenerating families, exactly and numerically.

A degenerating one-parameter configuration is a Laurent family: one Laurent
point per label.  Laurent polynomials over Q(i) form a domain, so the limit
of a cross-ratio depends only on the valuation and leading coefficient of
the pairwise brackets [p_x, p_y]: valuations add and leading coefficients
multiply.  The family reads them once, from the lowest terms up, when it is
made.  The valuations alone form an ultrametric whose balls are the vertices
of the limit tree, the tree the labels span in the Berkovich line; each ball is
split on one row, its first member's, and marked by one limit chart.  The limit
of a degenerating marked rational map is the cover over the source limit tree
with the family's portrait, rebuilt from the two (`reconstruct_cover`) and moved
into the target limit's charts; the family's local degrees are checked exactly.

The numeric mode extrapolates one chart per vertex instead, found by a
lexicographic scan of the unseparated triples, and refuses quadruples that do
not settle within tolerance and snapshots in which two labels coincide.  A sequence
checks every coordinate when made; a limit normalizes only the snapshots its ladders read,
and its ladders' Bulirsch-Stoer tableaux share one table of their node windows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, islice, zip_longest
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .covers import Portrait, TreeCover, _build_cover, validate_cover, validate_portrait
from .errors import (
    AdmissibilityFailure,
    CollisionAtEpsilon,
    InconsistentClustering,
    InvalidFamily,
    InvariantBreach,
    MarkedSetTooSmall,
    NotAdmissible,
    NotRealizable,
    NotStabilized,
    SchemaError,
)
from .gaussian import scaled, triples
from .laurent import (
    LP_ONE,
    LP_ZERO,
    LaurentMap,
    LaurentMoebius,
    LaurentPoint,
    LaurentPoly,
    bracket_lead,
)
from .moduli import MarkedSphere, TreeOfSpheres, iso_of_spheres, tree_from_charts
from .projective import P_INF, P_ONE, P_ZERO, Moebius, ProjPoint
from .trees import (
    MarkedTree,
    Partition,
    partition_at,
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
        try:
            return MarkedSphere.make(points)
        except InvalidFamily as exc:
            raise CollisionAtEpsilon(f"family members collide at eps = {eps}",
                                     witness=exc.witness) from exc


def _limit_chart(labels: Iterable[str], lead: Mapping, triple: tuple[str, str, str]) -> dict:
    """Limits of the cross-ratios [x, t0][t1, tinf] : [x, tinf][t1, t0] of the
    chart sending the triple to (0, 1, inf), from the brackets' leading terms."""
    t0, t1, tinf = triple
    (v_num, c_num), (v_den, c_den) = lead[(t1, tinf)], lead[(t1, t0)]
    num, den = triples((c_num, c_den))
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
            out[x] = ProjPoint.ratio(scaled(c0, num), scaled(ci, den))
    return out


def limit_tree(fam: LaurentFamily) -> TreeOfSpheres:
    """The exact limit stable tree of a degenerating Laurent family.

    With r the smallest label and v the bracket valuations of the family's
    lead table, g(x, y) = v(x, y) - v(x, r) - v(y, r) is an ultrametric on
    the other labels whose balls are the vertices, read only where a split
    compares it.  A ball's classes of g > m, m the least entry of its first member's
    row, read once, and the labels outside it are the vertex's blocks: labels above m
    join that member, the rest are compared with later classes' first members.  The
    blocks' minima (r, then first members) ascend; the first three chart the vertex.
    """
    labels, lead = sorted(fam.labels), fam.lead
    r = labels[0]
    vr = {x: lead[x, r][0] for x in labels[1:]}

    def g(x: str, y: str) -> int:
        return lead[x, y][0] - vr[x] - vr[y]
    charts = {}
    balls = [labels[1:]]
    while balls:
        ball = balls.pop()
        # in an ultrametric the minimum over pairs is met at any fixed point
        m = min(row := [g(ball[0], y) for y in ball[1:]])
        children = {ball[0]: (mine := ball[:1])}  # keyed by the first member
        for x, gx in zip(ball[1:], row):
            if gx > m:
                mine.append(x)
                continue
            for c, members in islice(children.items(), 1, None):
                if g(c, x) > m:
                    members.append(x)
                    break
            else:
                children[x] = [x]
        partition = frozenset(map(frozenset, [*children.values(), fam.labels.difference(ball)]))
        charts[partition] = _limit_chart(minima := [r, *children], lead, tuple(minima[:3]))
        balls.extend(c for c in children.values() if len(c) > 1)
    return tree_from_charts(charts)


# ---------------------------------------------------------------------------
# numeric families


NumericPoint = tuple[complex, complex]  # homogeneous, scaled to unit norm
_NOT_FINITE = "snapshot coordinates must be finite with a finite modulus: "


def _checked(value) -> complex | None:  # a snapshot coordinate; None is infinity
    if value is None:
        return None
    z = complex(value)
    if not abs(z.real) + abs(z.imag) < math.inf:  # NaN, infinity, or |z| past the float range
        raise InvalidFamily(_NOT_FINITE + repr(z))
    return z


def _numeric_point(value) -> NumericPoint:
    """Accepts a complex number, or None for infinity."""
    z = _checked(value)
    if z is None:
        return (1.0 + 0j, 0j)
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
        au, av = abs(u), abs(v)
        n = av if av > au else au  # max(au, av), NaN included
        row.append((0j, 0j) if n == 0.0 else (u / n, v / n))
    return row


def _window_table(eps: Sequence[float], ladders: Sequence[tuple]) -> tuple:
    """The ladders' Bulirsch-Stoer tableaux as one table of their node windows W, shortest
    first: leaves (snapshot indices), cells (slots of T(W[1:]), T(W[:-1]) and T(W[1:-1]) or of
    the 0 after the leaves, and eps[W[0]] / eps[W[-1]]), and each ladder's estimate's slot."""
    leaves = sorted(set().union(*ladders))
    slot = {(i,): s for s, i in enumerate(leaves)}
    windows = dict.fromkeys([idx[j:j + m] for m in range(2, max(map(len, ladders)) + 1)
                             for idx in ladders for j in range(len(idx) - m + 1)])
    slot.update({win: s for s, win in enumerate(windows, len(leaves) + 1)})
    cells = [(slot[win[1:]], slot[win[:-1]], slot.get(win[1:-1], len(leaves)),
              eps[win[0]] / eps[win[-1]]) for win in windows]
    return leaves, cells, [slot[idx] for idx in ladders]


def _label_estimates(eps: Sequence[float], ladders: Sequence[tuple], tables: dict,
                     rows: Mapping[int, list], ix: int) -> list[NumericPoint]:
    """Each ladder's rational extrapolation, which poles near the samples do not spoil, of
    label ix's chart by u / v where |u| <= |v| at its first node, else by v / u.  The ladders of
    one direction run one window table, cached in tables by their indices; estimates are
    normalized in ladder order.  t - 0 is t bit for bit; t + 0 where d == 0 clears a -0."""
    flips = [abs(rows[idx[0]][ix][0]) > abs(rows[idx[0]][ix][1]) for idx in ladders]
    raw = [0j] * len(ladders)
    for flip in {*flips}:
        subset = tuple([k for k, f in enumerate(flips) if f == flip])
        if (table := tables.get(subset)) is None:
            table = tables[subset] = _window_table(eps, [ladders[k] for k in subset])
        leaves, cells, roots = table
        vals = [rows[i][ix][flip] / rows[i][ix][1 - flip] for i in leaves] + [0]
        for a, b, c, r in cells:
            t = vals[a]
            num = t - vals[b]
            den2 = t - vals[c]
            if den2 != 0:
                d = r * (1 - num / den2) - 1
                t = t + (num / d if d != 0 else 0)
            vals.append(t)
        for k, s in zip(subset, roots):
            raw[k] = vals[s]
    return [((1.0 + 0j, 0j) if t == 0 else _numeric_point(1.0 / t)) if f else _numeric_point(t)
            for f, t in zip(flips, raw)]


@value
class NumericConfigSequence:
    """Snapshots of a degenerating configuration at known parameter values."""

    labels: tuple
    snapshots: tuple   # per snapshot: checked coordinates aligned with labels, complex or None
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
            # from a list, not an iterator: a tuple grown from an iterator keeps its
            # spare slots, which held about 0.7 MiB more on the numeric bench
            rows.append(tuple([_checked(snap[x]) for x in labels]))
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


def _refuse_coincident(seq: NumericConfigSequence, points: Mapping[int, list]) -> None:
    """Refuse a used snapshot, given as its normalized points, where labels y, z coincide:
    with any third label w, the cross-ratio of the quadruple (y, z, w; y) is (0 : 0) there."""
    for i in sorted(points, key=lambda i: seq.eps[i]):
        for (y, p), (z, q) in combinations(zip(seq.labels, points[i]), 2):
            if p[0] * q[1] - q[0] * p[1] == 0:
                w = next(x for x in seq.labels if x not in (y, z))
                raise NotStabilized(
                    "two labels coincide in a snapshot; its cross-ratios are undefined",
                    witness={"quadruple": sorted((y, z, w)) + [y], "eps": seq.eps[i]})


def numeric_limit_tree(seq: NumericConfigSequence) -> NumericTreeOfSpheres:
    """Numeric counterpart of limit_tree on sampled snapshots.

    One extrapolated chart per vertex, found by a lexicographic scan of the unseparated
    triples, those no collected partition splits into three blocks.  Each quadruple has one
    estimate per ladder anchored at the stability_window smallest parameters; a chart is
    refused at once when a spread, the largest chordal distance from the first estimate to
    another, exceeds tolerance.  Clustering must be transitive, and a snapshot with coincident
    labels is refused first.  The snapshots some ladder uses, and only those, are normalized
    once per call; a charted triple builds one cross-ratio row per such snapshot, and refuses
    the first, by ascending eps, where a product of brackets underflows to (0 : 0).  The
    ladders share one table of their node windows per call and chart direction, so a label
    divides each row entry and computes each tableau cell once; the first label a ladder's
    chart divides by zero or past the float range is refused at its first such snapshot, one
    whose tableau overflows on finite quotients naming the first ladder that does.  The
    triple's own 0 and inf labels, exact zeros of every row's numerator or denominator, are
    charted from ladder 0's last row and as (1 : 0), the bits their tableaux would return.
    """
    w = seq.stability_window
    labels = seq.labels
    if len(seq.snapshots) < w + 1:
        raise NotStabilized("not enough snapshots for the stability window",
                            witness={"snapshots": len(seq.snapshots), "window": w})
    order = sorted(range(len(seq.eps)), key=seq.eps.__getitem__)
    nodes = [tuple(_ladder_nodes(seq.eps, skip, order)) for skip in range(w)]
    points = {i: [_numeric_point(z) for z in seq.snapshots[i]] for i in set().union(*nodes)}
    _refuse_coincident(seq, points)
    scan = [i for i in order if i in points]
    tables: dict = {}  # the window table of each ladder subset that charts a label one way

    charts: dict[Partition, dict[str, NumericPoint]] = {}
    sides: list[dict[str, int]] = []  # block index of each label, per partition
    for triple in combinations(labels, 3):
        if any(len({side[x] for x in triple}) == 3 for side in sides):
            continue
        i0, i1, i2 = (labels.index(x) for x in triple)
        rows = {i: _cross_ratio_row(snap, i0, i1, i2) for i, snap in points.items()}
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
            try:
                estimates = _label_estimates(seq.eps, nodes, tables, rows, ix)
            except (ZeroDivisionError, InvalidFamily):  # a chart divides by 0, or by a subnormal
                poles = []
                for idx in nodes:  # charted by u / v where |u| <= |v| at the first node, else v / u
                    k = abs(rows[idx[0]][ix][0]) <= abs(rows[idx[0]][ix][1])  # the divisor's index
                    quotients = {seq.eps[i]: rows[i][ix][1 - k] / rows[i][ix][k] if rows[i][ix][k] else math.inf
                                 for i in idx}
                    poles += [e for e, q in quotients.items() if not abs(q.real) + abs(q.imag) < math.inf]
                if poles:
                    raise NotStabilized("a cross-ratio is a pole of its extrapolation chart in a snapshot",
                                        witness={"quadruple": [*triple, x], "eps": min(poles)}) from None
                for k, idx in enumerate(nodes):  # every quotient is finite: name the first ladder
                    try:  # whose own tableau overflows
                        _label_estimates(seq.eps, (idx,), {}, rows, ix)
                    except InvalidFamily:
                        raise NotStabilized("an extrapolation tableau overflows the float range", witness={
                            "quadruple": [*triple, x], "ladder": k, "anchor_eps": seq.eps[idx[0]]}) from None
                raise
            spread = max(chordal(estimates[0], e) for e in estimates[1:])
            if spread > seq.tolerance:  # name the ladder whose estimate lies farthest out
                k = max(range(1, w), key=lambda k: chordal(estimates[0], estimates[k]))
                unsettled.append({"quadruple": [*triple, x], "spread": spread,
                                  "ladder": k, "anchor_eps": seq.eps[nodes[k][0]]})
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
    norms = {x: (abs(u) ** 2 + abs(v) ** 2) ** 0.5 for x, (u, v) in values.items()}

    def distance(x, y):  # chordal(values[x], values[y]), each norm taken once per chart
        (a, b), (c, d) = values[x], values[y]
        return 2.0 * abs(a * d - c * b) / (norms[x] * norms[y])

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in combinations(labels, 2):
        if distance(x, y) <= tolerance:
            parent[find(x)] = find(y)
    blocks: dict[str, set] = {}
    for x in labels:
        blocks.setdefault(find(x), set()).add(x)
    for block in blocks.values():
        for x, y in combinations(sorted(block), 2):
            if distance(x, y) > tolerance:
                raise InconsistentClustering(
                    "tolerance closeness is not transitive",
                    witness=[x, y])
    return frozenset(frozenset(b) for b in blocks.values())


# ---------------------------------------------------------------------------
# cover families and their limits


def _root_order(g: Sequence[LaurentPoly], p: LaurentPoint) -> int:
    """The order of p = (u : v) as a root of the form G = sum g_i U^i V^(d-i), not zero: for
    v != 0 the order of u as a root of G(X, v) = sum c_i X^i, c_i = g_i v^(d-i), so the count
    of synthetic divisions by X - u, each one Horner pass that leaves its remainder in c_0,
    before the first nonzero remainder; in V where v = 0, so with g reversed, u, v swapped."""
    u, v = p.u, p.v
    if v.is_zero():
        g, u, v = g[::-1], v, u
    d = len(g) - 1
    vpow = [LP_ONE]
    for _ in range(d):
        vpow.append(vpow[-1] * v)
    c = [g[i] * vpow[d - i] for i in range(d + 1)]
    for k in range(d):
        for j in range(len(c) - 2, -1, -1):
            c[j] = c[j] + u * c[j + 1]
        if not c.pop(0).is_zero():
            return k
    return d  # a nonzero form of degree d has no root of higher order


# Largest work estimate d^2 t (s + 1) of a cover family, d its map degree, t the most terms and
# s the largest exponent spread of a source path component.  Its root orders took 0.3 s near
# 10^4 and 5-7 s at 3 10^6; the data, tests and benchmark reach at most 4,002.
MAX_COVER_FAMILY_WORK = 10 ** 4


@value
class CoverFamily:
    portrait: Portrait
    y_family: LaurentFamily
    z_family: LaurentFamily
    map_family: LaurentMap

    @classmethod
    def make(cls, portrait: Portrait, y_family: LaurentFamily,
             z_family: LaurentFamily, map_family: LaurentMap) -> "CoverFamily":
        """The family, once no form G_z = q.v num - q.u den (q the path of z) is zero, as the
        map is then constant, each path of a is a root of G_F(a) of order deg(a), exactly by
        `_root_order`, and the portrait is valid.  By the fiber sums the paths over z are then
        all d roots of G_z over the closure of Q(i)(eps), counted with multiplicity; so num and
        den are coprime, and the map has degree d, as a common root, a root of every G_z, would
        be one path over two target labels, while paths are distinct.  A family whose
        work estimate passes `MAX_COVER_FAMILY_WORK` is refused first, as a SchemaError."""
        parts = [c.terms for _, p in y_family.paths for c in (p.u, p.v) if c.terms]
        work = map_family.degree ** 2 * max(map(len, parts)) * (
            max(t[-1][0] - t[0][0] for t in parts) + 1)
        if work > MAX_COVER_FAMILY_WORK:
            raise SchemaError(f"cover family work {work} exceeds the bound {MAX_COVER_FAMILY_WORK}")
        if y_family.labels != portrait.y_labels or z_family.labels != portrait.z_labels:
            raise InvalidFamily("family label sets do not match the portrait")
        if map_family.degree != portrait.d:
            raise InvalidFamily(
                f"map family degree {map_family.degree} != portrait degree {portrait.d}")
        pairs = list(zip_longest(map_family.num, map_family.den, fillvalue=LP_ZERO))
        forms = {z: [LaurentPoly.dot(((q.v, n), (-q.u, c))) for n, c in pairs]
                 for z, q in z_family.paths}  # G of each target label
        for z, g in forms.items():
            if all(c.is_zero() for c in g):
                raise InvalidFamily(f"map family is the constant path of {z!r}")
        for a in sorted(portrait.y_labels):
            order = _root_order(forms[portrait.f(a)], y_family.path(a))
            if order == 0:
                raise InvalidFamily(
                    f"map family does not send the path of {a!r} to the path of F({a!r})")
            if order != portrait.deg(a):
                raise InvalidFamily(
                    f"map family has local degree {order} at the path of {a!r}, "
                    f"the portrait {portrait.deg(a)}")
        problems = validate_portrait(portrait, allow_degree_one=True)
        if problems:
            raise NotRealizable("portrait is invalid", witness=problems)
        return cls(portrait, y_family, z_family, map_family)


def limit_cover(fam: CoverFamily) -> TreeCover:
    """Limit of a degenerating cover family as a cover between limit trees.

    It is the one cover over the source limit with the portrait `CoverFamily.make`
    checked against the map: the cover `reconstruct_cover` builds, moved into the target
    limit's charts by `iso_of_spheres` (vertex maps composed, each fiber map followed by the
    Moebius map at its image), then validated once; a move keeps every invariant.
    InvariantBreach is raised when no such isomorphism exists, or with the violations.
    """
    source, target = limit_tree(fam.y_family), limit_tree(fam.z_family)
    rebuilt = _build_cover(source, fam.portrait)
    if (iso := iso_of_spheres(rebuilt.target, target)) is None:
        raise InvariantBreach("the rebuilt target is not the target limit tree")
    vmap, moebius = iso
    cover = TreeCover.make(source, target, {v: vmap[w] for v, w in rebuilt.vertex_map},
                           {v: f.postcompose(moebius[rebuilt.vm[v]]) for v, f in rebuilt.maps})
    violations = validate_cover(cover, expected_portrait=fam.portrait)
    if violations:
        raise InvariantBreach("assembled limit is not a valid cover", witness=violations)
    return cover
