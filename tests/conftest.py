"""Shared corpus builders: exhaustive small tree shapes, random exact
markings, and the hand-built cover corpus used across the suite."""

from __future__ import annotations

import pathlib
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sphere_trees.covers import MarkedSphereCover, Portrait, cover_from_marked
from sphere_trees.errors import DegenerateTriple
from sphere_trees.gaussian import GR_ZERO, GaussianRational, gr
from sphere_trees.laurent import LaurentMap, LaurentMoebius, LaurentPoint, LaurentPoly
from sphere_trees.limits import CoverFamily, LaurentFamily, limit_cover
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres, iso_of_spheres, marking_dict, project
from sphere_trees.projective import M_IDENTITY, Moebius, ProjPoint, moebius_from_three
from sphere_trees.rational import RationalMap, trim
from sphere_trees.trees import (
    MarkedTree,
    edge_of,
    enumerate_stable_trees,
    branches,
    neighbors,
    vertex_key,
)

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "data"


def pt(x, im=0) -> ProjPoint:
    return ProjPoint.of(gr(x, im))


INF = ProjPoint.infinity()


def lconst(x) -> LaurentPoint:
    return LaurentPoint.from_poly(LaurentPoly.constant(gr(x)))


LINF = LaurentPoint.make(LaurentPoly.constant(gr(1)), LaurentPoly.make([]))


def lpoly(terms) -> LaurentPoint:
    return LaurentPoint.from_poly(LaurentPoly.make(terms))


def cross_ratio(p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint, p: ProjPoint) -> ProjPoint:
    """Oracle: the image of p under the chart normalizing (p0, p1, pinf) to (0, 1, inf)."""
    return moebius_from_three(p0, p1, pinf).apply(p)


# chart changes induced by permuting a normalized triple, on (u : v)
_ANHARMONIC = {
    (0, 1, 2): lambda u, v: (u, v),          # identity
    (0, 2, 1): lambda u, v: (u, u - v),      # z / (z - 1)
    (1, 0, 2): lambda u, v: (v - u, v),      # 1 - z
    (1, 2, 0): lambda u, v: (u - v, u),      # (z - 1) / z
    (2, 0, 1): lambda u, v: (v, v - u),      # 1 / (1 - z)
    (2, 1, 0): lambda u, v: (v, u),          # 1 / z
}


def oracle_embed(t: TreeOfSpheres) -> dict:
    """Oracle for `moduli.embed`: each unordered triple of labels with three distinct
    points in a_v is charted once at v, and the other five orders of it are read off that
    chart through the anharmonic group."""
    labels = sorted(t.labels)
    out = {}
    for v in t.shape.internal:
        a_v, beyond = marking_dict(t, v), branches(t.shape, v)
        for combo in combinations(labels, 3):
            ends = [a_v[x] for x in combo]
            if len(set(ends)) < 3:
                continue
            sigma = moebius_from_three(*ends)
            for n, p in t.edge_points(v).items():
                q = sigma.apply(p)
                for perm, transform in _ANHARMONIC.items():
                    image = ProjPoint.make(*transform(q.u, q.v))
                    triple = (combo[perm[0]], combo[perm[1]], combo[perm[2]])
                    out.update(((triple, x), image) for x in beyond[n])
    return out


def oracle_edge_order(t: MarkedTree) -> list:
    """Oracle for `trees.sorted_edges`: each edge's ends sorted by vertex_key, then the
    pairs sorted, as the tree writer, the cover check and the tree enumeration once
    sorted the edge set each for itself."""
    return [tuple(e) for e in sorted((sorted(e, key=vertex_key) for e in t.edges),
                                     key=lambda e: (vertex_key(e[0]), vertex_key(e[1])))]


def assert_rows_in_neighbors_order(t: TreeOfSpheres) -> None:
    """Every row of t, as stored and as read, lists its vertex's edges in neighbors order."""
    for v, row in t.marking:
        assert tuple(n for n, _ in row) == tuple(t.rows[v]) == neighbors(t.shape, v), v


def oracle_compatible(t_x: TreeOfSpheres, t_y: TreeOfSpheres) -> bool:
    """Oracle for `dynamics.compatible`: the explicit isomorphism onto t_y's projection
    exists and its Moebius map at every vertex is the identity."""
    iso = iso_of_spheres(t_x, project(t_y, t_x.labels))
    return iso is not None and all(m == M_IDENTITY for m in iso[1].values())


def oracle_laurent_bracket(p: LaurentPoint, q: LaurentPoint) -> LaurentPoly:
    """Oracle: the bracket [p, q] = p.u q.v - q.u p.v, every Laurent term of it, zero
    exactly where the paths coincide."""
    return p.u * q.v - q.u * p.v


def laurent_cross_ratio(p0: LaurentPoint, p1: LaurentPoint, pinf: LaurentPoint,
                        p: LaurentPoint) -> LaurentPoint:
    """Oracle: the homogeneous cross-ratio ((p-p0)(p1-pinf) : (p-pinf)(p1-p0)),
    every Laurent term of it."""
    return LaurentPoint.make(
        oracle_laurent_bracket(p, p0) * oracle_laurent_bracket(p1, pinf),
        oracle_laurent_bracket(p, pinf) * oracle_laurent_bracket(p1, p0),
    )


def oracle_laurent_from_three(p0: LaurentPoint, p1: LaurentPoint,
                              pinf: LaurentPoint) -> LaurentMoebius:
    """Oracle: the family of charts sending (p0, p1, pinf) to (0, 1, inf) for each eps."""
    k_01, k_num = oracle_laurent_bracket(p0, p1), oracle_laurent_bracket(p1, pinf)
    if k_01.is_zero() or k_num.is_zero() or oracle_laurent_bracket(p0, pinf).is_zero():
        raise DegenerateTriple("chart family requires pairwise distinct paths")
    # [p1, p0] = -[p0, p1]; det = [p1, pinf] [p1, p0] [p0, pinf] is nonzero
    return LaurentMoebius(p0.v * k_num, -(p0.u * k_num), -(pinf.v * k_01), pinf.u * k_01)


def oracle_laurent_evaluate(p: LaurentPoly, eps: Fraction) -> GaussianRational:
    """Oracle for `LaurentPoint.evaluate`: the Laurent polynomial at eps > 0, term by term
    over Fraction."""
    if eps <= 0:
        raise ValueError("families are evaluated at eps > 0")
    return GaussianRational.dot((c, GaussianRational(eps ** e)) for e, c in p.terms)


def oracle_specialize(f: LaurentMap, eps: Fraction) -> RationalMap:
    """Oracle: the member of the map family at eps."""
    return RationalMap.make(*([oracle_laurent_evaluate(c, eps) for c in cs]
                              for cs in (f.num, f.den)))


class ConstantLimit(Exception):
    """A rescaling limit (`oracle_leading_limit`) degenerated to a constant map."""


def oracle_leading_limit(f: LaurentMap) -> RationalMap:
    """Oracle: divide the map family by eps^(minimal valuation), set eps = 0, reduce
    over Q(i).  Raises ConstantLimit when the resulting map is constant."""
    v = min(c.valuation() for c in f.num + f.den if not c.is_zero())
    num0, den0 = (trim([dict(c.terms).get(v, GR_ZERO) for c in cs]) for cs in (f.num, f.den))
    if not den0:
        raise ConstantLimit("limit map is identically infinity")
    limit = RationalMap.make(num0, den0)
    if limit.is_constant():
        raise ConstantLimit("limit map is constant")
    return limit


# a pool of distinct exact points with small numerators and denominators
POINT_POOL = [INF] + [
    pt(Fraction(a, b), Fraction(c, d))
    for a in range(-3, 4)
    for b in (1, 2, 3)
    for c in (-1, 0, 1, 2)
    for d in (1, 2)
]
POINT_POOL = sorted(set(POINT_POOL), key=ProjPoint.sort_key)


def random_marking(shape: MarkedTree, rng: random.Random) -> TreeOfSpheres:
    marking = {}
    for v in shape.internal:
        ns = neighbors(shape, v)
        pts = rng.sample(POINT_POOL, len(ns))
        marking[v] = dict(zip(ns, pts))
    return TreeOfSpheres.make(shape, marking)


def random_stable_shape(n: int, rng: random.Random) -> MarkedTree:
    """A stable tree on labels "1".."n" grown by random leaf insertion: each
    new label attaches at an internal vertex or subdivides an edge."""
    labels = [str(i) for i in range(1, n + 1)]
    internal, edges = {0}, {edge_of(x, 0) for x in labels[:3]}
    for x in labels[3:]:
        # vertex_key, not str: leaf "1" and internal vertex 1 must not tie
        options = sorted(internal) + sorted(edges, key=lambda e: sorted(map(vertex_key, e)))
        pick = options[rng.randrange(len(options))]
        if isinstance(pick, int):
            edges.add(edge_of(x, pick))
        else:
            a, b = tuple(pick)
            fresh = max(internal) + 1
            edges = (edges - {pick}) | {edge_of(a, fresh), edge_of(fresh, b),
                                        edge_of(x, fresh)}
            internal.add(fresh)
    return MarkedTree.make(labels, internal, edges)


def relabel_tree(t: TreeOfSpheres, shift: int) -> TreeOfSpheres:
    """The same tree of spheres with every internal vertex id shifted."""
    def rn(v):
        return v + shift if isinstance(v, int) else v
    shape = MarkedTree.make(
        t.shape.leaves, [v + shift for v in t.shape.internal],
        [tuple(rn(x) for x in e) for e in t.shape.edges])
    marking = {v + shift: {rn(n): p for n, p in t.edge_points(v).items()}
               for v in t.shape.internal}
    return TreeOfSpheres.make(shape, marking)


def relabel_internal_ids(cover, source_shift: int = 10, target_shift: int = 20):
    """The same cover with every internal vertex id shifted."""
    from sphere_trees.covers import TreeCover

    def rn_pair(v, shift):
        return v + shift if isinstance(v, int) else v

    source = relabel_tree(cover.source, source_shift)
    target = relabel_tree(cover.target, target_shift)
    vm = {rn_pair(a, source_shift): rn_pair(b, target_shift)
          for a, b in cover.vertex_map}
    maps = {v + source_shift: f for v, f in cover.maps}
    return TreeCover.make(source, target, vm, maps)


def random_moebius(rng: random.Random) -> Moebius:
    while True:
        a, b, c, d = (gr(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(4))
        if not (a * d - b * c).is_zero():
            return Moebius.make(a, b, c, d)


@pytest.fixture(scope="session")
def small_shapes() -> dict:
    """All stable tree shapes onach label sets of size 3..6."""
    shapes = {}
    for n in range(3, 7):
        labels = [str(i) for i in range(1, n + 1)]
        shapes[n] = list(enumerate_stable_trees(labels))
    return shapes


@pytest.fixture(scope="session")
def tree_corpus(small_shapes) -> list:
    """500 random trees of spheres over shapes with 4..6 labels."""
    rng = random.Random(20240)
    pool = small_shapes[4] + small_shapes[5] + small_shapes[6]
    return [random_marking(rng.choice(pool), rng) for _ in range(500)]


# ---------------------------------------------------------------------------
# the z^2 single-vertex cover and friends


def z_squared_map() -> RationalMap:
    return RationalMap.from_coeffs([gr(0), gr(0), gr(1)], [gr(1)])


def z_squared_cover():
    portrait = Portrait.make(
        {"y0": "z0", "yinf": "zinf", "y1": "z1", "ym1": "z1"},
        {"y0": 2, "yinf": 2, "y1": 1, "ym1": 1}, 2)
    y = MarkedSphere.make({"y0": pt(0), "yinf": INF, "y1": pt(1), "ym1": pt(-1)})
    z = MarkedSphere.make({"z0": pt(0), "zinf": INF, "z1": pt(1)})
    return cover_from_marked(MarkedSphereCover(z_squared_map(), y, z), portrait), portrait


def z_squared_fiber_cover(c: GaussianRational):
    """z^2 marked with the fibers of 0, inf, 1, and c^2 (c not 0 or +-1)."""
    csq = c * c
    portrait = Portrait.make(
        {"y0": "z0", "yinf": "zinf", "y1": "z1", "ym1": "z1", "yc": "zc", "ymc": "zc"},
        {"y0": 2, "yinf": 2, "y1": 1, "ym1": 1, "yc": 1, "ymc": 1}, 2)
    y = MarkedSphere.make({
        "y0": pt(0), "yinf": INF, "y1": pt(1), "ym1": pt(-1),
        "yc": ProjPoint.of(c), "ymc": ProjPoint.of(-c)})
    z = MarkedSphere.make({"z0": pt(0), "zinf": INF, "z1": pt(1),
                           "zc": ProjPoint.of(csq)})
    return cover_from_marked(MarkedSphereCover(z_squared_map(), y, z), portrait), portrait


def chebyshev_cover(extended: bool = False):
    """The cubic z^3 - 3z with its rational critical fibers marked."""
    f = RationalMap.from_coeffs([gr(0), gr(-3), gr(0), gr(1)], [gr(1)])
    fmap = {"a2": "b2", "am1": "b2", "am2": "bm2", "a1": "bm2", "ainf": "binf"}
    deg = {"a2": 1, "am1": 2, "am2": 1, "a1": 2, "ainf": 3}
    ypts = {"a2": pt(2), "am1": pt(-1), "am2": pt(-2), "a1": pt(1), "ainf": INF}
    zpts = {"b2": pt(2), "bm2": pt(-2), "binf": INF}
    if extended:
        # the fiber of -286/343 splits rationally: 11/7, 2/7, -13/7
        fmap.update({"q1": "bq", "q2": "bq", "q3": "bq"})
        deg.update({"q1": 1, "q2": 1, "q3": 1})
        ypts.update({"q1": pt(Fraction(11, 7)), "q2": pt(Fraction(2, 7)),
                     "q3": pt(Fraction(-13, 7))})
        zpts["bq"] = pt(Fraction(-286, 343))
    portrait = Portrait.make(fmap, deg, 3)
    msc = MarkedSphereCover(f, MarkedSphere.make(ypts), MarkedSphere.make(zpts))
    return cover_from_marked(msc, portrait), portrait


# ---------------------------------------------------------------------------
# degenerating cover families


def degenerate_family_two_vertex() -> CoverFamily:
    """f(z) = z(z - eps) with the fibers of 0, the critical value, inf, 1."""
    portrait = Portrait.make(
        {"y0": "c0", "ye": "c0", "yc": "c1", "yinf": "cinf", "y1": "c2", "ym": "c2"},
        {"y0": 1, "ye": 1, "yc": 2, "yinf": 2, "y1": 1, "ym": 1}, 2)
    y_family = LaurentFamily.make({
        "y0": lconst(0),
        "ye": lpoly([(1, gr(1))]),
        "yc": lpoly([(1, gr("1/2"))]),
        "yinf": LINF,
        "y1": lconst(1),
        "ym": lpoly([(0, gr(-1)), (1, gr(1))]),
    })
    z_family = LaurentFamily.make({
        "c0": lconst(0),
        "c1": lpoly([(2, gr("-1/4"))]),
        "cinf": LINF,
        "c2": lpoly([(0, gr(1)), (1, gr(-1))]),
    })
    map_family = LaurentMap.make(
        [LaurentPoly.make([]), LaurentPoly.make([(1, gr(-1))]), LaurentPoly.constant(gr(1))],
        [LaurentPoly.constant(gr(1))])
    return CoverFamily.make(portrait, y_family, z_family, map_family)


def degenerate_family_symmetric() -> CoverFamily:
    """f(z) = z^2 with the fiber of eps^2 marked: two-vertex source."""
    portrait = Portrait.make(
        {"y0": "c0", "yinf": "cinf", "y1": "c1", "ym1": "c1", "ye": "c2", "yme": "c2"},
        {"y0": 2, "yinf": 2, "y1": 1, "ym1": 1, "ye": 1, "yme": 1}, 2)
    y_family = LaurentFamily.make({
        "y0": lconst(0), "yinf": LINF, "y1": lconst(1), "ym1": lconst(-1),
        "ye": lpoly([(1, gr(1))]), "yme": lpoly([(1, gr(-1))]),
    })
    z_family = LaurentFamily.make({
        "c0": lconst(0), "cinf": LINF, "c1": lconst(1),
        "c2": lpoly([(2, gr(1))]),
    })
    map_family = LaurentMap.make(
        [LaurentPoly.make([]), LaurentPoly.make([]), LaurentPoly.constant(gr(1))],
        [LaurentPoly.constant(gr(1))])
    return CoverFamily.make(portrait, y_family, z_family, map_family)


def degenerate_family_three_vertex() -> CoverFamily:
    """f(z) = z(z - eps^2) with the fiber of f(eps) also marked."""
    portrait = Portrait.make(
        {"y0": "c0", "yb": "c0", "yc": "c1", "yinf": "cinf",
         "y1": "c2", "ym": "c2", "ye": "c3", "yd": "c3"},
        {"y0": 1, "yb": 1, "yc": 2, "yinf": 2, "y1": 1, "ym": 1, "ye": 1, "yd": 1}, 2)
    y_family = LaurentFamily.make({
        "y0": lconst(0),
        "yb": lpoly([(2, gr(1))]),
        "yc": lpoly([(2, gr("1/2"))]),
        "yinf": LINF,
        "y1": lconst(1),
        "ym": lpoly([(0, gr(-1)), (2, gr(1))]),
        "ye": lpoly([(1, gr(1))]),
        "yd": lpoly([(1, gr(-1)), (2, gr(1))]),
    })
    z_family = LaurentFamily.make({
        "c0": lconst(0),
        "c1": lpoly([(4, gr("-1/4"))]),
        "cinf": LINF,
        "c2": lpoly([(0, gr(1)), (2, gr(-1))]),
        "c3": lpoly([(2, gr(1)), (3, gr(-1))]),
    })
    map_family = LaurentMap.make(
        [LaurentPoly.make([]), LaurentPoly.make([(2, gr(-1))]), LaurentPoly.constant(gr(1))],
        [LaurentPoly.constant(gr(1))])
    return CoverFamily.make(portrait, y_family, z_family, map_family)


def degenerate_family_split_fiber() -> CoverFamily:
    """f(z) = (z^2 + eps^2)/z: two limit vertices fold onto one target vertex.

    The poles 0 and infinity collide with the critical points +-(i eps); the
    limit source is a chain whose outer vertices both map with degree one to
    the outer target vertex, so the limit vertex map is not injective.
    """
    portrait = Portrait.make(
        {"yp": "cp", "ym": "cm", "y0": "cinf", "yinf": "cinf", "yq": "cq", "yr": "cq"},
        {"yp": 2, "ym": 2, "y0": 1, "yinf": 1, "yq": 1, "yr": 1}, 2)
    y_family = LaurentFamily.make({
        "yp": lpoly([(1, gr(1))]),        # eps
        "ym": lpoly([(1, gr(-1))]),       # -eps
        "y0": lconst(0),
        "yinf": LINF,
        "yq": lconst(1),
        "yr": lpoly([(2, gr(1))]),        # eps^2
    })
    z_family = LaurentFamily.make({
        "cp": lpoly([(1, gr(2))]),        # 2 eps
        "cm": lpoly([(1, gr(-2))]),
        "cinf": LINF,
        "cq": lpoly([(0, gr(1)), (2, gr(1))]),  # 1 + eps^2
    })
    map_family = LaurentMap.make(
        [LaurentPoly.make([(2, gr(1))]), LaurentPoly.make([]), LaurentPoly.constant(gr(1))],
        [LaurentPoly.make([]), LaurentPoly.constant(gr(1))])
    return CoverFamily.make(portrait, y_family, z_family, map_family)


def degenerate_family_double_fold() -> CoverFamily:
    """(z^2 + eps^2)/z with the fiber of f(eps^3) also marked.

    The extra fiber {eps^3, 1/eps} adds a rescaling vertex on each side, so
    the limit source is a five-vertex chain folding pairwise onto a
    three-vertex target; one marked path has negative valuation.
    """
    portrait = Portrait.make(
        {"yp": "cp", "ym": "cm", "y0": "cinf", "yinf": "cinf",
         "yq": "cq", "yr": "cq", "yd": "cd", "ydp": "cd"},
        {"yp": 2, "ym": 2, "y0": 1, "yinf": 1, "yq": 1, "yr": 1,
         "yd": 1, "ydp": 1}, 2)
    y_family = LaurentFamily.make({
        "yp": lpoly([(1, gr(1))]),
        "ym": lpoly([(1, gr(-1))]),
        "y0": lconst(0),
        "yinf": LINF,
        "yq": lconst(1),
        "yr": lpoly([(2, gr(1))]),
        "yd": lpoly([(3, gr(1))]),
        "ydp": lpoly([(-1, gr(1))]),
    })
    z_family = LaurentFamily.make({
        "cp": lpoly([(1, gr(2))]),
        "cm": lpoly([(1, gr(-2))]),
        "cinf": LINF,
        "cq": lpoly([(0, gr(1)), (2, gr(1))]),
        "cd": lpoly([(-1, gr(1)), (3, gr(1))]),
    })
    map_family = LaurentMap.make(
        [LaurentPoly.make([(2, gr(1))]), LaurentPoly.make([]), LaurentPoly.constant(gr(1))],
        [LaurentPoly.make([]), LaurentPoly.constant(gr(1))])
    return CoverFamily.make(portrait, y_family, z_family, map_family)


def z_squared_chain_family(centres) -> CoverFamily:
    """z^2 with the fibers over (c_j + eps^k_j)^2 marked.

    Paths sharing a centre get k = 1, 2, ... and collide at different scales;
    a path centred at 0 collides with the critical point.  Repeated centres
    make the limit source a chain that reconstruction peels level by level.
    """
    fmap = {"c0": "t0", "cinf": "tinf"}
    degmap = {"c0": 2, "cinf": 2}
    y_paths = {"c0": lconst(0), "cinf": LINF}
    z_paths = {"t0": lconst(0), "tinf": LINF}
    seen: dict = {}
    for j, c in enumerate(centres):
        seen[c] = seen.get(c, 0) + 1
        p = LaurentPoly.make([(0, gr(c)), (seen[c], gr(1))])
        z_paths[f"w{j}"] = LaurentPoint.from_poly(p * p)
        for y, sign in ((f"y{j}p", 1), (f"y{j}m", -1)):
            y_paths[y] = LaurentPoint.from_poly(p.scale(gr(sign)))
            fmap[y], degmap[y] = f"w{j}", 1
    return CoverFamily.make(Portrait.make(fmap, degmap, 2), LaurentFamily.make(y_paths),
                            LaurentFamily.make(z_paths), LaurentMap.from_exact(z_squared_map()))


def branching_cubic_cover():
    """Hand-built degree-3 cover whose source is a four-vertex chain.

    Vertices 0 and 2 lie over the first peeled target vertex, so the first
    peel leaves two components, both over the other target vertex; the mid
    vertices carry the maps w(w-2)/3 and 3w^2/(4-w^2).
    """
    from sphere_trees.covers import TreeCover

    src_shape = MarkedTree.make(
        ["a0", "a1", "a3", "c2a", "c2b", "c3", "c4",
         "b0", "b1", "b1p", "b3", "d2", "d3", "d4"],
        [0, 1, 2, 3],
        [("a0", 0), ("a1", 0), ("a3", 0), (0, 1),
         ("c2a", 1), ("c2b", 1), ("c3", 1), ("c4", 1), (1, 2),
         ("b0", 2), ("b1", 2), ("b1p", 2), ("b3", 2), (2, 3),
         ("d2", 3), ("d3", 3), ("d4", 3)])
    source = TreeOfSpheres.make(src_shape, {
        0: {"a0": pt(0), "a1": pt(1), "a3": pt(-3), 1: INF},
        1: {0: pt(0), 2: pt(2), "c2a": pt(3), "c2b": pt(-1),
            "c3": INF, "c4": pt(1)},
        2: {"b0": pt(0), "b1": pt(1), "b1p": pt(-1), 1: pt(2),
            3: pt(-2), "b3": INF},
        3: {2: pt(0), "d2": pt(1), "d3": INF, "d4": pt(Fraction(-1, 3))},
    })
    tgt_shape = MarkedTree.make(
        ["z0", "z1", "zm3", "z2", "z3", "z4"], [0, 1],
        [("z0", 0), ("z1", 0), ("zm3", 0), (0, 1),
         ("z2", 1), ("z3", 1), ("z4", 1)])
    target = TreeOfSpheres.make(tgt_shape, {
        0: {"z0": pt(0), "z1": pt(1), "zm3": pt(-3), 1: INF},
        1: {0: pt(0), "z2": pt(1), "z3": INF, "z4": pt(Fraction(-1, 3))},
    })
    vertex_map = {
        0: 0, 1: 1, 2: 0, 3: 1,
        "a0": "z0", "b0": "z0", "a1": "z1", "b1": "z1", "b1p": "z1",
        "a3": "zm3", "b3": "zm3", "c2a": "z2", "c2b": "z2", "d2": "z2",
        "c3": "z3", "d3": "z3", "c4": "z4", "d4": "z4",
    }
    identity = RationalMap.from_coeffs([gr(0), gr(1)], [gr(1)])
    maps = {
        0: identity,
        1: RationalMap.from_coeffs([gr(0), gr("-2/3"), gr("1/3")], [gr(1)]),
        2: RationalMap.from_coeffs([gr(0), gr(0), gr(-3)], [gr(-4), gr(0), gr(1)]),
        3: identity,
    }
    return TreeCover.make(source, target, vertex_map, maps)


def degenerate_family_extra_fiber() -> CoverFamily:
    """The two-vertex family with the fiber of f(2) = 4 - 2 eps also marked."""
    base = degenerate_family_two_vertex()
    fmap = dict(base.portrait.fmap)
    deg = dict(base.portrait.degmap)
    fmap.update({"p2": "c4", "pm": "c4"})
    deg.update({"p2": 1, "pm": 1})
    portrait = Portrait.make(fmap, deg, 2)
    ypaths = {x: p for x, p in base.y_family.paths}
    ypaths["p2"] = lconst(2)
    ypaths["pm"] = lpoly([(0, gr(-2)), (1, gr(1))])  # eps - 2
    zpaths = {x: p for x, p in base.z_family.paths}
    zpaths["c4"] = lpoly([(0, gr(4)), (1, gr(-2))])
    return CoverFamily.make(portrait, LaurentFamily.make(ypaths),
                            LaurentFamily.make(zpaths), base.map_family)


@pytest.fixture(scope="session")
def cover_corpus() -> list:
    """At least 20 valid covers: degrees 2 and 3, one to three source vertices."""
    covers = [z_squared_cover()[0]]
    for c in (gr(2), gr(3), gr("1/2"), gr(-2), gr(0, 1), gr(5),
              gr("-1/3"), gr("3/2"), gr("5/2"), gr(2, 1), gr("7/3"), gr("5/3")):
        covers.append(z_squared_fiber_cover(c)[0])
    covers.append(chebyshev_cover()[0])
    covers.append(chebyshev_cover(extended=True)[0])
    covers.append(branching_cubic_cover())
    for fam in (degenerate_family_two_vertex(), degenerate_family_symmetric(),
                degenerate_family_three_vertex(), degenerate_family_extra_fiber(),
                degenerate_family_split_fiber(), degenerate_family_double_fold()):
        covers.append(limit_cover(fam))
    # Moebius twists of multi-vertex covers are new representatives of the
    # same classes; keep a couple to exercise validation off the canonical charts
    from sphere_trees.covers import TreeCover
    from sphere_trees.moduli import twist
    rng = random.Random(7)
    for cover in covers[-4:-2]:
        m = {v: random_moebius(rng) for v in cover.source.shape.internal}
        twisted_source = twist(cover.source, m)
        maps = {v: cover.map_at(v).precompose(m[v].inverse())
                for v in cover.source.shape.internal}
        covers.append(TreeCover.make(twisted_source, cover.target, cover.vm, maps))
    return covers


# eps-dependent and constant Moebius twists: (source, target, k) applies eps -> eps^k,
# then moves source paths by `source` and target paths by `target`
EPS, ONE = LaurentPoly.eps(), LaurentPoly.constant(gr(1))
ZERO = LaurentPoly.make([])
# z -> eps z + 1 and z -> (z + eps) / (eps^2 z + 1 - i)
AFFINE = LaurentMoebius.make(EPS, ONE, ZERO, ONE)
FRACTIONAL = LaurentMoebius.make(ONE, EPS, LaurentPoly.eps(2), LaurentPoly.constant(gr(1, -1)))
IDENTITY = LaurentMoebius.make(ONE, ZERO, ZERO, ONE)
CONSTANT_A = LaurentMoebius.from_constant(Moebius.make(gr(2), gr(1), gr(1), gr(1)))
CONSTANT_B = LaurentMoebius.from_constant(Moebius.make(gr(0, 1), gr(-1), gr(1), gr(3)))
TWISTS = [
    (CONSTANT_A, CONSTANT_B, 1),
    (IDENTITY, IDENTITY, 2),
    (IDENTITY, IDENTITY, 3),
    (AFFINE, IDENTITY, 1),
    (IDENTITY, FRACTIONAL, 1),
    (FRACTIONAL, AFFINE, 1),
    (AFFINE, AFFINE, 1),
    (FRACTIONAL, CONSTANT_B, 2),
    (CONSTANT_A, AFFINE, 2),
]


def random_gaussian(rng: random.Random) -> GaussianRational:
    return gr(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 4)))


def random_laurent(rng: random.Random) -> LaurentPoly:
    """0-3 terms at exponents -2..2."""
    return LaurentPoly.make([(rng.randint(-2, 2), random_gaussian(rng))
                             for _ in range(rng.randint(0, 3))])


def random_laurent_moebius(rng: random.Random) -> LaurentMoebius:
    """A Moebius family with random_laurent entries, redrawn until nonsingular."""
    while True:
        try:
            return LaurentMoebius.make(*(random_laurent(rng) for _ in range(4)))
        except ValueError:
            continue


def twisted_cover_family(fam: CoverFamily, source: LaurentMoebius, target: LaurentMoebius,
                         k: int = 1) -> CoverFamily:
    """The family with eps -> eps^k, then source paths moved by `source`,
    target paths by `target`, and the map conjugated to match."""
    f = LaurentMap.make([c.substitute_power(k) for c in fam.map_family.num],
                        [c.substitute_power(k) for c in fam.map_family.den])
    f = f.precompose(source.inverse()).postcompose(target)
    y = {x: source.apply(p.substitute_power(k)) for x, p in fam.y_family.paths}
    z = {x: target.apply(p.substitute_power(k)) for x, p in fam.z_family.paths}
    return CoverFamily.make(fam.portrait, LaurentFamily.make(y), LaurentFamily.make(z), f)


# collision centres of z_squared_chain_family: source chains of depth 3, 4 and 6
CHAIN_CENTRES = [(0, 0, 1), (1, 1, 0), (1, 1, 2, 2, 0, 3, 4)]
