"""Seeded input generators for the benchmark workloads.

Everything here is built through the public API of ``sphere_trees``; the
program under test only ever receives the values these functions return.
The same ``random.Random`` state always yields the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sphere_trees.errors import CollisionAtEpsilon
from sphere_trees import (
    CoverFamily,
    LaurentFamily,
    LaurentMap,
    LaurentMoebius,
    LaurentPoint,
    LaurentPoly,
    MarkedTree,
    Moebius,
    Portrait,
    ProjPoint,
    RationalMap,
    TreeOfSpheres,
    gr,
)
from sphere_trees.trees import edge_of, neighbors

# Distinct exact points with small numerators and denominators, plus infinity.
POINT_POOL = sorted(
    {ProjPoint.infinity()} | {
        ProjPoint.of(gr(Fraction(a, b), Fraction(c, d)))
        for a in range(-3, 4) for b in (1, 2, 3)
        for c in (-1, 0, 1, 2) for d in (1, 2)
    },
    key=ProjPoint.sort_key,
)

# d-th roots of unity that lie in Q(i), for the cover degrees used here.
ROOTS_OF_UNITY = {
    2: (gr(1), gr(-1)),
    4: (gr(1), gr(0, 1), gr(-1), gr(0, -1)),
}


def random_shape(labels: list[str], rng: random.Random) -> MarkedTree:
    """A stable tree grown by random leaf insertion.

    Each new label is attached at a uniformly chosen internal vertex or
    subdivides a uniformly chosen edge: the move ``enumerate_stable_trees``
    uses, sampled instead of enumerated.
    """
    first = labels[:3]
    internal = {0}
    edges = {edge_of(x, 0) for x in first}
    leaves = set(first)
    for x in labels[3:]:
        options = sorted(internal) + sorted(
            edges, key=lambda e: tuple(sorted(map(str, e))))
        pick = options[rng.randrange(len(options))]
        if isinstance(pick, int):
            edges.add(edge_of(x, pick))
        else:
            a, b = tuple(pick)
            fresh = max(internal) + 1
            edges.discard(pick)
            edges |= {edge_of(a, fresh), edge_of(fresh, b), edge_of(x, fresh)}
            internal.add(fresh)
        leaves.add(x)
    return MarkedTree.make(leaves, internal, edges)


def random_marking(shape: MarkedTree, rng: random.Random) -> TreeOfSpheres:
    """Mark each internal vertex by distinct points drawn from the pool."""
    marking = {}
    for v in sorted(shape.internal):
        ns = neighbors(shape, v)
        marking[v] = dict(zip(ns, rng.sample(POINT_POOL, len(ns))))
    return TreeOfSpheres.make(shape, marking)


def random_tree(n: int, rng: random.Random, internal: int | None = None) -> TreeOfSpheres:
    """A marked random tree; with ``internal``, shapes are drawn until one has
    that many internal vertices, which conditions the insertion on that count."""
    labels = [f"x{i:02d}" for i in range(n)]
    shape = random_shape(labels, rng)
    while internal is not None and len(shape.internal) != internal:
        shape = random_shape(labels, rng)
    return random_marking(shape, rng)


def random_moebius(rng: random.Random) -> Moebius:
    while True:
        a, b, c, d = (gr(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(4))
        if not (a * d - b * c).is_zero():
            return Moebius.make(a, b, c, d)


# Collision centres for the fibre paths p_j = a_j + b_j eps^k_j.  No centre
# is a fourth root of unity times another, so distinct fibres never coincide.
CENTRES = (gr(0), gr(1), gr(2, 1), gr(3), gr(1, 3))


def cover_family(d: int, pattern: tuple, rng: random.Random) -> CoverFamily:
    """A degenerating family of ``f = M2 . z^d . M1^-1`` with marked fibres.

    ``pattern[j]`` indexes the centre a_j of the j-th fibre path
    p_j = a_j + b_j eps^k_j; paths sharing a centre get k = 1, 2, ... so they
    collide at different scales, and a path centred at 0 collides with the
    critical point.  The pattern fixes the shape of the limit trees; the
    slopes b_j and the constant Moebius maps M1, M2 are random.

    Source marks: the critical points M1(0) and M1(inf) and the full fibres
    {zeta * p_j : zeta^d = 1}, moved by M1.  Target marks: M2(0), M2(inf)
    and M2(p_j^d).  The map is constant in eps; the marked points degenerate.
    """
    roots = ROOTS_OF_UNITY[d]
    m1, m2 = random_moebius(rng), random_moebius(rng)
    lm1, lm2 = LaurentMoebius.from_constant(m1), LaurentMoebius.from_constant(m2)
    seen: dict[int, int] = {}
    paths, powers = [], []
    for c in pattern:
        seen[c] = seen.get(c, 0) + 1
        b = gr(rng.randint(1, 3), rng.randint(-1, 1))
        p = LaurentPoly.make([(0, CENTRES[c]), (seen[c], b)])
        q = LaurentPoly.constant(gr(1))
        for _ in range(d):
            q = q * p
        paths.append(p)
        powers.append(q)

    zero = LaurentPoint.from_poly(LaurentPoly.constant(gr(0)))
    inf = LaurentPoint.make(LaurentPoly.constant(gr(1)), LaurentPoly.make([]))
    ypaths = {"c0": lm1.apply(zero), "cinf": lm1.apply(inf)}
    zpaths = {"t0": lm2.apply(zero), "tinf": lm2.apply(inf)}
    fmap = {"c0": "t0", "cinf": "tinf"}
    degmap = {"c0": d, "cinf": d}
    for j, (p, q) in enumerate(zip(paths, powers)):
        target = f"t{j:02d}"
        zpaths[target] = lm2.apply(LaurentPoint.from_poly(q))
        for r, zeta in enumerate(roots):
            label = f"y{j:02d}r{r}"
            ypaths[label] = lm1.apply(LaurentPoint.from_poly(p.scale(zeta)))
            fmap[label] = target
            degmap[label] = 1
    power = RationalMap.from_coeffs([gr(0)] * d + [gr(1)], [gr(1)])
    f = power.precompose(m1.inverse()).postcompose(m2)
    return CoverFamily.make(Portrait.make(fmap, degmap, d),
                            LaurentFamily.make(ypaths), LaurentFamily.make(zpaths),
                            LaurentMap.from_exact(f))


def snapshots(fam: LaurentFamily) -> tuple[list[dict], list[float]]:
    """Float snapshots of a family at eps = 1/k, k = 10..200.

    The finitely many parameters at which two members collide are skipped.
    """
    snaps, eps = [], []
    for k in range(10, 201):
        e = Fraction(1, k)
        try:
            sphere = fam.evaluate(e)
        except CollisionAtEpsilon:
            continue
        snap = {}
        for x in sorted(sphere.labels):
            p = sphere.point(x)
            snap[x] = None if p.is_infinity() else p.to_affine().to_complex()
        snaps.append(snap)
        eps.append(float(e))
    return snaps, eps


def coincident_labels(snaps: list[dict]) -> list | None:
    """The first snapshot index and two labels whose float values are equal.

    Distinct exact points can round to the same float once a family has
    degenerated far enough; None when every snapshot keeps its points apart.
    """
    for k, snap in enumerate(snaps):
        seen: dict = {}
        for x, z in snap.items():
            if z in seen:
                return [k, seen[z], x]
            seen[z] = x
    return None
