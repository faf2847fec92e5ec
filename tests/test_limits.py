"""Limit trees of Laurent families, numeric mode, cover limits."""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, islice

import pytest

import conftest
from conftest import (
    AFFINE,
    CHAIN_CENTRES,
    FRACTIONAL,
    INF,
    LINF,
    TWISTS,
    ConstantLimit,
    degenerate_family_split_fiber,
    degenerate_family_three_vertex,
    degenerate_family_two_vertex,
    lconst,
    lpoly,
    oracle_laurent_bracket,
    oracle_laurent_from_three,
    oracle_leading_limit,
    oracle_specialize,
    pt,
    random_laurent,
    random_laurent_moebius,
    random_marking,
    random_moebius,
    random_stable_shape,
    twisted_cover_family,
    z_squared_chain_family,
)
from sphere_trees import limits, trees
from sphere_trees import serialize as ser
from sphere_trees.covers import (
    Portrait,
    TreeCover,
    cover_iso,
    extract_portrait,
    reconstruct_cover,
    validate_cover,
)
from sphere_trees.errors import (
    AdmissibilityFailure,
    CollisionAtEpsilon,
    InconsistentClustering,
    InvalidFamily,
    NotRealizable,
    NotStabilized,
)
from sphere_trees.gaussian import gr
from sphere_trees.laurent import (
    LP_ONE,
    LP_ZERO,
    LaurentMap,
    LaurentPoint,
    LaurentPoly,
)
from sphere_trees.limits import (
    CoverFamily,
    LaurentFamily,
    NumericConfigSequence,
    limit_cover,
    limit_tree,
    numeric_limit_tree,
)
from sphere_trees.moduli import canonical_form, embed, marking_dict, project, sphere_as_tree, spheres_iso
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres, tree_from_charts, vertex_chart
from sphere_trees.plumbing import plumb_family
from sphere_trees.projective import ProjPoint
from sphere_trees.rational import hom_apply, local_degree, poly_mul
from sphere_trees.trees import (
    AdmissibilityViolation,
    MarkedTree,
    is_admissible,
    partition_at,
    partition_sort_key,
    representative_triple,
    tree_from_partitions,
    tree_partitions,
)


def fs(*blocks):
    return frozenset(frozenset(b) for b in blocks)


def dump(t) -> str:
    return ser.canonical_dumps(ser.tree_of_spheres_to_json(t))


def plumbed_family(n: int, form: str, rng: random.Random) -> LaurentFamily:
    """A plumbed family of a random tree on n labels, plain, under a constant
    Moebius twist, or reparametrized by eps -> eps^2."""
    fam = plumb_family(random_marking(random_stable_shape(n, rng), rng))
    if form == "twist":
        fam = fam.twist(random_moebius(rng))
    elif form == "reparametrize":
        fam = fam.reparametrize(2)
    return fam


def random_laurent_family(n: int, rng: random.Random) -> LaurentFamily:
    """n Laurent paths with up to three terms of exponent -2..3 per component."""
    def poly():
        return LaurentPoly.make([(rng.randint(-2, 3), gr(rng.randint(-3, 3), rng.randint(-1, 1)))
                                 for _ in range(rng.randint(0, 3))])
    while True:
        paths = {}
        while len(paths) < n:
            u, v = poly(), poly()
            if not (u.is_zero() and v.is_zero()):
                paths[str(len(paths) + 1)] = LaurentPoint.make(u, v)
        try:
            return LaurentFamily.make(paths)
        except InvalidFamily:  # two paths coincide; draw again
            continue


def oracle_lead_table(fam: LaurentFamily) -> dict:
    """(x, y): (valuation, leading coefficient) of the bracket [p_x, p_y], read off its full
    expansion, for both orders of every pair of labels."""
    lead = {}
    for (x, p), (y, q) in combinations(fam.paths, 2):
        b = oracle_laurent_bracket(p, q)
        val, c = b.valuation(), b.leading()
        lead[(x, y)], lead[(y, x)] = (val, c), (val, -c)
    return lead


def oracle_lead_chart(labels, lead: Mapping, triple: tuple[str, str, str]) -> dict:
    """The limits of the cross-ratios [x, t0][t1, tinf] : [x, tinf][t1, t0] of the chart
    sending the triple to (0, 1, inf), from the brackets' leading terms: valuations add and
    leading coefficients multiply, as Laurent polynomials over Q(i) form a domain."""
    t0, t1, tinf = triple
    (v_num, c_num), (v_den, c_den) = lead[(t1, tinf)], lead[(t1, t0)]
    out = {t0: ProjPoint.of(0), t1: ProjPoint.of(1), tinf: ProjPoint.infinity()}
    for x in labels:
        if x in out:
            continue
        (v0, c0), (vi, ci) = lead[(x, t0)], lead[(x, tinf)]
        vu, vv = v0 + v_num, vi + v_den
        out[x] = ProjPoint.of(0) if vu > vv else ProjPoint.infinity() if vu < vv else \
            ProjPoint.make(c0 * c_num, ci * c_den)
    return out


def per_triple_limit_tree(fam: LaurentFamily):
    """The per-triple engine, kept as an oracle for limit_tree.

    Every triple's limit chart clusters the labels into its fibers; the
    distinct fiber partitions are admissible, and each is marked by the chart
    of the first triple to give it, which is its representative triple.  The
    brackets' leading terms are read off their full expansions.
    """
    labels = sorted(fam.labels)
    lead = oracle_lead_table(fam)
    charts = {}
    for triple in combinations(labels, 3):
        chart = oracle_lead_chart(labels, lead, triple)
        fibers: dict = {}
        for x, q in chart.items():
            fibers.setdefault(q, set()).add(x)
        charts.setdefault(frozenset(map(frozenset, fibers.values())), chart)
    assert is_admissible(charts, frozenset(labels)) is None
    return tree_from_charts(charts)


def oracle_cross_ratio(p0, p1, pinf, p):
    """Four brackets per quadruple, kept as an oracle for limits._cross_ratio_row."""
    def br(a, b):
        return a[0] * b[1] - b[0] * a[1]

    u = br(p, p0) * br(p1, pinf)
    v = br(p, pinf) * br(p1, p0)
    n = max(abs(u), abs(v))
    if n == 0.0:
        return (0j, 0j)
    return (u / n, v / n)


def oracle_bs_extrapolate(eps, values):
    """The full n x n Bulirsch-Stoer tableau of one ladder, cell by cell, the per-ladder
    reference for the cells of limits._window_table."""
    n = len(eps)
    tableau = [[0j] * n for _ in range(n)]
    for i in range(n):
        tableau[i][0] = values[i]
        for k in range(1, i + 1):
            num = tableau[i][k - 1] - tableau[i - 1][k - 1]
            den2 = (tableau[i][k - 1] - tableau[i - 1][k - 2]) if k >= 2 \
                else tableau[i][k - 1]
            if den2 == 0:
                tableau[i][k] = tableau[i][k - 1]
                continue
            d = (eps[i - k] / eps[i]) * (1 - num / den2) - 1
            tableau[i][k] = tableau[i][k - 1] + (num / d if d != 0 else 0)
    return tableau[n - 1][n - 1]


def oracle_extrapolate(eps, pts):
    """One ladder's estimate on the oracle tableau, charted by u / v where |u| <= |v| at its
    first point, else by v / u: the per-ladder reference for limits._label_estimates."""
    u, v = pts[0]
    if abs(u) <= abs(v):
        vals = [p[0] / p[1] for p in pts]
        return limits._numeric_point(oracle_bs_extrapolate(eps, vals))
    vals = [p[1] / p[0] for p in pts]
    w = oracle_bs_extrapolate(eps, vals)
    if w == 0:
        return (1.0 + 0j, 0j)
    return limits._numeric_point(1.0 / w)


def random_coordinate(rng: random.Random, kinds: int = 5):
    """A snapshot coordinate: None, a signed zero, a part up to 1e9, or kinds - 3 in
    kinds a Gaussian of deviation 3."""
    kind = rng.randrange(kinds)
    if kind == 0:
        return None
    if kind == 1:
        return complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
    if kind == 2:
        return complex(rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9))
    return complex(rng.gauss(0, 3), rng.gauss(0, 3))


def one_ladder(eps, pts):
    """limits._label_estimates on one ladder over all of eps, for one label with these points."""
    return limits._label_estimates(eps, [tuple(range(len(eps)))], {},
                                   {i: [p] for i, p in enumerate(pts)}, 0)[0]


def ladder_outcome(eps, ladders, rows, ix) -> str:
    """The per-ladder oracle's outcome for label ix: its estimates; else ZeroDivisionError
    where some ladder's series divides by zero, else the first ladder's InvalidFamily."""
    outs = []
    for idx in ladders:
        try:
            outs.append(oracle_extrapolate([eps[i] for i in idx], [rows[i][ix] for i in idx]))
        except (ZeroDivisionError, InvalidFamily) as exc:
            outs.append(exc)
    errors = [e for e in outs if isinstance(e, Exception)]
    if any(isinstance(e, ZeroDivisionError) for e in errors):
        return "ZeroDivisionError"
    return f"InvalidFamily: {errors[0]}" if errors else repr(outs)


def table_outcome(eps, ladders, tables, rows, ix) -> str:
    """limits._label_estimates' outcome for label ix, in ladder_outcome's terms."""
    try:
        return repr(limits._label_estimates(eps, ladders, tables, rows, ix))
    except ZeroDivisionError:
        return "ZeroDivisionError"
    except InvalidFamily as exc:
        return f"InvalidFamily: {exc}"


def normalized(snap) -> list:
    """A snapshot's checked coordinates as the points numeric_limit_tree charts."""
    return [limits._numeric_point(z) for z in snap]


def per_triple_numeric_limit_tree(seq: NumericConfigSequence):
    """The all-triples numeric engine, kept as an oracle for numeric_limit_tree.

    Every triple's chart is extrapolated; if any quadruple is unsettled the
    sequence is refused, otherwise every chart is clustered and each distinct
    partition is marked by the chart of the first triple to give it.  Every
    snapshot is normalized, though the ladders read only some.
    """
    w = seq.stability_window
    labels = seq.labels
    index = {x: i for i, x in enumerate(labels)}
    if len(seq.snapshots) < w + 1:
        raise NotStabilized("not enough snapshots for the stability window")
    nodes = [limits._ladder_nodes(seq.eps, skip) for skip in range(w)]
    snaps = [normalized(snap) for snap in seq.snapshots]
    limits._refuse_coincident(seq, {i: snaps[i] for node_idx in nodes for i in node_idx})
    ladders = [([seq.eps[i] for i in node_idx], [snaps[i] for i in node_idx])
               for node_idx in nodes]

    unsettled = []
    all_charts = {}
    for triple in combinations(labels, 3):
        i0, i1, i2 = (index[x] for x in triple)
        chart = all_charts[triple] = {}
        for x in labels:
            ix = index[x]
            estimates = []
            for node_eps, node_snaps in ladders:
                series = [
                    oracle_cross_ratio(snap[i0], snap[i1], snap[i2], snap[ix])
                    for snap in node_snaps
                ]
                estimates.append(oracle_extrapolate(node_eps, series))
            if any(limits.chordal(estimates[0], e) > seq.tolerance for e in estimates[1:]):
                unsettled.append((triple, x))
            chart[x] = estimates[0]
    if unsettled:
        raise NotStabilized("quadruples did not settle within tolerance",
                            witness=[list(t) + [x] for t, x in unsettled])

    charts = {}
    for chart in all_charts.values():
        charts.setdefault(limits._cluster(chart, seq.tolerance), chart)
    violation = is_admissible(charts, frozenset(labels))
    if violation is not None:
        raise AdmissibilityFailure("collected partitions are not admissible",
                                   witness=violation)
    shape = tree_from_partitions(charts)
    marking = []
    for i, part in enumerate(sorted(charts, key=partition_sort_key)):
        row = []
        for x in labels:
            u, v = charts[part][x]
            affine = None if abs(v) <= seq.tolerance * abs(u) else u / v
            row.append((x, affine))
        marking.append((i, tuple(row)))
    return limits.NumericTreeOfSpheres(shape, tuple(marking))


def numeric_dump(t) -> str:
    return ser.canonical_dumps(ser.numeric_tree_to_json(t))


def snapshots(fam: LaurentFamily) -> tuple[list[dict], list[float]]:
    """Float snapshots at eps = 1/k, k = 10..200, skipping colliding ones."""
    snaps, eps = [], []
    for k in range(10, 201):
        try:
            sphere = fam.evaluate(Fraction(1, k))
        except CollisionAtEpsilon:
            continue
        points = {x: sphere.point(x) for x in sphere.labels}
        snaps.append({x: None if p.is_infinity() else p.to_affine().to_complex()
                      for x, p in points.items()})
        eps.append(1.0 / k)
    return snaps, eps


@pytest.fixture
def eps_family():
    return LaurentFamily.make({
        "1": lconst(0), "2": lconst(1), "3": LINF, "4": lpoly([(1, gr(1))])})


class TestLimitTree:
    def test_constant_family(self):
        fam = LaurentFamily.make({"1": lconst(0), "2": lconst(1), "3": LINF})
        t = limit_tree(fam)
        expected = sphere_as_tree(MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF}))
        assert spheres_iso(t, expected)

    def test_eps_two_vertex(self, eps_family):
        from sphere_trees.trees import partition_at
        t = limit_tree(eps_family)
        assert tree_partitions(t.shape) == frozenset([
            fs(["1", "4"], ["2"], ["3"]), fs(["1"], ["2", "3"], ["4"])])
        coarse = next(v for v in t.shape.internal
                      if partition_at(t.shape, v) == fs(["1", "4"], ["2"], ["3"]))
        assert marking_dict(t, coarse) == {
            "1": pt(0), "2": pt(1), "3": INF, "4": pt(0)}

    def test_caterpillar_three_vertices(self):
        fam = LaurentFamily.make({
            "1": lconst(0), "2": lconst(1), "3": LINF,
            "4": lpoly([(1, gr(1))]),
            "5": lpoly([(1, gr(1)), (2, gr(1))]),
        })
        t = limit_tree(fam)
        assert len(t.shape.internal) == 3

    @staticmethod
    def assert_embedding_is_quadruple_limits(fam):
        """The oracle: every embedding value of the limit tree is the leading
        value of the full Laurent cross-ratio of that quadruple."""
        from itertools import permutations
        from conftest import laurent_cross_ratio
        from sphere_trees.laurent import laurent_leading_value
        values = embed(limit_tree(fam))
        paths = dict(fam.paths)
        for triple in permutations(sorted(paths), 3):
            for x in sorted(paths):
                cr = laurent_cross_ratio(paths[triple[0]], paths[triple[1]],
                                         paths[triple[2]], paths[x])
                assert values[(triple, x)] == laurent_leading_value(cr), (triple, x)

    def test_embedding_agrees_with_quadruple_limits(self, eps_family):
        self.assert_embedding_is_quadruple_limits(eps_family)

    @pytest.mark.parametrize("n", range(5, 10))
    @pytest.mark.parametrize("form", ["plain", "twist", "reparametrize"])
    def test_embedding_agrees_with_quadruple_limits_on_plumbed_families(self, n, form):
        self.assert_embedding_is_quadruple_limits(
            plumbed_family(n, form, random.Random(f"{n}-{form}")))

    def test_expands_no_laurent_product(self, monkeypatch):
        # the brackets' leading terms are read from the lowest terms up
        n = 12
        fam = plumbed_family(n, "twist", random.Random(12))
        calls = []
        mul = LaurentPoly.__mul__

        def counted(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        limit_tree(fam)
        assert calls == []

    @staticmethod
    def assert_series_split_at_the_brackets(fam):
        # two paths' series in the trie's chart agree up to their bracket's valuation, so the
        # trie's balls are the bracket ultrametric's
        lead = oracle_lead_table(fam)
        depth = {x: 1 + max(lead[x, y][0] for y in fam.labels - {x}) for x in fam.labels}
        series = {x: list(islice(it, depth[x])) for x, it in limits._series(fam.paths)[0].items()}
        for x, y in combinations(sorted(fam.labels), 2):
            v = lead[x, y][0]
            assert series[x][:v] == series[y][:v] and series[x][v] != series[y][v], (x, y)

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("form", ["plain", "twist", "reparametrize"])
    def test_series_split_at_the_brackets_on_plumbed_families(self, n, form):
        self.assert_series_split_at_the_brackets(
            plumbed_family(n, form, random.Random(f"lead-{n}-{form}")))

    def test_series_split_at_the_brackets_on_random_laurent_families(self):
        rng = random.Random("lead-laurent")
        for n in range(3, 11):
            self.assert_series_split_at_the_brackets(random_laurent_family(n, rng))
        for paths in corner_families().values():
            self.assert_series_split_at_the_brackets(LaurentFamily.make(paths))

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_series_are_read_once_when_the_family_is_made(self, monkeypatch, n):
        fam = plumbed_family(n, "twist", random.Random(f"once-{n}"))
        calls = counted_coefficients(monkeypatch)
        made = LaurentFamily.make(dict(fam.paths))
        assert len(calls) == n
        calls.clear()
        assert dump(limit_tree(made)) == dump(limit_tree(fam))
        assert calls == []

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_one_chart_per_vertex(self, monkeypatch, n):
        fam = plumbed_family(n, "twist", random.Random(f"charts-{n}"))
        calls = []
        chart = limits._limit_chart

        def counted(*args):
            calls.append(None)
            return chart(*args)

        monkeypatch.setattr(limits, "_limit_chart", counted)
        t = limit_tree(fam)
        assert len(calls) == len(t.shape.internal)

    @pytest.mark.parametrize("n", [4, 12, 32])
    def test_every_check_runs_once_per_tree(self, monkeypatch, n):
        # admissibility, which certifies the shape stable without a walk, and each row's
        # injectivity: the last hashes every edge point once, and nothing else in
        # limit_tree hashes a point
        fam = plumbed_family(n, "twist", random.Random(f"checks-{n}"))
        calls = []

        def count(owner, name, wrap=lambda f: f):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, wrap(lambda *a: calls.append(name) or f(*a)))

        count(trees, "_admissibility")
        count(trees, "validate_tree")
        count(TreeOfSpheres, "_assembled", staticmethod)
        count(ProjPoint, "__hash__")
        t = limit_tree(fam)
        assert calls.count("_admissibility") == 1 and calls.count("validate_tree") == 0
        assert calls.count("_assembled") == 1
        assert calls.count("__hash__") == sum(len(row) for _, row in t.marking)

    def test_forgetting_labels_commutes_with_the_limit(self):
        # the continuity of the forgetful map: the limit of the family restricted to a
        # subset of its labels is the projection of the family's limit to that subset
        rng = random.Random("forget")
        for k in range(60):
            n = 5 + k % 10
            fam = plumbed_family(n, "twist" if k // 10 % 2 else "plain", rng)
            sub = rng.sample(sorted(fam.labels), rng.randint(3, n))
            restricted = LaurentFamily.make({x: fam.path(x) for x in sub})
            assert spheres_iso(limit_tree(restricted), project(limit_tree(fam), sub)), (n, sub)

    def test_reparametrization_invariance(self, eps_family):
        assert spheres_iso(limit_tree(eps_family),
                           limit_tree(eps_family.reparametrize(2)))

    def test_global_moebius_invariance(self, eps_family):
        rng = random.Random(3)
        m = random_moebius(rng)
        assert spheres_iso(limit_tree(eps_family), limit_tree(eps_family.twist(m)))


def renamed_family(fam: LaurentFamily, sigma: dict) -> LaurentFamily:
    return LaurentFamily.make({sigma[x]: p for x, p in fam.paths})


def renamed_spheres(t: TreeOfSpheres, sigma: dict) -> TreeOfSpheres:
    """t with each label x renamed sigma[x]; internal ids and points are kept."""
    def rn(v):
        return sigma.get(v, v)
    shape = MarkedTree.make(map(rn, t.shape.leaves), t.shape.internal,
                            [map(rn, e) for e in t.shape.edges])
    return TreeOfSpheres.make(shape, {v: {rn(n): p for n, p in row} for v, row in t.marking})


def shuffled(labels, rng: random.Random) -> dict:
    """A random permutation of the labels, as a renaming."""
    labels = sorted(labels)
    return dict(zip(labels, rng.sample(labels, len(labels))))


class TestRenaming:
    """The exact engine reads label order: the smallest label anchors its charts,
    triples are representative and ids are ranked.  Renaming the labels must still
    rename the result and nothing more."""

    @pytest.mark.parametrize("form", ["plain", "twist", "reparametrize"])
    @pytest.mark.parametrize("seed", range(10))
    def test_limits_and_projections_commute_with_renaming(self, form, seed):
        rng = random.Random(f"rename-{form}-{seed}")
        for n in range(6, 25):
            fam = plumbed_family(n, form, rng)
            sigma = shuffled(fam.labels, rng)
            limit = limit_tree(fam)
            renamed, expected = limit_tree(renamed_family(fam, sigma)), renamed_spheres(limit, sigma)
            assert spheres_iso(renamed, expected), (n, sigma)
            assert canonical_form(renamed) == canonical_form(expected), (n, sigma)
            sub = rng.sample(sorted(fam.labels), rng.randint(3, n))
            projected = project(renamed, [sigma[x] for x in sub])
            expected = renamed_spheres(project(limit, sub), sigma)
            assert spheres_iso(projected, expected), (n, sigma, sub)
            assert canonical_form(projected) == canonical_form(expected), (n, sigma, sub)

    @pytest.mark.parametrize("make_family", [
        degenerate_family_two_vertex, conftest.degenerate_family_symmetric,
        degenerate_family_three_vertex, conftest.degenerate_family_extra_fiber,
        degenerate_family_split_fiber, conftest.degenerate_family_double_fold])
    def test_limit_covers_commute_with_renaming(self, make_family):
        rng = random.Random(make_family.__name__)
        fam = make_family()
        limit = limit_cover(fam)
        for _ in range(5):
            sy, sz = shuffled(fam.y_family.labels, rng), shuffled(fam.z_family.labels, rng)
            p = fam.portrait
            portrait = Portrait.make({sy[y]: sz[z] for y, z in p.fmap},
                                     {sy[y]: k for y, k in p.degmap}, p.d)
            renamed = limit_cover(CoverFamily.make(portrait, renamed_family(fam.y_family, sy),
                                                   renamed_family(fam.z_family, sz),
                                                   fam.map_family))
            expected = TreeCover.make(
                renamed_spheres(limit.source, sy), renamed_spheres(limit.target, sz),
                {sy.get(a, a): sz.get(b, b) for a, b in limit.vertex_map}, dict(limit.maps))
            assert validate_cover(expected, portrait) == []
            assert cover_iso(renamed, expected) and cover_iso(expected, renamed), (sy, sz)


class TestEnginesAgree:
    """limit_tree against the per-triple engine, byte for byte."""

    @pytest.mark.parametrize("n", range(4, 15))
    @pytest.mark.parametrize("form", ["plain", "twist", "reparametrize"])
    def test_plumbed_families(self, n, form):
        rng = random.Random(f"engines-{n}-{form}")
        for _ in range(3):
            fam = plumbed_family(n, form, rng)
            assert dump(limit_tree(fam)) == dump(per_triple_limit_tree(fam))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_random_laurent_families(self, n):
        rng = random.Random(f"engines-laurent-{n}")
        sizes = set()
        for _ in range(12):
            fam = random_laurent_family(n, rng)
            t = limit_tree(fam)
            assert dump(t) == dump(per_triple_limit_tree(fam))
            sizes.add(len(t.shape.internal))
        assert n == 3 or max(sizes) > 1


def laurent_path(u: list, v: list = ((0, 1),)) -> LaurentPoint:
    """(u : v) from [(exponent, coefficient), ...] lists of integer or gr coefficients."""
    return LaurentPoint.make(*(LaurentPoly.make([(e, gr(c) if isinstance(c, int) else c)
                                                 for e, c in terms]) for terms in (u, v)))


def corner_families() -> dict:
    """Families at the corners of the coefficient trie: paths tending to infinity while 0, 1
    and 2 are limits too (the chart (u : v) -> (v : u - 3 v)), every path with one limit,
    finite or infinite, a top ball in two groups, at depth 0 or deeper, with a lone
    label, or with the paths at infinity as one group, and pairs that split only at the sum
    of their top exponents: 1 / (1 - eps^k) against 1 + eps^k + ..., their bracket a power
    of eps."""
    eps = [(1, 1)]
    return {
        "infinity-after-0-1-2": {
            "a": laurent_path([]), "b": laurent_path(eps), "c": laurent_path([(0, 1)]),
            "d": laurent_path([(0, 1), (1, 1)]), "e": laurent_path([(0, 2)]),
            "f": laurent_path([(0, 2), (2, 1)]), "g": laurent_path([(0, 1)], []),
            "h": laurent_path([(0, 1)], eps), "i": laurent_path([(0, 1)], [(1, 2)])},
        "infinity-after-0-1-2-deep": {
            "a": laurent_path([]), "b": laurent_path([(0, 1)]), "c": laurent_path([(0, 2)]),
            "d": laurent_path([(0, 1)], [(2, 1)]), "e": laurent_path([(0, 1)], [(2, 1), (3, 1)]),
            "f": laurent_path([(0, 1), (1, 5)], [(2, 1), (3, -1)])},
        "one-limit": {
            "a": laurent_path([(0, 1)]), "b": laurent_path([(0, 1), (1, 1)]),
            "c": laurent_path([(0, 1), (1, 2)]), "d": laurent_path([(0, 1), (1, 1), (2, 1)]),
            "e": laurent_path([(0, 1), (3, 1)])},
        "one-limit-infinity": {
            "a": laurent_path([(0, 1)], []), "b": laurent_path([(0, 1)], eps),
            "c": laurent_path([(0, 1)], [(1, 2)]), "d": laurent_path([(0, 1)], [(1, 1), (2, 1)]),
            "e": laurent_path([(0, 1), (1, 1)], [(3, 1)])},
        "top-two": {
            "a": laurent_path([]), "b": laurent_path(eps), "c": laurent_path([(1, 2)]),
            "d": laurent_path([(0, 1)]), "e": laurent_path([(0, 1), (1, 1)]),
            "f": laurent_path([(0, 1), (1, 2)])},
        "top-two-lone": {
            "a": laurent_path([]), "b": laurent_path([(0, 1)]), "c": laurent_path([(0, 1), (1, 1)]),
            "d": laurent_path([(0, 1), (1, 2)])},
        "top-two-deep": {
            "a": laurent_path([(0, 1)]), "b": laurent_path([(0, 1), (3, 1)]),
            "c": laurent_path([(0, 1), (3, 2)]), "d": laurent_path([(0, 1), (2, 1)]),
            "e": laurent_path([(0, 1), (2, 1), (3, 1)]), "f": laurent_path([(0, 1), (2, 1), (3, 2)])},
        "top-two-infinity": {
            "a": laurent_path([]), "b": laurent_path(eps), "c": laurent_path([(1, 2)]),
            "d": laurent_path([(0, 1)], []), "e": laurent_path([(0, 1)], eps),
            "f": laurent_path([(0, 1)], [(1, 2)])},
        "split-at-the-degree-bound": {
            "a": laurent_path([(0, 1)], [(0, 1), (1, -1)]), "b": laurent_path([(0, 1), (1, 1)]),
            "c": laurent_path([(0, 1), (1, 1), (2, 1), (3, 1)]),
            "d": laurent_path([(0, 1)], [(0, 1), (2, -1)]), "e": laurent_path([(0, 1), (2, 1)]),
            "f": laurent_path([])},
    }


def random_corner_family(n: int, rng: random.Random) -> LaurentFamily:
    """n paths b + x eps + y eps^2, b in {0, 1, 2, i}, or (1 : x eps + y eps^2), x and y in
    -1..1: limits at 0, 1, 2 and infinity, and long shared prefixes."""
    while True:
        paths = {}
        for k in range(n):
            x, y = rng.randint(-1, 1), rng.randint(-1, 1)
            base = rng.choice([0, 1, 2, gr(0, 1), None])
            if base is None:
                paths[f"p{k}"] = laurent_path([(0, 1)], [(1, x), (2, y)])
            else:
                paths[f"p{k}"] = laurent_path([(0, base), (1, x), (2, y)])
        try:
            return LaurentFamily.make(paths)
        except InvalidFamily:  # two paths coincide; draw again
            continue


class TestTrieCorners:
    """limit_tree against the per-triple engine where the coefficient trie turns a corner."""

    @pytest.mark.parametrize("name", list(corner_families()))
    def test_corner_families(self, name):
        fam = LaurentFamily.make(corner_families()[name])
        t = limit_tree(fam)
        assert dump(t) == dump(per_triple_limit_tree(fam))
        if name.startswith("top-two") and name != "top-two-lone":
            assert len(t.shape.internal) == 2

    def test_random_corner_families(self):
        rng = random.Random("trie-corners")
        for _ in range(60):
            fam = random_corner_family(rng.randint(3, 9), rng)
            assert dump(limit_tree(fam)) == dump(per_triple_limit_tree(fam))


def planted_coincidences(rng: random.Random) -> dict:
    """Distinct corner paths under shuffled names, with two or three groups of further
    labels planted on some of them, each a copy of its path times a common factor 1 + k eps
    or 2 - eps^2 (so not equal as stored)."""
    fam = random_corner_family(rng.randint(3, 7), rng)
    names = rng.sample([f"{c}{k}" for c in "abcdefgh" for k in range(3)], 24)
    paths = {names.pop(): p for _, p in fam.paths}
    for x in rng.sample(sorted(paths), rng.randint(2, min(3, len(paths)))):
        for _ in range(rng.randint(1, 2)):
            w = LaurentPoly.make(rng.choice([[(0, gr(1)), (1, gr(rng.randint(1, 3)))],
                                             [(0, gr(2)), (2, gr(-1))]]))
            paths[names.pop()] = LaurentPoint.make(paths[x].u * w, paths[x].v * w)
    return paths


def test_planted_coincidences_name_the_least_pair():
    rng = random.Random("planted-coincidences")
    for _ in range(40):
        paths = planted_coincidences(rng)
        x, y = min((x, y) for x, y in combinations(sorted(paths), 2)
                   if oracle_laurent_bracket(paths[x], paths[y]).is_zero())
        with pytest.raises(InvalidFamily) as info:
            LaurentFamily.make(paths)
        assert (str(info.value), info.value.witness) == (f"paths of {x!r} and {y!r} coincide", [x, y])


@functools.cache
def scale_families() -> tuple:
    """('n form i', family) for three seeded plumbed families per n in (16, 24, 32, 64)
    and form."""
    out = []
    for n in (16, 24, 32, 64):
        for form in ("plain", "twist", "reparametrize"):
            rng = random.Random(f"scale-{n}-{form}")
            out += [(f"{n} {form} {i}", plumbed_family(n, form, rng)) for i in range(3)]
    return tuple(out)


def limit_digests(families) -> list[str]:
    """'name sha256' of the limit_tree dump of each (name, family)."""
    return [f"{name} {hashlib.sha256(dump(limit_tree(fam)).encode()).hexdigest()}"
            for name, fam in families]


def scale_digests() -> list[str]:
    """The limit digests of scale_families; rewrite the pin with `PYTHONPATH=src:tests python3 -c
    "import test_limits as t; print(*t.scale_digests(), sep=chr(10))" > tests/golden/limit_tree_scale.sha`"""
    return limit_digests(scale_families())


def test_limit_tree_digests_are_pinned_at_scale():
    # byte identity of limit_tree past TestEnginesAgree's n <= 14
    golden = pathlib.Path(__file__).parent / "golden" / "limit_tree_scale.sha"
    assert scale_digests() == golden.read_text().splitlines()


def test_limit_trees_are_their_canonical_forms():
    # internal ids ranked by partition, each row in the chart of its vertex's representative
    # triple: what lets dynamics.compatible compare projections as values
    families = [fam for name, fam in scale_families() if int(name.split()[0]) <= 32]
    families += [fam for name, fam in shape_families() if int(name.split()[0]) <= 32]
    assert len(families) >= 40
    for fam in families:
        t = limit_tree(fam)
        assert t == canonical_form(t)


def path_shape(groups: list) -> MarkedTree:
    """The labels of each group at one internal vertex, the vertices on a path in group order."""
    edges = [(x, k) for k, group in enumerate(groups) for x in group]
    edges += [(k, k + 1) for k in range(len(groups) - 1)]
    return MarkedTree.make([x for group in groups for x in group], range(len(groups)), edges)


def caterpillar(labels: list) -> MarkedTree:
    """The labels in order along a path of trivalent vertices, two at each end."""
    return path_shape([labels[:2], *([x] for x in labels[2:-2]), labels[-2:]])


@functools.cache
def shape_families() -> tuple:
    """('n shape form', family) of plumbed families per n in (8, 32, 64): caterpillars with
    labels in spine order ("spine", names sort along the path) and shuffled, the star and
    the two-vertex tree, each plain and under a constant Moebius twist.  Chains and wide
    stars take the split's two branches most: a ball's labels mostly join its first
    member's class, or mostly start classes of their own."""
    out = []
    for n in (8, 32, 64):
        names = [f"x{k:02d}" for k in range(n)]
        rng = random.Random(f"shapes-{n}")
        shapes = {"spine": caterpillar(names), "shuffled": caterpillar(rng.sample(names, n)),
                  "star": path_shape([names]), "two": path_shape([names[:n // 2], names[n // 2:]])}
        for kind, shape in shapes.items():
            fam = plumb_family(random_marking(shape, rng))
            out += [(f"{n} {kind} plain", fam), (f"{n} {kind} twist", fam.twist(random_moebius(rng)))]
    return tuple(out)


def shape_digests() -> list[str]:
    """The limit digests of shape_families; rewrite the pin with `PYTHONPATH=src:tests python3 -c
    "import test_limits as t; print(*t.shape_digests(), sep=chr(10))" > tests/golden/limit_tree_shapes.sha`"""
    return limit_digests(shape_families())


def test_limit_tree_digests_are_pinned_on_chains_and_stars():
    golden = pathlib.Path(__file__).parent / "golden" / "limit_tree_shapes.sha"
    assert shape_digests() == golden.read_text().splitlines()


def counted_coefficients(monkeypatch) -> list:
    """One entry per series limits._series starts, counting the coefficients it yields."""
    calls, coefficients = [], limits._coefficients

    def counted(u, v):
        calls.append(0)
        k = len(calls) - 1
        for c in coefficients(u, v):
            calls[k] += 1
            yield c

    monkeypatch.setattr(limits, "_coefficients", counted)
    return calls


def trie_families() -> list:
    """Caterpillars in spine order at n = 32 and 64 and shuffled at n = 64 (three seeds),
    and the n = 64 plumbed families of the scale pin, plain and twisted."""
    shapes, scale = dict(shape_families()), dict(scale_families())
    families = [("spine-32", shapes["32 spine plain"]), ("spine-64", shapes["64 spine plain"])]
    for seed in range(3):
        rng = random.Random(f"pairs-{seed}")
        names = rng.sample([f"x{k:02d}" for k in range(64)], 64)
        families.append((f"shuffled-64-{seed}", plumb_family(random_marking(caterpillar(names), rng))))
    return families + [("random-64-plain", scale["64 plain 0"]), ("random-64-twist", scale["64 twist 0"])]


TRIE_COEFFICIENTS = {"spine-32": 496, "spine-64": 2016, "shuffled-64-0": 2016, "shuffled-64-1": 2016,
                     "shuffled-64-2": 2016, "random-64-plain": 277, "random-64-twist": 406}


def test_make_computes_the_pinned_coefficients(monkeypatch):
    # the trie's reads: each label's series up to the depth of its last split
    calls = counted_coefficients(monkeypatch)
    counts = {}
    for name, fam in trie_families():
        calls.clear()
        LaurentFamily.make(dict(fam.paths))
        counts[name] = sum(calls)
    assert counts == TRIE_COEFFICIENTS


SAMPLE_EPS = (Fraction(1, 10), Fraction(1, 97), Fraction(1, 200), Fraction(3, 2), Fraction(7, 3))


def sample_scale_digests() -> list[str]:
    """'family eps sha256' of the marked_sphere_to_json dump of fam.evaluate(eps), or of
    the CollisionAtEpsilon message and witness, for two seeded plumbed families per n in
    (6, 12, 24) and form, eight random Laurent families with exponents -2..3 and one
    family with a collision at 3/2 and a (0 : 0) path at 7/3, at each of SAMPLE_EPS;
    rewrite the pin with `PYTHONPATH=src:tests python3 -c "import test_limits as t;
    print(*t.sample_scale_digests(), sep=chr(10))" > tests/golden/sample_scale.sha`"""
    families = []
    for n in (6, 12, 24):
        for form in ("plain", "twist", "reparametrize"):
            rng = random.Random(f"sample-{n}-{form}")
            families += [(f"{n}-{form}-{i}", plumbed_family(n, form, rng)) for i in range(2)]
    rng = random.Random("sample-laurent")
    families += [(f"laurent-{i}", random_laurent_family(4 + i % 4, rng)) for i in range(8)]
    # labels 1 and 2 meet at eps = 3/2, and both components of 4 vanish at eps = 7/3
    families.append(("planted", LaurentFamily.make({
        "1": lconst(0), "2": lpoly([(0, gr(Fraction(-3, 2))), (1, gr(1))]), "3": LINF,
        "4": LaurentPoint.make(LaurentPoly.make([(0, gr(Fraction(-7, 3))), (1, gr(1))]),
                               LaurentPoly.make([(1, gr(Fraction(-7, 3))), (2, gr(1))]))})))
    lines = []
    for name, fam in families:
        for eps in SAMPLE_EPS:
            try:
                out = ser.canonical_dumps(ser.marked_sphere_to_json(fam.evaluate(eps)))
            except CollisionAtEpsilon as exc:
                out = f"CollisionAtEpsilon {exc} {exc.witness!r}"
            lines.append(f"{name} {eps} {hashlib.sha256(out.encode()).hexdigest()}")
    return lines


def test_sampled_spheres_are_pinned_at_scale():
    # byte identity of LaurentFamily.evaluate, collisions included, past the CLI golden
    golden = pathlib.Path(__file__).parent / "golden" / "sample_scale.sha"
    assert sample_scale_digests() == golden.read_text().splitlines()


def test_seeded_trees_do_not_depend_on_the_hash_seed():
    script = "\n".join([
        "import random, sys",
        f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})",
        "from conftest import random_marking, random_stable_shape",
        "from sphere_trees import serialize as ser",
        "for seed in range(300):",
        "    rng = random.Random(seed)",
        "    t = random_marking(random_stable_shape(4 + seed % 11, rng), rng)",
        "    print(ser.canonical_dumps(ser.tree_of_spheres_to_json(t)), end='')",
    ])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1]


def test_assembled_trees_do_not_depend_on_the_hash_seed():
    # the assembly reads frozenset blocks, whose order follows the hash seed; its
    # outputs and its branch order must not
    script = "\n".join([
        "import random, sys",
        f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})",
        "from test_limits import dump, plumbed_family",
        "from sphere_trees.limits import limit_tree",
        "from sphere_trees.moduli import project",
        "from sphere_trees.trees import branches, neighbors, vertex_key",
        "for n in range(4, 16):",
        "    rng = random.Random(f'hash-seed-{n}')",
        "    for _ in range(3):",
        "        t = limit_tree(plumbed_family(n, 'twist', rng))",
        "        p = project(t, rng.sample(sorted(t.labels), rng.randint(3, n)))",
        "        for s in (t, p):",
        "            for v in s.shape.internal:",
        "                ns = list(neighbors(s.shape, v))",
        "                if not list(branches(s.shape, v)) == ns == sorted(ns, key=vertex_key):",
        "                    sys.exit(f'branches out of neighbors order at n = {n}')",
        "            print(dump(s), end=chr(0))",
    ])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].count(chr(0)) == 2 * 12 * 3


# twelve snapshots a=0, b=1, c=2, d=3, e=inf, with b=1e-100 and c=1e-230 in the last
VANISHING_ROW_SNAPSHOTS = [{"a": 0j, "b": 1 + 0j, "c": 2 + 0j, "d": 3 + 0j, "e": None}
                           for _ in range(11)] + [
    {"a": 0j, "b": 1e-100 + 0j, "c": 1e-230 + 0j, "d": 3 + 0j, "e": None}]


# twelve snapshots a=0, b=1, c=inf, d=0.5+0.25i at eps = 1/(k+2), with b=1/big and
# d=big at the eps values given (1/7 in the first)
def pole_snapshots(at=(1.0 / 7,), big=1e200) -> tuple[list[dict], list[float]]:
    eps = [1.0 / (k + 2) for k in range(12)]
    return [{"a": 0j, "b": complex(1 / big), "c": None, "d": complex(big)} if e in at else
            {"a": 0j, "b": 1 + 0j, "c": None, "d": 0.5 + 0.25j} for e in eps], eps


class TestNumericLimit:
    def test_constant_snapshots(self):
        snaps = [{"1": 0j, "2": 1 + 0j, "3": None, "4": 5 + 0j} for _ in range(10)]
        seq = NumericConfigSequence.make(snaps, [1.0 / (i + 2) for i in range(10)])
        t = numeric_limit_tree(seq)
        assert len(t.shape.internal) == 1

    def test_harmonic_degeneration(self, eps_family):
        snaps, eps = [], []
        for n in range(10, 201):
            snaps.append({"1": 0j, "2": 1 + 0j, "3": None, "4": complex(1.0 / n)})
            eps.append(1.0 / n)
        t = numeric_limit_tree(NumericConfigSequence.make(snaps, eps))
        assert tree_partitions(t.shape) == tree_partitions(limit_tree(eps_family).shape)

    def test_random_walk_not_stabilized(self, monkeypatch):
        rng = random.Random(1)
        snaps = [{"1": complex(rng.random(), rng.random()), "2": 1 + 0j,
                  "3": None, "4": 5 + 0j} for _ in range(30)]
        eps = [1.0 / (i + 10) for i in range(30)]
        estimates, label_estimates = [], limits._label_estimates
        monkeypatch.setattr(limits, "_label_estimates",
                            lambda *a: estimates.append(label_estimates(*a)) or estimates[-1])
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(NumericConfigSequence.make(snaps, eps))
        # the first chart fails: only label 4 moves against its random triple
        [entry] = info.value.witness
        assert entry["quadruple"] == ["1", "2", "3", "4"]
        assert 1e-6 < entry["spread"] <= 2.0
        # it names the ladder farthest from ladder 0 and that ladder's anchor, the
        # (k+1)-th smallest eps; label 4's estimates are the last five
        gaps = [limits.chordal(estimates[-1][0], e) for e in estimates[-1][1:]]
        assert entry["spread"] == max(gaps)
        assert entry["ladder"] == 1 + gaps.index(max(gaps))
        assert entry["anchor_eps"] == sorted(eps)[entry["ladder"]]
        assert set(entry) == {"quadruple", "spread", "ladder", "anchor_eps"}

    def test_coincident_labels_refused(self):
        # labels 2 and 4 round to the same float in the snapshot nearest the limit
        snaps = [{"1": 0j, "2": 1 + 0j, "3": None, "4": 5 + 0j} for _ in range(10)]
        snaps[9]["4"] = 1 + 0j
        eps = [1.0 / (i + 2) for i in range(10)]
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(NumericConfigSequence.make(snaps, eps))
        assert info.value.witness == {"quadruple": ["1", "2", "4", "2"], "eps": eps[9]}

    def test_inadmissible_clusters_are_checked_once(self, monkeypatch):
        # twelve identical snapshots cluster, at tolerance 0.8, into partitions
        # whose block {1, 3} has no partner
        snap = {"0": 1.4748 - 0.1571j, "1": -0.5147 - 0.4711j,
                "2": 0.1192 - 1.8655j, "3": -1.6374 + 1.1766j}
        seq = NumericConfigSequence.make([dict(snap) for _ in range(12)],
                                         [1 / (k + 2) for k in range(12)], 0.8, 5)
        checks = []
        check = trees._admissibility
        monkeypatch.setattr(trees, "_admissibility", lambda *a: checks.append(a) or check(*a))
        with pytest.raises(AdmissibilityFailure) as info:
            numeric_limit_tree(seq)
        assert len(checks) == 1
        assert info.value.witness == AdmissibilityViolation(
            2, "non-singleton block has no partner partition containing its complement",
            fs(["0"], ["1", "3"], ["2"]), frozenset(["1", "3"]))

    def test_non_transitive_clustering(self):
        # a, b, c settle at mutual chordal gaps of 8e-7, 8e-7, and 1.6e-6
        snap = {"a": 0j, "b": 4e-7 + 0j, "c": 8e-7 + 0j, "d": 1 + 0j, "e": None}
        snaps = [dict(snap) for _ in range(10)]
        seq = NumericConfigSequence.make(snaps, [1.0 / (i + 2) for i in range(10)])
        with pytest.raises(InconsistentClustering):
            numeric_limit_tree(seq)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_fails_closed_on_plumbed_families(self, n):
        # a returned tree has the exact partitions; otherwise a typed refusal
        rng = random.Random(f"fail-closed-{n}")
        returned = 0
        for form in ("plain", "twist", "plain", "twist"):
            fam = plumbed_family(n, form, rng)
            try:
                t = numeric_limit_tree(NumericConfigSequence.make(*snapshots(fam)))
            except (NotStabilized, InconsistentClustering, AdmissibilityFailure):
                continue
            assert t.partitions() == tree_partitions(limit_tree(fam).shape)
            returned += 1
        assert returned > 0

    @pytest.mark.parametrize("n", range(4, 12))
    def test_engines_agree_on_plumbed_families(self, n):
        # the oracle's trees come back byte for byte; any tree is exact
        rng = random.Random(f"numeric-engines-{n}")
        returned = 0
        for form in ("plain", "twist", "plain", "twist"):
            fam = plumbed_family(n, form, rng)
            seq = NumericConfigSequence.make(*snapshots(fam))
            try:
                expected = numeric_dump(per_triple_numeric_limit_tree(seq))
            except (NotStabilized, InconsistentClustering, AdmissibilityFailure):
                expected = None
            try:
                t = numeric_limit_tree(seq)
            except (NotStabilized, InconsistentClustering, AdmissibilityFailure):
                assert expected is None
                continue
            assert t.partitions() == tree_partitions(limit_tree(fam).shape)
            assert expected is None or numeric_dump(t) == expected
            returned += 1
        assert returned > 0

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_one_extrapolated_chart_per_vertex(self, monkeypatch, n):
        # one table run of w estimates per quadruple of a charted triple but those of its
        # own 0 and inf labels, which are charted exactly, each ladder subset's table built
        # once, and one cross-ratio row per (charted triple, snapshot some ladder uses)
        calls, built, rows = [], [], []
        label_estimates, window_table = limits._label_estimates, limits._window_table
        cross_ratio_row = limits._cross_ratio_row

        def counted(*args):
            calls.append(label_estimates(*args))
            return calls[-1]

        def counted_table(eps, ladders):
            built.append(tuple(ladders))
            return window_table(eps, ladders)

        def counted_row(*args):
            rows.append(args[1:])
            return cross_ratio_row(*args)

        monkeypatch.setattr(limits, "_label_estimates", counted)
        monkeypatch.setattr(limits, "_window_table", counted_table)
        monkeypatch.setattr(limits, "_cross_ratio_row", counted_row)
        rng = random.Random(f"numeric-charts-{n}")
        seq = None
        while seq is None:
            fam = plumbed_family(n, "twist", rng)
            seq = NumericConfigSequence.make(*snapshots(fam))
            calls.clear()
            built.clear()
            rows.clear()
            try:
                t = numeric_limit_tree(seq)
            except (NotStabilized, InconsistentClustering, AdmissibilityFailure):
                seq = None
        vertices = len(t.shape.internal)
        assert vertices > 1
        assert len(calls) == (n - 2) * vertices
        assert all(len(estimates) == seq.stability_window for estimates in calls)
        assert len(set(built)) == len(built) >= 1
        used = {i for skip in range(seq.stability_window)
                for i in limits._ladder_nodes(seq.eps, skip)}
        assert len(rows) == vertices * len(used)
        assert len(set(rows)) == vertices  # one set of rows per charted triple

    def test_exact_charts_of_a_triples_zero_and_infinity(self):
        # y0 and yinf of a charted triple are exact zeros u and v of every cross-ratio row,
        # so numeric_limit_tree charts them without extrapolating: y0 from ladder 0's last
        # row and yinf as (1 : 0).  Bit for bit against _label_estimates' ladder 0, with
        # spread 0.0 over all five ladders, on random snapshots with signed zeros,
        # infinite labels, magnitudes up to 1e9 and near-coincident labels
        rng = random.Random("numeric-exact-charts")

        exact = 0
        for _ in range(300):
            eps = sorted(1.0 / k for k in rng.sample(range(10, 201), rng.randint(6, 20)))
            ladders = [tuple(limits._ladder_nodes(eps, skip)) for skip in range(5)]
            m = rng.randint(3, 7)
            snaps = []
            for _ in eps:
                values = [None] * m
                while len(set(values)) < m:  # coincident labels are refused before charting
                    values = [random_coordinate(rng) for _ in range(m)]
                    base = rng.randrange(m)
                    if values[base] is not None:  # a near-coincident label
                        values[rng.randrange(m)] = values[base] + rng.choice([1e-15, 1e-9])
                snaps.append([limits._numeric_point(v) for v in values])
            i0, i1, i2 = sorted(rng.sample(range(m), 3))
            rows = [limits._cross_ratio_row(snap, i0, i1, i2) for snap in snaps]
            if any((0j, 0j) in (row[i0], row[i2]) for row in rows):
                continue  # the guard: these charts are extrapolated
            exact += 1
            u, v = rows[ladders[0][-1]][i0]
            for ix, chart in ((i0, limits._numeric_point(u / v)), (i2, (1.0 + 0j, 0j))):
                estimates = limits._label_estimates(eps, ladders, {}, rows, ix)
                assert repr(chart) == repr(estimates[0])
                assert max(limits.chordal(estimates[0], e) for e in estimates[1:]) == 0.0
        assert exact > 250

    def test_exact_charts_fall_back_on_a_vanishing_row(self):
        # brackets of 1e-230 and 1e-100 underflow to a (0 : 0) entry for y0 = a (and
        # yinf = c) in the snapshot nearest the limit, though no two labels coincide
        # there: the per-triple oracle divides by zero, and the row is refused
        snaps = VANISHING_ROW_SNAPSHOTS
        seq = NumericConfigSequence.make(snaps, [1.0 / (k + 2) for k in range(len(snaps))])
        row = limits._cross_ratio_row(normalized(seq.snapshots[-1]), 0, 1, 2)
        assert row[0] == row[2] == (0j, 0j)
        with pytest.raises(ZeroDivisionError):
            per_triple_numeric_limit_tree(seq)
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(seq)
        assert str(info.value) == "a cross-ratio underflows to (0 : 0) in a snapshot"
        assert info.value.witness == {"quadruple": ["a", "b", "c", "a"], "eps": 1.0 / 13}

    @pytest.mark.parametrize("at, big", [
        ((1.0 / 7,), 1e200), ((1.0 / 7, 1.0 / 10), 1e200), ((1.0 / 4, 1.0 / 7), 1e200),
        ((1.0 / 7,), 1e160), ((1.0 / 7,), 1e155)],
        ids=["at0", "at1", "at2", "subnormal-1e-320", "subnormal-1e-310"])
    def test_a_pole_of_a_ladder_chart_is_refused(self, at, big):
        # d / b overflows where b = 1 / big and d = big: the v of d's row underflows there,
        # to exactly 0 at 1e200 or to a subnormal that u / v overflows past, and ladder 0
        # charts d by u / v; the per-triple oracle divides by zero or turns the overflow
        # into nan, and the first such snapshot by ascending eps is refused
        seq = NumericConfigSequence.make(*pole_snapshots(at, big))
        for i, e in enumerate(seq.eps):
            v = limits._cross_ratio_row(normalized(seq.snapshots[i]), 0, 1, 2)[3][1]
            assert (abs(v) < sys.float_info.min) == (e in at)
            assert (v == 0) == (e in at and big == 1e200)
        with pytest.raises(ZeroDivisionError if big == 1e200 else InvalidFamily):
            per_triple_numeric_limit_tree(seq)
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(seq)
        assert str(info.value) == "a cross-ratio is a pole of its extrapolation chart in a snapshot"
        assert info.value.witness == {"quadruple": ["a", "b", "c", "d"], "eps": min(at)}

    def test_snapshot_points_are_normalized_bit_for_bit(self):
        # make keeps every coordinate as the checked complex or None, and _numeric_point
        # normalizes it against z / n, 1 / n with n = max(|z|, 1), signed zeros included;
        # make refuses with the same messages
        parts = [0.0, -0.0, 0.5, -1.0, 1e-300, -1e9, 1e308]
        values = [None, 0, 2, -0.5] + [complex(a, b) for a in parts for b in parts
                                       if abs(a) + abs(b) < float("inf")]
        labels = [f"x{i:03d}" for i in range(len(values))]
        seq = NumericConfigSequence.make([dict(zip(labels, values))] * 2, [1.0, 0.5])
        for value, coordinate in zip(values, seq.snapshots[1]):
            point = limits._numeric_point(coordinate)
            if value is None:
                assert coordinate is None
                assert repr(point) == repr((1.0 + 0j, 0j))
                continue
            z = complex(value)
            assert type(coordinate) is complex and repr(coordinate) == repr(z)
            n = max(abs(z), 1.0)
            assert repr(point) == repr((z / n, 1.0 / n))
            assert repr(limits._numeric_point(value)) == repr(point)
        big = complex(1e308, 1e308)
        for snaps, refusal in [
            ([{"a": 0j, "b": big, "c": None}], f"snapshot coordinates must be finite with a "
                                                f"finite modulus: {big!r}"),
            ([{"a": 0j, "b": 1, "c": None}, {"a": 0j, "b": 1, "d": None}],
             "snapshots do not share a label set"),
        ]:
            with pytest.raises(InvalidFamily) as info:
                NumericConfigSequence.make(snaps, [1.0, 0.5][:len(snaps)])
            assert str(info.value) == refusal

    def test_rows_and_one_ladder_tables_match_the_oracle(self):
        # bit for bit, signed zeros included, against the four-bracket cross-ratio
        # and the n x n tableau: infinite points, labels equal to a triple point,
        # near-coincident labels, and series through the den2 == 0 and d == 0 branches
        rng = random.Random("numeric-kernels")

        def outcome(f, *args):  # a point through infinity divides by zero in both
            try:
                return repr(f(*args))
            except ZeroDivisionError:
                return "ZeroDivisionError"

        for _ in range(300):
            values = [random_coordinate(rng, 6) for _ in range(rng.randint(3, 8))]
            base = rng.randrange(len(values))
            if values[base] is not None:  # a near-coincident label
                values.append(values[base] + complex(rng.choice([1e-15, 1e-9]), 0.0))
            i0, i1, i2 = rng.sample(range(len(values)), 3)
            values.append(values[rng.choice((i0, i1, i2))])  # a label equal to a triple point
            snap = [limits._numeric_point(v) for v in values]
            row = limits._cross_ratio_row(snap, i0, i1, i2)
            assert len(row) == len(snap)
            for p, got in zip(snap, row):
                assert repr(got) == repr(oracle_cross_ratio(snap[i0], snap[i1], snap[i2], p))

        for _ in range(300):
            m = rng.randint(1, 9)
            eps = sorted(rng.sample(range(1, 400), m))
            eps = [1.0 / (401 - e) for e in eps] if rng.random() < 0.5 \
                else [rng.uniform(1e-3, 1.0) for _ in range(m)]
            kind = rng.randrange(4)
            if kind == 0:
                vals = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in eps]
            elif kind == 1:
                vals = [complex(rng.choice([0.0, -0.0, 1.0])) for _ in eps]
            elif kind == 2:
                vals = [rng.choice([1 + 0j, 2j]) / e for e in eps]
            else:
                vals = [complex(rng.gauss(0, 1), 0.0) + 1e-12 * rng.random() * e for e in eps]
            pts = [limits._numeric_point(v) for v in vals]
            if rng.random() < 0.5:
                pts = [(v, u) for u, v in pts]
            assert outcome(one_ladder, eps, pts) == outcome(oracle_extrapolate, eps, pts)

        # den2 == 0: a zero first sample; d == 0: values 1/(16 eps) at eps doubling, and again
        # with negative zero imaginary parts, which t + 0 clears; charted by u / v as (v : 1)
        for eps, vals in [([0.25, 0.5], [0j, 0j]),
                          ([0.125, 0.25, 0.5, 1.0], [0.5 + 0j, 0.25, 0.125, 0.0625]),
                          ([0.125, 0.25, 0.5, 1.0], [complex(x, -0.0) for x in (0.5, 0.25, 0.125, 0.0625)])]:
            pts = [(complex(v), 1.0 + 0j) for v in vals]
            assert [p[0] / p[1] for p in pts] == vals
            assert repr(one_ladder(eps, pts)) == repr(oracle_extrapolate(eps, pts))
        assert (0.125 / 0.25) * (1 - (0.25 - 0.5) / 0.25) - 1 == 0

    def test_window_tables_match_the_per_ladder_oracle(self):
        # each label's five estimates, bit for bit, against each ladder's full tableau, on
        # random snapshots with signed zeros, infinite labels, magnitudes up to 1e9 and
        # near-coincident labels; a zero divisor in any ladder raises ZeroDivisionError,
        # else the first ladder's estimate that is not finite its InvalidFamily
        rng = random.Random("numeric-window-tables")

        mixed = 0
        for _ in range(200):
            eps = sorted(1.0 / k for k in rng.sample(range(10, 201), rng.randint(6, 20)))
            ladders = [tuple(limits._ladder_nodes(eps, skip)) for skip in range(5)]
            m = rng.randint(3, 7)
            snaps = []
            for _ in eps:
                values = [random_coordinate(rng) for _ in range(m)]
                base = rng.randrange(m)
                if values[base] is not None:  # a near-coincident label
                    values[rng.randrange(m)] = values[base] + rng.choice([1e-15, 1e-9])
                snaps.append([limits._numeric_point(v) for v in values])
            i0, i1, i2 = sorted(rng.sample(range(m), 3))
            rows = [limits._cross_ratio_row(snap, i0, i1, i2) for snap in snaps]
            tables: dict = {}
            for ix in range(m):
                assert table_outcome(eps, ladders, tables, rows, ix) \
                    == ladder_outcome(eps, ladders, rows, ix)
            mixed += len(tables) > 1
        assert mixed > 0

        # planted on the bench grid: labels a, b, c at 0, 1, inf chart d as itself
        eps = [1.0 / k for k in range(10, 201)]
        ladders = [tuple(limits._ladder_nodes(eps, skip)) for skip in range(5)]

        def planted(d, at=()):  # d at eps = 1/k, with (b, d) replaced at k in at
            return [{"a": 0j, "b": at[k][0], "c": None, "d": at[k][1]} if k in at else
                    {"a": 0j, "b": 1 + 0j, "c": None, "d": d(1.0 / k)} for k in range(10, 201)]

        def charted(snaps):  # the sequence, its rows, and d's outcome with the tables it ran
            seq = NumericConfigSequence.make(snaps, eps)
            rows = {i: limits._cross_ratio_row(normalized(seq.snapshots[i]), 0, 1, 2)
                    for i in set().union(*ladders)}
            tables: dict = {}
            return seq, rows, tables, table_outcome(eps, ladders, tables, rows, 3)

        # |d| crosses 1 between the anchors 1/198 and 1/197: ladders 0-2 chart d by u / v,
        # ladders 3 and 4 by v / u, each direction in its own table
        a = complex(math.cos(0.7), math.sin(0.7))
        seq, rows, tables, got = charted(planted(lambda e: a * (1 + 100 * (e - 1 / 197.5))))
        assert abs(abs(a) - 1) < 1e-15
        assert got == ladder_outcome(eps, ladders, rows, 3)
        assert sorted(tables) == [(0, 1, 2), (3, 4)]
        assert numeric_dump(numeric_limit_tree(seq)) \
            == numeric_dump(per_triple_numeric_limit_tree(seq))

        # a zero divisor at 1/143, a node of ladder 4 alone: the pole is refused as before
        seq, rows, _, got = charted(planted(lambda e: 0.5 + 0.25j,
                                            {143: (complex(1e-200), complex(1e200))}))
        assert got == ladder_outcome(eps, ladders, rows, 3) == "ZeroDivisionError"
        assert ladder_outcome(eps, ladders[:4], rows, 3).startswith("[")
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(seq)
        assert str(info.value) == "a cross-ratio is a pole of its extrapolation chart in a snapshot"
        assert info.value.witness == {"quadruple": ["a", "b", "c", "d"], "eps": 1.0 / 143}

        # d = +-1e308 at 1/76 and 1/55, adjacent nodes of ladder 4 alone: finite quotients
        # whose difference overflows, so ladder 4's tableau ends in nan; the numeric mode
        # refuses to stabilize, naming the quadruple, ladder 4 and its anchor eps
        seq, rows, _, got = charted(planted(lambda e: 0.5 + 0.25j, {
            76: (1 + 0j, complex(1e308)), 55: (1 + 0j, complex(-1e308))}))
        refusal = "InvalidFamily: " + limits._NOT_FINITE + repr(complex("nan+nanj"))
        assert got == ladder_outcome(eps, ladders, rows, 3) == refusal
        assert ladder_outcome(eps, ladders[:4], rows, 3).startswith("[")
        with pytest.raises(NotStabilized) as info:
            numeric_limit_tree(seq)
        assert str(info.value) == "an extrapolation tableau overflows the float range"
        assert info.value.witness == {"quadruple": ["a", "b", "c", "d"], "ladder": 4,
                                      "anchor_eps": eps[ladders[4][0]]}
        assert eps[ladders[4][0]] == 1.0 / 196

    def test_the_window_table_on_the_bench_grid(self):
        # five ladders at window 5 on eps = 1/k, k = 10..200: 27 leaves and 131 cells,
        # against 45 series values and 180 cells in per-ladder tableaux; each cell reads
        # slots before its own, and the ladders' estimates are the last five cells
        eps = [1.0 / k for k in range(10, 201)]
        ladders = [tuple(limits._ladder_nodes(eps, skip)) for skip in range(5)]
        assert sum(map(len, ladders)) == 45
        assert sum(len(idx) * (len(idx) - 1) // 2 for idx in ladders) == 180
        leaves, cells, roots = limits._window_table(eps, ladders)
        assert (len(leaves), len(cells)) == (27, 131)
        assert leaves == sorted(set().union(*ladders))
        for s, (a, b, c, _) in enumerate(cells, len(leaves) + 1):
            assert max(a, b, c) < s
        assert sorted(roots) == list(range(len(leaves) + len(cells) - 4, len(leaves) + len(cells) + 1))

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_returned_markings_lie_within_tolerance_of_the_exact_charts(self, n):
        # every label's point at every vertex of a returned tree lies within the
        # sequence's tolerance, in chordal distance, of the exact limit chart at the
        # vertex's representative triple; None is the point at infinity
        rng = random.Random(f"numeric-markings-{n}")
        returned = 0
        for form in ("plain", "twist") * 3:
            fam = plumbed_family(n, form, rng)
            seq = NumericConfigSequence.make(*snapshots(fam))
            try:
                t = numeric_limit_tree(seq)
            except (NotStabilized, InconsistentClustering, AdmissibilityFailure):
                continue
            returned += 1
            labels, lead = sorted(fam.labels), oracle_lead_table(fam)
            for v, row in t.marking:
                exact = oracle_lead_chart(
                    labels, lead, representative_triple(partition_at(t.shape, v)))
                for x, affine in row:
                    p = exact[x]
                    q = None if p.is_infinity() else p.to_affine().to_complex()
                    gap = limits.chordal(limits._numeric_point(affine), limits._numeric_point(q))
                    assert gap <= seq.tolerance, (v, x, gap)
        assert returned > 0


class TestLimitCover:
    def test_two_vertex_family(self):
        fam = degenerate_family_two_vertex()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert spheres_iso(cover.source, limit_tree(fam.y_family))
        assert spheres_iso(cover.target, limit_tree(fam.z_family))
        assert len(cover.source.shape.internal) == 2

    def test_three_vertex_family(self):
        fam = degenerate_family_three_vertex()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert len(cover.source.shape.internal) == 3
        rebuilt = reconstruct_cover(cover.source, fam.portrait)
        from sphere_trees.covers import cover_iso
        assert cover_iso(rebuilt, cover)

    def test_portrait_preserved(self):
        fam = degenerate_family_two_vertex()
        assert extract_portrait(limit_cover(fam)) == fam.portrait

    def test_double_fold_family(self):
        from conftest import degenerate_family_double_fold
        from sphere_trees.covers import cover_iso
        fam = degenerate_family_double_fold()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert len(cover.source.shape.internal) == 5
        assert len(cover.target.shape.internal) == 3
        fibers: dict = {}
        for v in cover.source.shape.internal:
            fibers.setdefault(cover.vm[v], []).append(v)
        assert sorted(len(f) for f in fibers.values()) == [1, 2, 2]
        rebuilt = reconstruct_cover(cover.source, fam.portrait)
        assert cover_iso(rebuilt, cover)

    def test_split_fiber_family(self):
        # two source vertices fold onto one target vertex with degree 1 each
        fam = degenerate_family_split_fiber()
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []
        assert len(cover.source.shape.internal) == 3
        assert len(cover.target.shape.internal) == 2
        images = [cover.vm[v] for v in cover.source.shape.internal]
        assert len(set(images)) < len(images)
        rebuilt = reconstruct_cover(cover.source, fam.portrait)
        from sphere_trees.covers import cover_iso
        assert cover_iso(rebuilt, cover)


def cubic_family(check: bool = True, **degrees: int) -> CoverFamily:
    """z^3 - 3z on constant paths with its critical fibers marked: 1 and -1 are
    critical over -2 and 2, where -2 and 2 are simple; `degrees` overrides the
    portrait's.  Without `check` the family skips CoverFamily.make."""
    fmap = {"a2": "b2", "am1": "b2", "am2": "bm2", "a1": "bm2", "ainf": "binf"}
    deg = {"a2": 1, "am1": 2, "am2": 1, "a1": 2, "ainf": 3, **degrees}
    y = LaurentFamily.make({"a2": lconst(2), "am1": lconst(-1), "am2": lconst(-2),
                            "a1": lconst(1), "ainf": LINF})
    z = LaurentFamily.make({"b2": lconst(2), "bm2": lconst(-2), "binf": LINF})
    f = LaurentMap.make([LP_ZERO, LaurentPoly.constant(gr(-3)), LP_ZERO, LP_ONE], [LP_ONE])
    return (CoverFamily.make if check else CoverFamily)(Portrait.make(fmap, deg, 3), y, z, f)


def critical_at_one_seventh() -> CoverFamily:
    """z^2 with the fiber of (eps - 1/7)^2 marked: its paths +-(eps - 1/7) are simple
    points of z^2, and both meet the critical point 0 at eps = 1/7 only."""
    a = lpoly([(0, gr(Fraction(-1, 7))), (1, gr(1))])
    y = LaurentFamily.make({"y0": lconst(0), "yinf": LINF, "a": a,
                            "b": lpoly([(0, gr(Fraction(1, 7))), (1, gr(-1))])})
    z = LaurentFamily.make({"c0": lconst(0), "cinf": LINF,
                            "c": LaurentPoint.make(a.u * a.u, LP_ONE)})
    portrait = Portrait.make({"y0": "c0", "yinf": "cinf", "a": "c", "b": "c"},
                             {"y0": 2, "yinf": 2, "a": 1, "b": 1}, 2)
    return CoverFamily.make(portrait, y, z, LaurentMap.make([LP_ZERO, LP_ZERO, LP_ONE], [LP_ONE]))


def square_root_family(num: list, den: list, d: int, targets=(1, 4), check: bool = True) -> CoverFamily:
    """num / den, coefficients from the constant term up, claimed of degree d over the
    targets t (labels c<t>) and infinity: each t's fiber is its square roots, one label of
    local degree 2 where t = 0, and infinity's is one label of local degree 2.  Without
    `check` the family skips CoverFamily.make."""
    y, z, fmap, deg = {"inf": LINF}, {"cinf": LINF}, {"inf": "cinf"}, {"inf": 2}
    for t in targets:
        r = math.isqrt(t)
        z[f"c{t}"] = lconst(t)
        fiber = {f"p{r}": r, f"m{r}": -r} if t else {"r0": 0}
        for a, root in fiber.items():
            y[a], fmap[a], deg[a] = lconst(root), f"c{t}", 2 // len(fiber)
    f = LaurentMap.make([LaurentPoly.constant(gr(c)) for c in num],
                        [LaurentPoly.constant(gr(c)) for c in den])
    return (CoverFamily.make if check else CoverFamily)(
        Portrait.make(fmap, deg, d), LaurentFamily.make(y), LaurentFamily.make(z), f)


# z^2 (z - 5) / (z - 5) of degree 3: every path is a root of its G of the portrait's order
# (G = (z - 5)(z^2 - 1), (z - 5)(z^2 - 4) and -(z - 5) V^2), but no fiber sums to 3
INVALID_CUBIC = ([0, 0, -5, 1], [-5, 1], 3)
INVALID_CUBIC_PROBLEMS = ["sum of (deg - 1) is 1, expected 4", "fiber of 'c1' sums to 2, expected 3",
                          "fiber of 'c4' sums to 2, expected 3", "fiber of 'cinf' sums to 2, expected 3"]


class TestCoverFamilyDegrees:
    def test_the_true_degrees_give_the_cubic(self):
        cover = limit_cover(cubic_family())
        assert validate_cover(cover, expected_portrait=cubic_family().portrait) == []
        assert len(cover.source.shape.internal) == 1

    @pytest.mark.parametrize("degrees, message", [
        ({"a1": 1, "am2": 2}, "local degree 2 at the path of 'a1', the portrait 1"),
        ({"am1": 1, "a2": 2}, "local degree 1 at the path of 'a2', the portrait 2"),
        ({"ainf": 2}, "local degree 3 at the path of 'ainf', the portrait 2"),
    ], ids=["over-2", "over-2-swapped", "at-infinity"])
    def test_a_wrong_local_degree_is_refused(self, degrees, message):
        # the swap over -2 keeps a valid portrait; at infinity (v = 0) the order is
        # read in V
        with pytest.raises(InvalidFamily, match=message):
            cubic_family(**degrees)

    def test_a_wrong_image_keeps_its_message(self):
        fam = cubic_family()
        z = {x: p for x, p in fam.z_family.paths}
        z["b2"] = lconst(3)
        with pytest.raises(InvalidFamily, match="does not send the path of 'a2'"):
            CoverFamily.make(fam.portrait, fam.y_family, LaurentFamily.make(z), fam.map_family)

    def test_an_unmarked_critical_point_is_not_realizable(self):
        # z^2 with the fibers of 1, 4 and infinity marked, but not the critical point 0
        with pytest.raises(NotRealizable, match="portrait is invalid") as info:
            square_root_family([0, 0, 1], [1], 2)
        assert info.value.witness == ["sum of (deg - 1) is 1, expected 2"]

    def test_an_invalid_portrait_is_refused_after_the_root_orders(self):
        with pytest.raises(NotRealizable, match="portrait is invalid") as info:
            square_root_family(*INVALID_CUBIC)
        assert info.value.witness == INVALID_CUBIC_PROBLEMS

    def test_a_zero_denominator_is_refused(self):
        # the map is the constant infinity: the form of cinf is zero
        with pytest.raises(InvalidFamily, match="map family is the constant path of 'cinf'") as info:
            square_root_family([0, 0, 1], [], 2)
        assert info.value.witness is None

    def test_a_common_factor_off_the_paths_is_refused(self):
        # z (z - 5) / (z - 5) is z, of degree 1, though the portrait of z^2 is valid: 5 is a
        # root of every form, so some path over each target falls short of its local degree
        with pytest.raises(InvalidFamily, match="local degree 1 at the path of 'inf', the portrait 2"):
            square_root_family([0, -5, 1], [-5, 1], 2, targets=(0, 1))
        assert square_root_family([0, 0, 1], [1], 2, targets=(0, 1)).map_family.degree == 2

    def test_degrees_are_generic_not_sampled(self):
        # at eps = 1/7 the path of a is the critical point 0, of local degree 2
        fam = critical_at_one_seventh()
        eps = Fraction(1, 7)
        f, a = oracle_specialize(fam.map_family, eps), fam.y_family.path("a").evaluate(eps)
        assert local_degree(f, a) == 2 and fam.portrait.deg("a") == 1
        cover = limit_cover(fam)
        assert validate_cover(cover, expected_portrait=fam.portrait) == []


def oracle_root_order(g, p: LaurentPoint) -> int:
    """The Hasse-derivative form, kept as an oracle for limits._root_order: the first k at
    which the form sum_i C(i, k) g_i U^(i-k) V^(d-i) does not vanish at p; in V where v = 0,
    so with g reversed and u, v swapped."""
    u, v = p.u, p.v
    if v.is_zero():
        g, u, v = g[::-1], v, u
    d = len(g) - 1
    for k in range(d):
        hasse = [g[i].scale(gr(math.comb(i, k))) for i in range(k, d + 1)]
        if not hom_apply(hasse, (), u, v, LP_ZERO, LP_ONE)[0].is_zero():
            return k
    return d


def random_laurent_point(rng: random.Random) -> LaurentPoint:
    while True:
        u, v = random_laurent(rng), random_laurent(rng)
        if not (u.is_zero() and v.is_zero()):
            return LaurentPoint.make(u, v)


class TestRootOrder:
    def test_agrees_with_the_hasse_derivatives_on_prescribed_roots(self):
        # G = c prod_a (v_a U - u_a V), roots drawn with repeats from a pool that holds
        # infinity, so orders above 1 and roots at infinity occur; each root's order is
        # its multiplicity, and every other point's is 0
        rng, orders = random.Random(31), []
        for _ in range(60):
            pool = [LINF] + [random_laurent_point(rng) for _ in range(3)]
            roots = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            c = LP_ZERO
            while c.is_zero():
                c = random_laurent(rng)
            g = [c]
            for a in roots:
                g = poly_mul(g, [-a.u, a.v], LP_ZERO)
            for p in pool + [random_laurent_point(rng)]:
                order = sum(oracle_laurent_bracket(a, p).is_zero() for a in roots)
                assert limits._root_order(g, p) == oracle_root_order(g, p) == order
                orders.append((order, p.v.is_zero()))
        assert {(k, True) for k in range(4)} <= set(orders)
        assert {(k, False) for k in range(4)} <= set(orders)


def lexicographic_limit_cover(fam: CoverFamily):
    """The target-triple search, kept as an oracle for limit_cover.

    Target label triples are tried in lexicographic order until the map
    conjugated by the source chart and postcomposed with the triple's chart
    family has a nonconstant leading limit; the vertex whose marking gives the
    triple three distinct points, the one that separates it, is the image, and the limit is moved into that vertex's marking.
    """
    source, target = limit_tree(fam.y_family), limit_tree(fam.z_family)
    vmap, maps = dict(fam.portrait.fmap), {}
    for v in sorted(source.shape.internal):
        triple = representative_triple(partition_at(source.shape, v))
        phi = oracle_laurent_from_three(*(fam.y_family.path(x) for x in triple))
        conjugated = fam.map_family.precompose(phi.inverse())
        for ztriple in combinations(sorted(fam.z_family.labels), 3):
            m = oracle_laurent_from_three(*(fam.z_family.path(c) for c in ztriple))
            try:
                limit = oracle_leading_limit(conjugated.postcompose(m))
            except ConstantLimit:
                continue
            w = next(u for u in sorted(target.shape.internal)
                     if len({marking_dict(target, u)[c] for c in ztriple}) == 3)
            maps[v] = limit.postcompose(vertex_chart(target, w, ztriple).inverse())
            vmap[v] = w
            break
        else:
            raise ConstantLimit("no target triple yields a nonconstant limit")
    return TreeCover.make(source, target, vmap, maps)


# Cover families by name, each built on first use, so that a fault in CoverFamily.make
# fails the tests that use it instead of the collection of this module and test_cli.py.
DEGENERATE_FAMILIES = sorted(name for name in dir(conftest) if name.startswith("degenerate_family_"))
CHAIN_FAMILIES = {"chain_" + "".join(map(str, c)): c for c in CHAIN_CENTRES}
COVER_FAMILIES = [*DEGENERATE_FAMILIES, *(f"{name}_twisted" for name in DEGENERATE_FAMILIES),
                  *CHAIN_FAMILIES]
RANDOM_TWIST_FAMILIES = [f"{name}_random{j}" for name in [*DEGENERATE_FAMILIES, *CHAIN_FAMILIES]
                         for j in range(4)]


@functools.cache
def cover_family(name: str) -> CoverFamily:
    if name in CHAIN_FAMILIES:
        return z_squared_chain_family(CHAIN_FAMILIES[name])
    if name.endswith("_twisted"):
        return twisted_cover_family(cover_family(name.removesuffix("_twisted")), FRACTIONAL, AFFINE)
    if name in RANDOM_TWIST_FAMILIES:
        return random_twist_families()[name]
    return getattr(conftest, name)()


@functools.cache
def random_twist_families() -> dict:
    """Four random Laurent twists, entries down to eps^-2, of each degenerate and chain family."""
    rng = random.Random(41)
    out = {}
    for name in [*DEGENERATE_FAMILIES, *CHAIN_FAMILIES]:
        twists = [(random_laurent_moebius(rng), random_laurent_moebius(rng), rng.randint(1, 2))
                  for _ in range(4)]
        out.update((f"{name}_random{j}", twisted_cover_family(cover_family(name), *twist))
                   for j, twist in enumerate(twists))
    return out


def test_a_fault_in_making_cover_families_fails_tests_not_the_collection():
    # with CoverFamily.make broken, this module and test_cli.py, which imports from it,
    # still import: the families above are built when a test first names them
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})",
        "from sphere_trees import limits",
        "def broken(cls, *args):",
        "    raise limits.InvalidFamily('broken')",
        "limits.CoverFamily.make = classmethod(broken)",
        "import test_limits, test_cli",
        "try:",
        "    test_limits.cover_family(test_limits.RANDOM_TWIST_FAMILIES[0])",
        "except limits.InvalidFamily as exc:",
        "    print(exc)",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=os.environ, timeout=60)
    assert (done.returncode, done.stdout) == (0, "broken\n"), done.stderr


class TestLimitCoverQuotient:
    def test_twists_give_isomorphic_limits(self):
        # eps-dependent twists make the map itself degenerate
        start = time.perf_counter()
        for name in DEGENERATE_FAMILIES:
            fam = getattr(conftest, name)()
            base = limit_cover(fam)
            for source, target, k in TWISTS:
                twisted = limit_cover(twisted_cover_family(fam, source, target, k))
                assert cover_iso(twisted, base), (name, source, target, k)
        assert time.perf_counter() - start < 20.0

    def test_random_twists_give_valid_isomorphic_limits(self):
        # the limit validates, keeps the family's portrait, is rebuilt from its source
        # and portrait, and is the plain family's limit up to isomorphism
        twisted = random_twist_families()
        start, plains = time.perf_counter(), {}
        for name in RANDOM_TWIST_FAMILIES:
            plain = name.rsplit("_random", 1)[0]
            fam = cover_family(plain)
            if plain not in plains:
                plains[plain] = limit_cover(fam)
            for cover in (plains[plain], limit_cover(twisted[name])):
                assert validate_cover(cover, expected_portrait=fam.portrait) == []
                portrait = extract_portrait(cover)
                assert portrait == fam.portrait
                assert cover_iso(reconstruct_cover(cover.source, portrait), cover)
            assert cover_iso(cover, plains[plain]), name
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("name", COVER_FAMILIES + RANDOM_TWIST_FAMILIES)
    def test_agrees_with_lexicographic_search(self, name):
        # the oracle reads each fiber map off the family's map by Laurent products
        fam = cover_family(name)
        cover, oracle = limit_cover(fam), lexicographic_limit_cover(fam)
        assert cover.vertex_map == oracle.vertex_map
        assert cover.maps == oracle.maps

    @pytest.mark.parametrize("twist", [None, (FRACTIONAL, AFFINE, 1)], ids=["plain", "twisted"])
    def test_a_leafless_source_vertex_agrees_with_lexicographic_search(self, twist):
        # the source centre carries only internal edges, so no leaf names its image
        fam = leafless_identity_family()
        fam = twisted_cover_family(fam, *twist) if twist else fam
        cover, oracle = limit_cover(fam), lexicographic_limit_cover(fam)
        assert cover.vertex_map == oracle.vertex_map
        assert cover.maps == oracle.maps
        shape = cover.source.shape
        leafless = [v for v in shape.internal
                    if not any(isinstance(n, str) for n in trees.neighbors(shape, v))]
        assert len(leafless) == 1 and len(shape.internal) == 4


def leafless_identity_family() -> CoverFamily:
    """The identity on pairs of paths colliding at 0, 1 and infinity: the limit's
    centre vertex carries only the three internal edges."""
    paths = {"a0": lconst(0), "a1": lpoly([(1, gr(1))]),
             "b0": lconst(1), "b1": lpoly([(0, gr(1)), (1, gr(1))]),
             "c0": LINF, "c1": LaurentPoint.make(LP_ONE, LaurentPoly.eps())}
    fam = LaurentFamily.make(paths)
    portrait = Portrait.make({x: x for x in paths}, {x: 1 for x in paths}, 1)
    return CoverFamily.make(portrait, fam, fam, LaurentMap.make([LP_ZERO, LP_ONE], [LP_ONE]))
