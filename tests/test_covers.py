"""Portraits, cover validation, reconstruction, isomorphism."""

from __future__ import annotations

import hashlib
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    CHAIN_CENTRES,
    INF,
    branching_cubic_cover,
    chebyshev_cover,
    degenerate_family_double_fold,
    degenerate_family_extra_fiber,
    degenerate_family_split_fiber,
    degenerate_family_symmetric,
    degenerate_family_three_vertex,
    degenerate_family_two_vertex,
    pt,
    random_marking,
    random_moebius,
    z_squared_chain_family,
    z_squared_cover,
    z_squared_fiber_cover,
    z_squared_map,
)
from sphere_trees import covers, limits, moduli
from sphere_trees import serialize as ser
from sphere_trees.covers import (
    MarkedSphereCover,
    Portrait,
    TreeCover,
    cover_from_marked,
    cover_iso,
    extract_portrait,
    global_degree,
    leaf_degree,
    rational_from_divisors,
    reconstruct_cover,
    validate_cover,
    validate_portrait,
)
from sphere_trees.errors import (
    InconsistentDegree,
    InvalidFamily,
    InvariantBreach,
    NotRealizable,
    OverlappingDivisors,
    SphereTreesError,
    UnitOnDivisor,
)
from sphere_trees.gaussian import GR_ONE, GR_ZERO, gr
from sphere_trees.limits import limit_cover
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres, sphere_as_tree, twist
from sphere_trees.projective import Moebius
from sphere_trees.rational import RationalMap, local_degree, poly_mul
from sphere_trees.trees import MarkedTree, neighbors

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestPortrait:
    def test_z_squared_ok(self):
        _, portrait = z_squared_cover()
        assert validate_portrait(portrait) == []

    def test_fiber_sum_violation(self):
        p = Portrait.make({"y0": "z0", "yinf": "zinf", "y1": "z1", "ym1": "z1"},
                          {"y0": 2, "yinf": 2, "y1": 2, "ym1": 1}, 2)
        problems = validate_portrait(p)
        assert any("fiber" in x for x in problems)

    def test_degree_one_rejected(self):
        p = Portrait.make({"a": "x", "b": "y", "c": "z"},
                          {"a": 1, "b": 1, "c": 1}, 1)
        assert any("< 2" in x for x in validate_portrait(p))
        assert validate_portrait(p, allow_degree_one=True) == []


class TestValidateCover:
    def test_z_squared_valid(self):
        cover, portrait = z_squared_cover()
        assert validate_cover(cover, expected_portrait=portrait) == []
        assert global_degree(cover) == 2

    def test_wrong_map_caught(self):
        cover, _ = z_squared_cover()
        cube = RationalMap.from_coeffs([gr(0)] * 3 + [gr(1)], [gr(1)])
        broken = TreeCover.make(cover.source, cover.target, cover.vm, {0: cube})
        assert validate_cover(broken) != []

    def test_edge_degree_coherence_caught(self):
        cover = limit_cover(degenerate_family_two_vertex())
        # replace the deeper map by one with a different edge degree
        v = 1
        w = cover.vm[v]
        bad = RationalMap.from_coeffs([gr(0), gr(1)], [gr(1)])
        broken = TreeCover.make(cover.source, cover.target, cover.vm,
                                {**dict(cover.maps), v: bad})
        assert validate_cover(broken) != []

    def test_degree_one_isomorphism_cover(self):
        sphere = MarkedSphere.make({"a": pt(0), "b": pt(1), "c": INF})
        t = sphere_as_tree(sphere)
        ident = RationalMap.from_coeffs([gr(0), gr(1)], [gr(1)])
        cover = TreeCover.make(t, t, {"a": "a", "b": "b", "c": "c", 0: 0}, {0: ident})
        assert validate_cover(cover) == []
        assert global_degree(cover) == 1

    @pytest.mark.parametrize("v", [0, 1])
    def test_constant_vertex_map_is_a_diagnostic(self, v):
        # the per-cover table skips a constant map instead of failing on it
        cover = limit_cover(degenerate_family_two_vertex())
        constant = RationalMap.from_coeffs([gr(2)], [gr(1)])
        broken = TreeCover.make(cover.source, cover.target, cover.vm,
                                {**dict(cover.maps), v: constant})
        assert f"map at vertex {v} is constant" in validate_cover(broken)
        leaf = next(n for n in neighbors(cover.source.shape, v) if isinstance(n, str))
        with pytest.raises(InvalidFamily, match=f"map at vertex {v} is constant"):
            leaf_degree(broken, leaf)
        with pytest.raises(InvalidFamily):
            extract_portrait(broken)

    def test_portrait_mismatch_names_each_leaf_and_the_degree(self):
        cover, portrait = z_squared_fiber_cover(gr(2))
        f = {**portrait.f_dict, "y1": "zc", "yc": "z1"}
        assert validate_cover(cover, Portrait.make(f, portrait.deg_dict, 2)) == [
            "leaf 'y1': image 'z1', expected 'zc'",
            "leaf 'yc': image 'zc', expected 'z1'"]
        deg = {**portrait.deg_dict, "y0": 1, "y1": 2}
        assert validate_cover(cover, Portrait.make(portrait.f_dict, deg, 3)) == [
            "leaf 'y0': local degree 2, expected 1",
            "leaf 'y1': local degree 1, expected 2",
            "degree 2, expected 3"]

    def test_inconsistent_degree(self):
        cover = limit_cover(degenerate_family_two_vertex())
        sq = z_squared_map()
        quartic = RationalMap.make(poly_mul(sq.num, sq.num, GR_ZERO), sq.den)
        broken = TreeCover.make(cover.source, cover.target, cover.vm,
                                {**dict(cover.maps), 0: quartic})
        with pytest.raises(InconsistentDegree):
            global_degree(broken)


class TestCoverFromMarked:
    def spheres(self):
        cover, portrait = z_squared_cover()
        y = MarkedSphere.make(dict(cover.source.edge_points(0)))
        z = MarkedSphere.make(dict(cover.target.edge_points(0)))
        return y, z, portrait

    def test_constant_map_is_invalid_family(self):
        y, z, portrait = self.spheres()
        constant = RationalMap.from_coeffs([gr(0)], [gr(1)])
        with pytest.raises(InvalidFamily) as info:
            cover_from_marked(MarkedSphereCover(constant, y, z), portrait)
        assert "map at vertex 0 is constant" in info.value.witness

    def test_witness_is_the_validation(self):
        y, z, portrait = self.spheres()
        cube = RationalMap.from_coeffs([gr(0)] * 3 + [gr(1)], [gr(1)])
        with pytest.raises(InvalidFamily) as info:
            cover_from_marked(MarkedSphereCover(cube, y, z), portrait)
        lifted = TreeCover.make(sphere_as_tree(y), sphere_as_tree(z),
                                {0: 0, **portrait.f_dict}, {0: cube})
        assert info.value.witness == validate_cover(lifted, portrait) != []


class TestRationalFromDivisors:
    def test_z_squared(self):
        assert rational_from_divisors([pt(0), pt(0)], [INF, INF], pt(1)) == z_squared_map()

    def test_affine_unit(self):
        f = rational_from_divisors([pt(1)], [INF], pt(0))
        assert f.apply(pt(0)) == pt(1)
        assert f.apply(pt(1)) == pt(0)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingDivisors):
            rational_from_divisors([pt(0)], [pt(0)], pt(1))

    def test_unit_on_divisor_rejected(self):
        with pytest.raises(UnitOnDivisor):
            rational_from_divisors([pt(0)], [INF], pt(0))

    def test_built_map_is_already_reduced(self):
        # no gcd runs: coprime numerator and monic denominator by construction
        cases = [([pt(0), pt(0), pt(1)], [INF, pt(2), pt(2)], pt(3)),
                 ([INF, pt("1/2", 1)], [pt(-1), pt(0)], pt(1)),
                 ([pt(1), pt(1), pt(1)], [pt(0), INF, INF], pt(0, 1))]
        for zeros, poles, unit in cases:
            f = rational_from_divisors(zeros, poles, unit)
            assert f.den[-1] == gr(1)
            assert RationalMap.make(f.num, f.den) == f
            assert f.apply(unit) == pt(1)

    def test_matches_reduced_construction(self):
        # oracle: the two-RationalMap.make route, gcd-reduced and rescaled
        def oracle(zeros, poles, unit):
            num = den = [GR_ONE]
            for p in zeros:
                if not p.is_infinity():
                    num = poly_mul(num, [-p.to_affine(), GR_ONE], GR_ZERO)
            for p in poles:
                if not p.is_infinity():
                    den = poly_mul(den, [-p.to_affine(), GR_ONE], GR_ZERO)
            f = RationalMap.make(num, den)
            value = f.apply(unit).to_affine()
            return RationalMap.make(f.num, [c * value for c in f.den])

        def coordinate(rng, wide):
            den = rng.randint(1, 10**6) if wide else rng.randint(1, 3)
            return Fraction(rng.randint(-4 * den, 4 * den), den)

        rng = random.Random(20)
        unit_at_inf = inf_on_divisor = wide_cases = 0
        for case in range(3000):
            wide = case % 12 == 0  # denominators up to 10**6 in one case of twelve
            support = sorted({INF} | {pt(coordinate(rng, wide), coordinate(rng, wide))
                                      for _ in range(3)}, key=lambda q: q.sort_key())
            if len(support) < 3:
                continue
            rng.shuffle(support)
            unit, rest = support[0], support[1:]
            cut = rng.randint(1, len(rest) - 1)
            zeros = [q for q in rest[:cut] for _ in range(rng.randint(1, 5))]
            poles = [q for q in rest[cut:] for _ in range(rng.randint(1, 5))]
            short = zeros if len(zeros) < len(poles) else poles
            short += short[-1:] * abs(len(zeros) - len(poles))
            got, want = rational_from_divisors(zeros, poles, unit), oracle(zeros, poles, unit)
            assert got == want and repr(got) == repr(want)
            unit_at_inf += unit == INF
            inf_on_divisor += INF in zeros or INF in poles
            wide_cases += wide and max(q.u.c for q in support if q != INF) > 1000
        # the unit at infinity, and infinity among the zeros or the poles, both drawn often
        assert unit_at_inf > 300 and inf_on_divisor > 1500 and wide_cases > 220


class TestReconstruct:
    def test_single_vertex_z_squared(self):
        cover, portrait = z_squared_cover()
        rebuilt = reconstruct_cover(cover.source, portrait)
        assert validate_cover(rebuilt, expected_portrait=portrait) == []
        assert rebuilt.map_at(0) == z_squared_map()
        assert cover_iso(rebuilt, cover)

    def test_corpus_round_trip(self, cover_corpus):
        for cover in cover_corpus:
            portrait = extract_portrait(cover)
            rebuilt = reconstruct_cover(cover.source, portrait)
            assert validate_cover(rebuilt, expected_portrait=portrait) == []
            assert cover_iso(rebuilt, cover)

    def test_identity_covers_round_trip(self, tree_corpus):
        # validate_cover accepts degree 1, so reconstruction must rebuild it
        ident = RationalMap.from_coeffs([gr(0), gr(1)], [gr(1)])
        trees = [t for t in tree_corpus if len(t.shape.internal) > 1][:8]
        assert len(trees) == 8
        for t in trees:
            vm = {**{x: x for x in t.labels}, **{v: v for v in t.shape.internal}}
            cover = TreeCover.make(t, t, vm, {v: ident for v in t.shape.internal})
            portrait = extract_portrait(cover)
            assert portrait.d == 1 and validate_cover(cover) == []
            rebuilt = reconstruct_cover(t, portrait)
            assert validate_cover(rebuilt, expected_portrait=portrait) == []
            assert cover_iso(rebuilt, cover)

    def test_deterministic_output(self):
        cover = branching_cubic_cover()
        portrait = extract_portrait(cover)
        first = reconstruct_cover(cover.source, portrait)
        second = reconstruct_cover(cover.source, portrait)
        assert first == second

    def test_unrealizable_portrait(self):
        cover, portrait = z_squared_cover()
        # swap which fiber carries the critical weight: contradicts the marking
        bad = Portrait.make(portrait.f_dict,
                            {"y0": 1, "yinf": 2, "y1": 2, "ym1": 1}, 2)
        with pytest.raises(NotRealizable):
            reconstruct_cover(cover.source, bad)


def shifted_at_first_vertex(cover: TreeCover) -> TreeCover:
    """cover with the map at its smallest internal vertex followed by w -> w + 1, which
    moves the edge point images off the target's marked points."""
    v = min(cover.source.shape.internal)
    maps = dict(cover.maps)
    maps[v] = maps[v].postcompose(Moebius.make(GR_ONE, GR_ONE, GR_ZERO, GR_ONE))
    return TreeCover.make(cover.source, cover.target, dict(cover.vertex_map), maps)


def counted(monkeypatch) -> list:
    """The covers validate_cover is called on from covers or limits, in call order."""
    calls = []

    def counting(cover, expected_portrait=None):
        calls.append(cover)
        return validate_cover(cover, expected_portrait)
    for module in (covers, limits):
        monkeypatch.setattr(module, "validate_cover", counting)
    return calls


class TestCertifiedOnce:
    def test_a_limit_cover_is_validated_once(self, monkeypatch):
        calls = counted(monkeypatch)
        cover = limit_cover(degenerate_family_three_vertex())
        assert len(calls) == 1 and calls[0] is cover

    def test_reconstruct_cover_validates_what_it_builds(self, monkeypatch):
        cover, portrait = z_squared_cover()
        calls = counted(monkeypatch)
        rebuilt = reconstruct_cover(cover.source, portrait)
        assert len(calls) == 1 and calls[0] is rebuilt

    def test_reconstruct_cover_refuses_an_invalid_build(self, monkeypatch):
        cover, portrait = z_squared_cover()
        bad = shifted_at_first_vertex(covers._build_cover(cover.source, portrait))
        violations = validate_cover(bad, portrait)
        assert violations
        monkeypatch.setattr(covers, "_build_cover", lambda source, p: bad)
        with pytest.raises(NotRealizable, match="not a valid cover") as info:
            reconstruct_cover(cover.source, portrait)
        assert info.value.witness == violations

    def test_a_corrupt_rebuilt_cover_breaks_the_limit(self, monkeypatch):
        build = covers._build_cover
        monkeypatch.setattr(limits, "_build_cover",
                            lambda source, p: shifted_at_first_vertex(build(source, p)))
        with pytest.raises(InvariantBreach, match="assembled limit is not a valid cover") as info:
            limit_cover(degenerate_family_three_vertex())
        assert info.value.witness and all(isinstance(w, str) for w in info.value.witness)

    # each cover keeps its verdict: the diagnostics before the portrait comparison and the
    # extracted portrait; every call compares against its own expected portrait
    def test_the_returned_list_is_fresh(self):
        cover, portrait = z_squared_cover()
        bad = shifted_at_first_vertex(cover)
        violations = validate_cover(bad, portrait)
        assert violations
        validate_cover(bad, portrait).clear()
        validate_cover(bad).append("extra")
        assert validate_cover(bad, portrait) == violations
        ok = validate_cover(cover, portrait)
        ok.append("extra")
        assert validate_cover(cover, portrait) == validate_cover(cover) == []

    def test_each_call_compares_its_own_portrait(self):
        cover, portrait = z_squared_fiber_cover(gr(2))
        fresh = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)
        assert validate_cover(fresh, portrait) == []
        other = Portrait.make(portrait.f_dict, {**portrait.deg_dict, "y0": 1}, 2)
        assert validate_cover(fresh, other) == ["leaf 'y0': local degree 2, expected 1"]
        assert validate_cover(fresh, portrait) == validate_cover(fresh) == []
        assert extract_portrait(fresh) is extract_portrait(fresh) == portrait

    def test_early_verdicts_ignore_the_expected_portrait(self, monkeypatch):
        cover = limit_cover(degenerate_family_two_vertex())
        portrait = extract_portrait(cover)
        other = Portrait.make(portrait.f_dict, {**portrait.deg_dict, "y0": 2, "ye": 2}, 3)
        sq = z_squared_map()
        quartic = RationalMap.make(poly_mul(sq.num, sq.num, GR_ZERO), sq.den)
        edge_broken = TreeCover.make(cover.source, cover.target, {**cover.vm, 1: 0}, dict(cover.maps))
        inconsistent = TreeCover.make(cover.source, cover.target, cover.vm,
                                      {**dict(cover.maps), 0: quartic})
        with pytest.raises(InconsistentDegree):
            global_degree(inconsistent)
        for broken in (edge_broken, inconsistent):
            lines = validate_cover(broken)
            assert lines and validate_cover(broken, portrait) == lines
            assert validate_cover(broken, other) == lines
        assert "edge ['0', '1'] does not map to a target edge" in validate_cover(edge_broken)
        # past every local check, a degree sum that differs is the last line, and no
        # portrait is kept for the comparison
        fresh = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)

        def differing(c):
            raise InconsistentDegree("fiber degree sums differ across target vertices")
        monkeypatch.setattr(covers, "global_degree", differing)
        lines = ["fiber degree sums differ across target vertices"]
        assert validate_cover(fresh, other) == validate_cover(fresh, portrait) == lines
        assert validate_cover(fresh) == lines

    def test_a_second_validation_recomputes_nothing(self, monkeypatch):
        cover = limit_cover(z_squared_chain_family((1, 1, 2, 2, 0, 3, 4)))
        portrait = extract_portrait(cover)
        fresh = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)
        assert validate_cover(fresh, portrait) == []
        calls = []
        apply = RationalMap.apply
        monkeypatch.setattr(RationalMap, "apply",
                            lambda self, p: calls.append("apply") or apply(self, p))
        for name in ("local_degree", "edge_table", "extract_portrait", "validate_tree"):
            spied = getattr(covers, name)
            monkeypatch.setattr(covers, name,
                                lambda *args, _f=spied, _n=name: calls.append(_n) or _f(*args))
        other = Portrait.make(portrait.f_dict, portrait.deg_dict, portrait.d + 1)
        assert validate_cover(fresh, portrait) == validate_cover(fresh) == []
        assert validate_cover(fresh, other) == [f"degree {portrait.d}, expected {portrait.d + 1}"]
        assert calls == []


def reconstruction_inputs(cover, rng, rounds=6):
    """(kind, source, portrait) around a cover: the cover's own pair, then
    random re-markings of its source shape, leaf degrees shuffled within each
    fiber, and the images of two leaves of equal degree swapped."""
    src, p = cover.source, extract_portrait(cover)
    f, deg = dict(p.f_dict), dict(p.deg_dict)
    yield "original", src, p
    swaps = [(a, b) for a, b in combinations(sorted(f), 2) if f[a] != f[b] and deg[a] == deg[b]]
    for _ in range(rounds):
        yield "re-marked", random_marking(src.shape, rng), p
        shuffled = dict(deg)
        for z in sorted(p.z_labels):
            fiber = sorted(y for y in f if f[y] == z)
            ks = [deg[y] for y in fiber]
            rng.shuffle(ks)
            shuffled.update(zip(fiber, ks))
        yield "shuffled", src, Portrait.make(f, shuffled, p.d)
        if swaps:
            a, b = rng.choice(swaps)
            yield "swapped", src, Portrait.make({**f, a: f[b], b: f[a]}, deg, p.d)


class TestReconstructOutcomes:
    def test_outcome_is_a_certified_cover_or_not_realizable(self, cover_corpus):
        # every outcome: NotRealizable, or a cover over the given source that
        # validates and reproduces the given portrait; no other exception
        started = time.perf_counter()
        bases = list(cover_corpus) + [limit_cover(z_squared_chain_family(c))
                                      for c in CHAIN_CENTRES]
        rng = random.Random(1729)
        outcomes = Counter()
        for cover in bases:
            for kind, src, p in reconstruction_inputs(cover, rng):
                try:
                    rebuilt = reconstruct_cover(src, p)
                except NotRealizable:
                    outcomes[kind, "not realizable"] += 1
                    continue
                outcomes[kind, "cover"] += 1
                assert rebuilt.source == src
                assert extract_portrait(rebuilt) == p
                assert validate_cover(rebuilt) == []
                if src == cover.source and p == extract_portrait(cover):
                    assert cover_iso(rebuilt, cover)
        assert outcomes["original", "cover"] == len(bases)
        for kind in ("re-marked", "shuffled", "swapped"):
            assert outcomes[kind, "not realizable"] > 0
        assert time.perf_counter() - started < 10


class TestDeepChains:
    # Each peel adds a sentinel target label for the peeled vertex; the
    # sentinels that are live at once must stay distinct.
    @pytest.mark.parametrize("centres, depth", [
        ((0, 0, 1), 3), ((1, 1, 0), 4), ((1, 1, 2, 2, 0, 3, 4), 6)])
    def test_reconstruction_of_deep_source_chain(self, centres, depth):
        cover = limit_cover(z_squared_chain_family(centres))
        assert len(cover.source.shape.internal) == depth
        portrait = extract_portrait(cover)
        rebuilt = reconstruct_cover(cover.source, portrait)
        assert validate_cover(rebuilt, expected_portrait=portrait) == []
        assert cover_iso(rebuilt, cover)


def reconstruct_digests() -> list[str]:
    """'base i kind outcome' of reconstruct_cover on each input around a corpus of
    covers: the limit covers of the degenerate families and of the z^2 chains, the
    branching cubic, and the covers bench's patterns at seeds 1-3, each followed by its
    ``reconstruction_inputs`` at one fixed seed.  The outcome is the sha256 of the rebuilt
    cover's canonical JSON, or the error code.  Rewrite the pin with `PYTHONPATH=src:tests
    python3 -c "import test_covers as t; print(*t.reconstruct_digests(), sep=chr(10))"
    > tests/golden/reconstruct_corpus.sha`"""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import generators as gen
    from workloads import Covers

    bases = [(fam.__name__.removeprefix("degenerate_family_"), limit_cover(fam()))
             for fam in (degenerate_family_two_vertex, degenerate_family_symmetric,
                         degenerate_family_three_vertex, degenerate_family_extra_fiber,
                         degenerate_family_split_fiber, degenerate_family_double_fold)]
    bases += [("chain-" + "".join(map(str, c)), limit_cover(z_squared_chain_family(c)))
              for c in CHAIN_CENTRES]
    bases.append(("branching_cubic", branching_cubic_cover()))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        bases += [(f"d{d}-{''.join(map(str, pattern))}-s{seed}",
                   limit_cover(gen.cover_family(d, pattern, rng)))
                  for d, pattern in Covers.PATTERNS]
    rng = random.Random(2718)
    lines = []
    for name, cover in bases:
        for i, (kind, src, p) in enumerate(reconstruction_inputs(cover, rng)):
            try:
                dump = ser.canonical_dumps(ser.cover_to_json(reconstruct_cover(src, p)))
                outcome = hashlib.sha256(dump.encode()).hexdigest()
            except SphereTreesError as exc:
                outcome = exc.code
            lines.append(f"{name} {i} {kind} {outcome}")
    return lines


def test_reconstructions_are_pinned():
    # byte identity of reconstruct_cover, rebuilt covers and error codes alike
    golden = GOLDEN / "reconstruct_corpus.sha"
    assert reconstruct_digests() == golden.read_text().splitlines()


def test_reconstructions_do_not_depend_on_the_hash_seed():
    # the peel loop walks sets of vertices and labels; its output must not follow their order
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})",
        "import test_covers",
        "print(*test_covers.reconstruct_digests(), sep=chr(10))",
    ])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1]


class TestLocalDegreeTable:
    @pytest.mark.parametrize("centres", [(0, 0, 1), (1, 1, 2, 2, 0, 3, 4)])
    def test_each_local_degree_computed_once(self, monkeypatch, centres):
        cover = limit_cover(z_squared_chain_family(centres))
        portrait = extract_portrait(cover)
        fresh = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)
        calls = []

        def counted(f, p, *image):
            calls.append((f, p))
            return local_degree(f, p, *image)
        monkeypatch.setattr(covers, "local_degree", counted)
        assert validate_cover(fresh, expected_portrait=portrait) == []
        assert extract_portrait(fresh) == portrait
        assert cover_iso(fresh, fresh)
        edge_points = [(fresh.map_at(v), p) for v in fresh.source.shape.internal
                       for p in fresh.source.edge_points(v).values()]
        assert sorted(map(repr, calls)) == sorted(map(repr, edge_points))

    @pytest.mark.parametrize("centres", [(0, 0, 1), (1, 1, 2, 2, 0, 3, 4)])
    def test_one_map_application_per_edge_point(self, monkeypatch, centres):
        # the local degree reuses the image the table has just computed
        cover = limit_cover(z_squared_chain_family(centres))
        fresh = TreeCover(cover.source, cover.target, cover.vertex_map, cover.maps)
        calls = []
        apply = RationalMap.apply
        monkeypatch.setattr(RationalMap, "apply",
                            lambda self, p: calls.append((self, p)) or apply(self, p))
        for v in fresh.source.shape.internal:
            covers.edge_table(fresh, v)
        edge_points = [(fresh.map_at(v), p) for v in fresh.source.shape.internal
                       for p in fresh.source.edge_points(v).values()]
        assert sorted(map(repr, calls)) == sorted(map(repr, edge_points))

    @pytest.mark.parametrize("centres", [(0, 0, 1), (1, 1, 2, 2, 0, 3, 4)])
    def test_reconstruction_reads_internal_edge_degrees_only(self, monkeypatch, centres):
        # the construction needs local degrees only at internal edges; the
        # rebuilt cover's own table supplies the rest, once per edge point
        cover = limit_cover(z_squared_chain_family(centres))
        portrait = extract_portrait(cover)
        calls = []

        def counted(f, p, *image):
            calls.append((f, p))
            return local_degree(f, p, *image)
        monkeypatch.setattr(covers, "local_degree", counted)
        rebuilt = reconstruct_cover(cover.source, portrait)
        shape = rebuilt.source.shape
        edge_points = sum(len(rebuilt.source.edge_points(v)) for v in shape.internal)
        internal_edges = sum(1 for e in shape.edges if all(isinstance(x, int) for x in e))
        assert len(calls) == edge_points + internal_edges


class TestCoverIso:
    def test_twisted_copy(self, cover_corpus):
        rng = random.Random(21)
        cover = cover_corpus[0]
        m = {v: random_moebius(rng) for v in cover.source.shape.internal}
        source = twist(cover.source, m)
        maps = {v: cover.map_at(v).precompose(m[v].inverse())
                for v in cover.source.shape.internal}
        other = TreeCover.make(source, cover.target, cover.vm, maps)
        assert cover_iso(cover, other)

    def test_different_fiber_point(self):
        # same combinatorial portrait, different marked cross-ratios
        c1, _ = z_squared_fiber_cover(gr(2))
        c2, _ = z_squared_fiber_cover(gr(3))
        assert not cover_iso(c1, c2)

    def test_swapped_fiber_points(self):
        # swapping the values of the two marked preimages moves the class
        c1, portrait = z_squared_fiber_cover(gr(2))
        y = MarkedSphere.make({
            "y0": pt(0), "yinf": INF, "y1": pt(1), "ym1": pt(-1),
            "yc": pt(-2), "ymc": pt(2)})
        z = MarkedSphere.make({"z0": pt(0), "zinf": INF, "z1": pt(1), "zc": pt(4)})
        c2 = cover_from_marked(MarkedSphereCover(z_squared_map(), y, z), portrait)
        assert not cover_iso(c1, c2)

    def test_chebyshev_self(self):
        cover, portrait = chebyshev_cover()
        assert cover_iso(cover, cover)
        assert extract_portrait(cover) == portrait

    def test_permuted_internal_ids(self):
        from conftest import relabel_internal_ids
        cover = limit_cover(degenerate_family_two_vertex())
        relabeled = relabel_internal_ids(cover, source_shift=10, target_shift=20)
        assert validate_cover(relabeled) == []
        assert cover_iso(cover, relabeled)

    def test_swapped_vertex_images_are_a_breach(self, cover_corpus):
        # swapping the images of two source vertices of equal degree keeps
        # the portrait and the sources but breaks the induced target map
        swaps = 0
        for c in cover_corpus:
            for v1, v2 in combinations(sorted(c.source.shape.internal), 2):
                if c.vm[v1] == c.vm[v2] or c.map_at(v1).degree != c.map_at(v2).degree:
                    continue
                vm = dict(c.vm)
                vm[v1], vm[v2] = vm[v2], vm[v1]
                swapped = TreeCover.make(c.source, c.target, vm, dict(c.maps))
                for a, b in ((c, swapped), (swapped, c)):
                    with pytest.raises(InvariantBreach, match="target vertex map"):
                        cover_iso(a, b)
                swaps += 1
        assert swaps


class TestBranchingCubic:
    """Four-vertex chain whose first peel leaves two components."""

    def test_hand_built_cover_is_valid(self):
        cover = branching_cubic_cover()
        assert validate_cover(cover) == []
        assert global_degree(cover) == 3
        images = [cover.vm[v] for v in cover.source.shape.internal]
        assert sorted(images) == [0, 0, 1, 1]

    def test_reconstruction_merges_components(self):
        cover = branching_cubic_cover()
        portrait = extract_portrait(cover)
        rebuilt = reconstruct_cover(cover.source, portrait)
        assert validate_cover(rebuilt, expected_portrait=portrait) == []
        assert cover_iso(rebuilt, cover)


def swapped_cubic(a: str, b: str):
    """The branching cubic's source with the images of leaves a and b swapped."""
    cover = branching_cubic_cover()
    p = extract_portrait(cover)
    f = dict(p.f_dict)
    return cover.source, Portrait.make({**f, a: f[b], b: f[a]}, p.deg_dict, p.d)


def leafless_centre():
    """A source of three spheres around a sphere without leaves, and a degree-7
    portrait that sends all three to one target vertex; the centre then sees
    only the label of that vertex."""
    leaves, edges, marking, fmap, degmap = [], [(0, 3), (1, 3), (2, 3)], {}, {}, {}
    for v, k, c in ((0, 1, 16), (1, 2, 4), (2, 4, 2)):  # f_v = z^k sends c to 16
        marking[v] = {3: pt(c)}
        for z, p in (("A", pt(0)), ("B", pt(1)), ("C", INF)):
            leaves.append(f"{z}{v}")
            edges.append((f"{z}{v}", v))
            marking[v][f"{z}{v}"] = p
            fmap[f"{z}{v}"], degmap[f"{z}{v}"] = f"z{z}", k
    marking[3] = {0: pt(0), 1: pt(1), 2: INF}
    source = TreeOfSpheres.make(MarkedTree.make(leaves, [0, 1, 2, 3], edges), marking)
    return source, Portrait.make(fmap, degmap, 7)


class TestPeelLoop:
    """Reconstruction peels the whole source in one chain of target vertices."""

    @pytest.mark.parametrize("make", [
        branching_cubic_cover,
        lambda: limit_cover(z_squared_chain_family(CHAIN_CENTRES[-1])),
    ], ids=["branching_cubic", "deep_chain"])
    def test_one_target_tree_and_no_isomorphism(self, make, monkeypatch):
        # the fiber of a peeled target vertex spans every component of what is
        # left, so no component gets a target of its own to be merged
        cover = make()
        portrait = extract_portrait(cover)
        isos, built = [], []
        monkeypatch.setattr(covers, "iso_of_spheres",
                            lambda *a: isos.append(a) or moduli.iso_of_spheres(*a))
        make_tree = TreeOfSpheres.make
        monkeypatch.setattr(TreeOfSpheres, "make", classmethod(
            lambda cls, *a: built.append(make_tree(*a)) or built[-1]))
        rebuilt = reconstruct_cover(cover.source, portrait)
        assert isos == []
        assert len(built) == 1 and built[0] is rebuilt.target

    def test_disagreeing_components_reach_validation(self):
        # the two ends of the chain see the target labels z3 and z4 differently,
        # and validate_cover names where
        with pytest.raises(NotRealizable) as info:
            reconstruct_cover(*swapped_cubic("d3", "d4"))
        assert str(info.value) == "reconstructed object is not a valid cover"
        assert info.value.witness == [
            "vertex 3: image of the edge point toward 'd3' is not the marked point toward 'z4'",
            "vertex 3: fiber over the point toward 'z4' sums to 0, expected 1"]

    def test_last_fiber_must_see_every_remaining_label(self):
        # vertex 3 does not see z2, so it cannot lie over the last target vertex
        with pytest.raises(NotRealizable) as info:
            reconstruct_cover(*swapped_cubic("c2a", "d4"))
        assert str(info.value) == "single-vertex source does not cover every target label"
        assert info.value.witness is None

    def test_leafless_last_vertex_is_not_realizable(self):
        # no chart can be pinned from a single label
        with pytest.raises(NotRealizable, match="fewer than two target labels"):
            reconstruct_cover(*leafless_centre())
