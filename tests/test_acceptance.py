"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here and nothing is calibrated elsewhere.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    DATA_DIR,
    INF,
    degenerate_family_two_vertex,
    pt,
    random_moebius,
    z_squared_map,
)
from sphere_trees.covers import (
    MarkedSphereCover,
    Portrait,
    TreeCover,
    cover_from_marked,
    cover_iso,
    extract_portrait,
    reconstruct_cover,
    validate_cover,
)
from sphere_trees.dynamics import DynSystem, dyn_membership, synthesize_dyn, validate_dyn
from sphere_trees.errors import NotAdmissible
from sphere_trees.gaussian import gr
from sphere_trees.laurent import LaurentMap, LaurentPoly, LaurentPoint
from sphere_trees.limits import (
    CoverFamily,
    LaurentFamily,
    NumericConfigSequence,
    limit_cover,
    limit_tree,
    numeric_limit_tree,
)
from sphere_trees.moduli import (
    MarkedSphere,
    TreeOfSpheres,
    canonical_form,
    embed,
    spheres_iso,
    twist,
)
from sphere_trees.plumbing import plumb_family
from sphere_trees.rational import local_degree
from sphere_trees.trees import (
    is_admissible,
    tree_from_partitions,
    tree_partitions,
    trees_isomorphic,
)


def report(n: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {n}: PASS ({time.perf_counter() - started:.1f}s) {label}")


def fs(*blocks):
    return frozenset(frozenset(b) for b in blocks)


def test_criterion_1_partition_round_trip(small_shapes):
    started = time.perf_counter()
    total = 0
    for n in (3, 4, 5, 6):
        for t in small_shapes[n]:
            ps = tree_partitions(t)
            assert is_admissible(ps) is None
            assert trees_isomorphic(tree_from_partitions(ps), t)
            total += 1
    assert total == 1 + 4 + 26 + 236
    assert time.perf_counter() - started < 10
    report(1, f"tree/partition round trip on {total} exhaustive shapes", started)


def test_criterion_2_admissibility_completeness():
    started = time.perf_counter()
    cases = [
        ([fs(["1"], ["2", "3", "4"])], 1),
        ([fs(["1"], ["2"], ["3", "4"])], 2),
        ([fs(["1"], ["2"], ["3", "4"]),
          fs(["1", "2"], ["3"], ["4"]),
          fs(["1"], ["2"], ["3"], ["4"])], 3),
    ]
    for ps, expected_condition in cases:
        violation = is_admissible(ps)
        assert violation is not None and violation.condition == expected_condition
        with pytest.raises(NotAdmissible):
            tree_from_partitions(ps)
    assert time.perf_counter() - started < 1
    report(2, "each admissibility condition rejected with its index", started)


def test_criterion_3_embedding_injectivity(tree_corpus):
    started = time.perf_counter()
    rng = random.Random(77)
    embeddings = [embed(t) for t in tree_corpus]
    canonicals = [canonical_form(t) for t in tree_corpus]
    # twisted representatives of the same class
    for i in rng.sample(range(len(tree_corpus)), 120):
        t = tree_corpus[i]
        twisted = twist(t, {v: random_moebius(rng) for v in t.shape.internal})
        assert spheres_iso(t, twisted)
        assert embed(twisted) == embeddings[i]
        assert canonical_form(twisted) == canonicals[i]
    # cross pairs: embedding equality, isomorphism, and canonical equality agree
    for _ in range(500):
        i, j = rng.randrange(len(tree_corpus)), rng.randrange(len(tree_corpus))
        a, b = tree_corpus[i], tree_corpus[j]
        if a.labels != b.labels:
            continue
        same_embed = embeddings[i] == embeddings[j]
        assert same_embed == spheres_iso(a, b) == (canonicals[i] == canonicals[j])
    assert time.perf_counter() - started < 30
    report(3, f"embedding injectivity on {len(tree_corpus)} trees", started)


def test_criterion_4_density_round_trip(tree_corpus):
    started = time.perf_counter()
    rng = random.Random(88)
    for t in tree_corpus:
        fam = plumb_family(t)
        assert spheres_iso(limit_tree(fam), t)
    for t in rng.sample(tree_corpus, 150):
        fam = plumb_family(t)
        assert spheres_iso(limit_tree(fam.reparametrize(2)), t)
        assert spheres_iso(limit_tree(fam.twist(random_moebius(rng))), t)
    assert time.perf_counter() - started < 60
    report(4, f"plumb/limit round trip on {len(tree_corpus)} trees "
              "(+150 reparametrized and twisted)", started)


def test_criterion_5_numeric_exact_agreement(tree_corpus):
    started = time.perf_counter()
    checked = 0
    for t in tree_corpus[:50]:
        fam = plumb_family(t)
        exact = limit_tree(fam)
        snapshots, eps = [], []
        for n in range(10, 201):
            e = Fraction(1, n)
            try:
                sphere = fam.evaluate(e)
            except Exception:
                continue  # finitely many collision parameters are skipped
            snap = {}
            for x in sorted(sphere.labels):
                p = sphere.point(x)
                snap[x] = None if p.is_infinity() else p.to_affine().to_complex()
            snapshots.append(snap)
            eps.append(float(e))
        seq = NumericConfigSequence.make(snapshots, eps, tolerance=1e-6,
                                         stability_window=5)
        numeric = numeric_limit_tree(seq)
        assert tree_partitions(numeric.shape) == tree_partitions(exact.shape)
        checked += 1
    assert checked == 50
    assert time.perf_counter() - started < 60
    report(5, "numeric limit agrees with the exact limit on 50 plumbed families",
           started)


def test_criterion_6_cover_reconstruction(cover_corpus):
    started = time.perf_counter()
    assert len(cover_corpus) >= 20
    sizes = {len(c.source.shape.internal) for c in cover_corpus}
    assert {1, 2, 3} <= sizes
    assert {extract_portrait(c).d for c in cover_corpus} == {2, 3}
    for cover in cover_corpus:
        portrait = extract_portrait(cover)
        rebuilt = reconstruct_cover(cover.source, portrait)
        assert validate_cover(rebuilt, expected_portrait=portrait) == []
        assert cover_iso(rebuilt, cover)
    assert time.perf_counter() - started < 30
    report(6, f"reconstruction round trip on {len(cover_corpus)} covers", started)


def test_criterion_7_validation_ledger(cover_corpus):
    started = time.perf_counter()
    for cover in cover_corpus:
        assert validate_cover(cover) == []
        for v in cover.source.shape.internal:
            f = cover.map_at(v)
            pts = cover.source.edge_points(v)
            degs = {n: local_degree(f, p) for n, p in pts.items()}
            assert sum(k - 1 for k in degs.values()) == 2 * f.degree - 2
            for n in pts:
                if isinstance(n, int):
                    other = local_degree(cover.map_at(n),
                                         cover.source.edge_points(n)[v])
                    assert degs[n] == other
    mutants = 0
    for cover in cover_corpus:
        portrait = extract_portrait(cover)
        for y in sorted(cover.source.labels):
            mutated = Portrait.make(
                portrait.f_dict,
                {**portrait.deg_dict, y: portrait.deg(y) + 1},
                portrait.d)
            assert validate_cover(cover, expected_portrait=mutated) != []
            mutants += 1
            if mutants >= 100:
                break
        if mutants >= 100:
            break
    assert mutants >= 100
    # structural mutants: moving one attaching point breaks core checks
    for cover in cover_corpus[:10]:
        v = min(cover.source.shape.internal)
        pts = dict(cover.source.edge_points(v))
        leaf = next(n for n in pts if isinstance(n, str))
        taken = set(pts.values())
        replacement = next(p for p in (pt(17), pt(19), pt(23)) if p not in taken)
        pts[leaf] = replacement
        marking = {w: dict(cover.source.edge_points(w))
                   for w in cover.source.shape.internal}
        marking[v] = pts
        broken_source = TreeOfSpheres.make(cover.source.shape, marking)
        broken = TreeCover.make(broken_source, cover.target, cover.vm,
                                dict(cover.maps))
        assert validate_cover(broken) != []
    assert time.perf_counter() - started < 30
    report(7, f"degree ledger holds; {mutants} degree mutants all rejected", started)


def test_criterion_8_cover_limits():
    started = time.perf_counter()
    LC = lambda x: LaurentPoint.from_poly(LaurentPoly.constant(gr(x)))
    LINF = LaurentPoint.make(LaurentPoly.constant(gr(1)), LaurentPoly.make([]))
    portrait = Portrait.make({"a0": "b0", "a1": "b1", "a2": "b2", "a3": "b1"},
                             {"a0": 2, "a1": 1, "a2": 2, "a3": 1}, 2)
    y_family = LaurentFamily.make(
        {"a0": LC(0), "a1": LC(1), "a2": LINF, "a3": LC(-1)})
    zero = LaurentPoly.make([])
    one = LaurentPoly.constant(gr(1))

    constant = CoverFamily.make(
        portrait, y_family,
        LaurentFamily.make({"b0": LC(0), "b1": LC(1), "b2": LINF}),
        LaurentMap.make([zero, zero, one], [one]))
    cover = limit_cover(constant)
    assert validate_cover(cover, expected_portrait=portrait) == []
    assert len(cover.source.shape.internal) == 1
    assert cover.map_at(0) == z_squared_map()

    rescaling = CoverFamily.make(
        portrait, y_family,
        LaurentFamily.make({"b0": LC(0),
                            "b1": LaurentPoint.from_poly(LaurentPoly.eps()),
                            "b2": LINF}),
        LaurentMap.make([zero, zero, LaurentPoly.eps()], [one]))
    cover2 = limit_cover(rescaling)
    assert validate_cover(cover2, expected_portrait=portrait) == []
    assert cover2.map_at(0) == z_squared_map()

    degenerating = degenerate_family_two_vertex()
    cover3 = limit_cover(degenerating)
    assert validate_cover(cover3, expected_portrait=degenerating.portrait) == []
    assert len(cover3.source.shape.internal) == 2
    assert spheres_iso(cover3.source, limit_tree(degenerating.y_family))
    assert spheres_iso(cover3.target, limit_tree(degenerating.z_family))
    rebuilt = reconstruct_cover(cover3.source, degenerating.portrait)
    assert cover_iso(rebuilt, cover3)
    assert time.perf_counter() - started < 30
    report(8, "cover limits: constant, rescaled, and degenerating families", started)


def test_criterion_9_dynamics_membership(cover_corpus):
    started = time.perf_counter()

    def relabel_target(cover: TreeCover, rename: dict) -> TreeCover:
        shape = cover.target.shape
        from sphere_trees.trees import MarkedTree
        new_shape = MarkedTree.make(
            [rename.get(x, x) for x in shape.leaves], shape.internal,
            [tuple(rename.get(v, v) if isinstance(v, str) else v for v in e)
             for e in shape.edges])
        marking = {}
        for v in shape.internal:
            marking[v] = {rename.get(n, n) if isinstance(n, str) else n: p
                          for n, p in cover.target.edge_points(v).items()}
        target = TreeOfSpheres.make(new_shape, marking)
        vm = {v: rename.get(w, w) if isinstance(w, str) else w
              for v, w in cover.vertex_map}
        return TreeCover.make(cover.source, target, vm, dict(cover.maps))

    # dynamically markable corpus: identify each target label with one of
    # its source preimages
    checked = 0
    memberships = 0
    for cover in cover_corpus:
        rename = {}
        used = set()
        for z in sorted(cover.target.labels):
            preimages = sorted(y for y in cover.source.labels if cover.vm[y] == z)
            pick = next(y for y in preimages if y not in used)
            rename[z] = pick
            used.add(pick)
        dyn_cover = relabel_target(cover, rename)
        assert validate_cover(dyn_cover) == []
        shared = sorted(dyn_cover.source.labels & dyn_cover.target.labels)
        for size in (3, min(4, len(shared))):
            labels = shared[:size]
            if len(labels) < 3:
                continue
            ok, witness = dyn_membership(dyn_cover, labels)
            synthesized = synthesize_dyn(dyn_cover, labels)
            assert ok == (synthesized is not None)
            if ok:
                assert witness is not None
                assert validate_dyn(synthesized) == []
                assert validate_cover(synthesized.cover) == []
                memberships += 1
            checked += 1
    assert checked >= len(cover_corpus)
    assert memberships > 0

    # the constructed 4-point mismatch: source sees 2 where the target sees 4
    portrait = Portrait.make(
        {"p0": "p0", "p1": "p1", "pinf": "pinf", "m": "p1", "pc": "pc", "mc": "pc"},
        {"p0": 2, "p1": 1, "pinf": 2, "m": 1, "pc": 1, "mc": 1}, 2)
    y = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF,
                           "m": pt(-1), "pc": pt(2), "mc": pt(-2)})
    z = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF, "pc": pt(4)})
    mismatch = cover_from_marked(MarkedSphereCover(z_squared_map(), y, z), portrait)
    ok, witness = dyn_membership(mismatch, ["p0", "p1", "pinf", "pc"])
    assert not ok and witness is None
    assert time.perf_counter() - started < 10
    report(9, f"membership consistent on {checked} marked corpus cases; "
              "4-point mismatch rejected", started)


CLI_COMMANDS = [
    ("validate", "star_tree.json"),
    ("validate", "cover_z2.json"),
    ("embed", "star_spheres.json"),
    ("iso", "star_spheres.json", "star_spheres_alt.json"),
    ("limit", "family_eps.json"),
    ("limit", "numeric_sequence.json", "--tolerance", "1e-6", "--window", "5"),
    ("limit-cover", "cover_family_degenerate.json"),
    ("project", "two_vertex_spheres.json", "--labels", "1,3,4"),
    ("reconstruct", "source_z2.json", "portrait_z2.json"),
    ("plumb", "two_vertex_spheres.json"),
    ("sample", "family_eps.json", "--eps", "1/100"),
    ("compat", "compat_sub.json", "two_vertex_spheres.json"),
    ("dyn-member", "cover_dyn.json", "--labels", "p0,p1,pinf"),
    ("validate", "dyn_z_squared.json"),
    ("iso", "dyn_z_squared.json", "dyn_z_squared.json"),
]


GOLDEN_DIR = DATA_DIR.parent / "tests" / "golden"


def _golden_path(command: tuple) -> pathlib.Path:
    """tests/golden/<command words>.out, e.g. sample_family_eps_eps_1-100.out."""
    words = [a.removesuffix(".json").lstrip("-") for a in command]
    return GOLDEN_DIR / ("_".join(words).replace("/", "-").replace(",", "-") + ".out")


def _run_cli(command: tuple) -> subprocess.CompletedProcess:
    argv = [command[0]] + [
        str(DATA_DIR / a) if a.endswith(".json") else a for a in command[1:]]
    return subprocess.run([sys.executable, "-m", "sphere_trees.cli", *argv],
                          capture_output=True,
                          env={"PYTHONPATH": str(DATA_DIR.parent / "src"),
                               "PATH": "/usr/bin:/bin"})


def test_criterion_10_cli_determinism():
    started = time.perf_counter()
    for command in CLI_COMMANDS:
        runs = [_run_cli(command) for _ in range(2)]
        assert runs[0].returncode == 0, (command, runs[0].stderr.decode())
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        json.loads(runs[0].stdout)  # canonical output parses
    assert time.perf_counter() - started < 10
    report(10, f"byte-identical output for {len(CLI_COMMANDS)} CLI commands", started)


@pytest.mark.parametrize("command", CLI_COMMANDS, ids=lambda c: _golden_path(c).stem)
def test_cli_output_matches_golden(command):
    """Each command's stdout equals, byte for byte, the output recorded in
    tests/golden/ (rewrite them with `python tests/test_acceptance.py`)."""
    run = _run_cli(command)
    assert run.returncode == 0, (command, run.stderr.decode())
    assert run.stdout == _golden_path(command).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command in CLI_COMMANDS:
        run = _run_cli(command)
        if run.returncode != 0:
            sys.exit(f"{command}: exit {run.returncode}\n{run.stderr.decode()}")
        _golden_path(command).write_bytes(run.stdout)
