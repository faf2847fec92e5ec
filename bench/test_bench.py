"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Each workload runs with --seconds 1 (a few items) and must print every
end-to-end metric named in BENCHMARK.json; a planted wrong result must trip
each workload's oracle check; a planted raise that the workload does not
expect must fail the run; and the benchmark must refuse to run without the
program.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from sphere_trees import Moebius, TreeCover, TreeOfSpheres, gr, validate_cover  # noqa: E402
from sphere_trees.errors import (  # noqa: E402
    AdmissibilityFailure,
    InvalidFamily,
    NotRealizable,
    NotStabilized,
)
from sphere_trees.limits import NumericTreeOfSpheres  # noqa: E402
from sphere_trees.trees import MarkedTree  # noqa: E402

import generators as gen  # noqa: E402
from worker import Steps, reference_ns  # noqa: E402
from workloads import WORKLOADS, CheckFailed, refused  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_printed(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert report["failed_share"] == result["failed"] / result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counters_repeat_exactly():
    runs = [run_bench("numeric", 1) for _ in range(2)]
    results = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    assert set(results[0]) == {m["name"] for m in SPEC["per_layer"]}
    for name, m in results[0].items():
        if m["unit"] in ("count",) or name.endswith("_hit_ratio"):
            assert results[1][name] == m, name
    assert results[0]["trace.overhead_ratio"]["value"] > 1


def test_reference_loop_leaves_the_collector_as_it_was():
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert reference_ns() > 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("numeric", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# (module file, function, exception) planted per workload: the function
# raises, in the measuring worker only, an exception the workload does not
# expect at that step.  Covers gets its known defect's exception at a step
# where it is not expected.
PLANTED_RAISES = {
    "degenerate": ("limits.py", "limit_tree", "TypeError('planted')"),
    "numeric": ("limits.py", "numeric_limit_tree", "ZeroDivisionError('planted')"),
    "classify": ("moduli.py", "spheres_iso", "RecursionError('planted')"),
    "covers": ("limits.py", "limit_cover",
               "NotRealizable('planted', witness={'@t': 4})"),
}


@pytest.mark.parametrize("workload", sorted(PLANTED_RAISES))
def test_planted_unexpected_raise_fails_the_run(workload, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for sub in ("src", "bench"):
        shutil.copytree(ROOT / sub, tmp_path / sub,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    module, func, exc = PLANTED_RAISES[workload]
    with open(tmp_path / "src" / "sphere_trees" / module, "a", encoding="utf-8") as fh:
        fh.write(f"""

from .errors import NotRealizable  # noqa: E402
_planted_{func} = {func}


def {func}(*args, **kwargs):
    import sys
    if "measure" in sys.argv:
        raise {exc}
    return _planted_{func}(*args, **kwargs)
""")
    proc = run_bench(workload, 0, cwd=tmp_path)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any("unexpected" in p and "planted" in p for p in report["problems"])


def test_only_expected_raises_are_refusals():
    numeric, covers = WORKLOADS["numeric"](), WORKLOADS["covers"]()
    apart = {"snapshots": [{"a": 0j, "b": 1j, "c": None}]}
    touching = {"snapshots": [{"a": 0j, "b": 0j, "c": None}]}
    assert refused(numeric, apart, "limits.numeric", NotStabilized("x"))
    assert refused(numeric, apart, "limits.numeric", AdmissibilityFailure("x"))
    assert not refused(numeric, apart, "limits.numeric_sequence", InvalidFamily("x"))
    assert not refused(numeric, apart, "plumbing.plumb", NotStabilized("x"))
    assert not refused(numeric, apart, "limits.numeric", ZeroDivisionError())
    assert refused(numeric, touching, "limits.numeric", ZeroDivisionError())
    assert not refused(numeric, touching, "limits.numeric", TypeError())
    defect = NotRealizable("fiber degree sums are inconsistent", witness={"@t": 4, "t0": 2})
    assert refused(covers, {}, "covers.reconstruct", defect)
    assert not refused(covers, {}, "limits.limit_cover", defect)
    assert not refused(covers, {}, "covers.reconstruct", NotRealizable("other", witness={}))
    for name in ("degenerate", "classify"):
        w = WORKLOADS[name]()
        assert not refused(w, {}, "limits.limit_tree", NotStabilized("x"))
        assert not refused(w, {}, "moduli.iso", RecursionError())


def first_ok(workload, wanted=lambda outputs: True, seed=11):
    """Inputs and outputs of the first small item that passes and is wanted."""
    rng = random.Random(seed)
    steps = Steps()
    for stratum in workload.WARMUP_PLAN * 8:
        inputs = workload.make(stratum, rng, steps)
        try:
            outputs = workload.run(inputs, steps)
        except Exception:
            continue
        workload.check(inputs, outputs)
        if wanted(outputs):
            return inputs, outputs
    raise AssertionError("no wanted item passed")


def test_planted_wrong_limit_tree_is_caught():
    w = WORKLOADS["degenerate"]()
    inputs, outputs = first_ok(
        w, lambda out: any(len(row) >= 4 for _, row in out["limit"].marking))
    limit = outputs["limit"]
    # Moving one edge point at a vertex of valence >= 4 changes a cross-ratio.
    v, row = next((v, dict(row)) for v, row in limit.marking if len(row) >= 4)
    n = next(iter(row))
    row[n] = next(p for p in gen.POINT_POOL if p not in row.values())
    marking = {w_: dict(r) for w_, r in limit.marking}
    marking[v] = row
    outputs["limit"] = TreeOfSpheres.make(limit.shape, marking)
    with pytest.raises(CheckFailed):
        w.check(inputs, outputs)


def test_planted_wrong_numeric_partition_is_caught():
    w = WORKLOADS["numeric"]()
    inputs, outputs = first_ok(w)
    shape = outputs["limit"].shape
    # Swap two labels that sit on different internal vertices.
    pairs = {}
    for e in shape.edges:
        a, b = tuple(e)
        leaf, v = (a, b) if isinstance(a, str) else (b, a)
        if isinstance(leaf, str):
            pairs.setdefault(v, leaf)
    x, y = list(pairs.values())[:2]
    swap = {x: y, y: x}
    swapped = MarkedTree.make(
        shape.leaves, shape.internal,
        [tuple(swap.get(u, u) if isinstance(u, str) else u for u in e) for e in shape.edges])
    outputs["limit"] = NumericTreeOfSpheres(swapped, outputs["limit"].marking)
    with pytest.raises(CheckFailed):
        w.check(inputs, outputs)


def test_planted_wrong_iso_verdict_is_caught():
    w = WORKLOADS["classify"]()
    inputs, outputs = first_ok(w)
    outputs["verdicts"][2] = not outputs["verdicts"][2]
    with pytest.raises(CheckFailed):
        w.check(inputs, outputs)


def test_planted_wrong_rebuilt_cover_is_caught():
    w = WORKLOADS["covers"]()
    inputs, outputs = first_ok(w)
    rebuilt = outputs["rebuilt"]
    v, f = rebuilt.maps[0]
    shift = Moebius.make(gr(1), gr(1), gr(0), gr(1))  # z -> z + 1
    maps = dict(rebuilt.maps)
    maps[v] = f.postcompose(shift)
    planted = TreeCover.make(rebuilt.source, rebuilt.target, rebuilt.vm, maps)
    outputs["rebuilt"] = planted
    outputs["violations"] = validate_cover(planted, outputs["portrait"])
    with pytest.raises(CheckFailed):
        w.check(inputs, outputs)
    outputs["violations"] = []  # even a validator that missed it is caught by cover_iso
    with pytest.raises(CheckFailed):
        w.check(inputs, outputs)
