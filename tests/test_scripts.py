"""The example scripts run to completion."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
DATA = SCRIPTS.parent / "data"
GOLDEN = SCRIPTS.parent / "tests" / "golden"


@pytest.mark.parametrize("args", [
    ["cover_degeneration.py"],
    ["degeneration_census.py", "5", "1"],
    ["numeric_envelope.py", "5,7", "2"],
    ["cover_envelope.py", "10", "1"],
    ["classify_envelope.py", "16", "1"],
])
def test_script_runs(args):
    r = subprocess.run([sys.executable, str(SCRIPTS / args[0]), *args[1:]],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr


def test_cover_degeneration_output_is_pinned():
    # its fiber maps come from degenerating maps, which no CLI golden pins; rewrite with
    # `PYTHONPATH=src python scripts/cover_degeneration.py > tests/golden/scripts_cover_degeneration.out`
    r = subprocess.run([sys.executable, str(SCRIPTS / "cover_degeneration.py")],
                       capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "scripts_cover_degeneration.out").read_bytes()


def test_cover_envelope_digests_are_pinned():
    # byte identity of limit_cover on degenerating maps, plain and eps-twisted: the columns
    # d, labels, pattern and both sha256 digests; rewrite with `python3 scripts/cover_envelope.py
    # 18 2 | awk 'NR > 1 {print $1, $2, $3, $6, $9}' > tests/golden/scripts_cover_envelope.sha`
    r = subprocess.run([sys.executable, str(SCRIPTS / "cover_envelope.py"), "18", "2"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    rows = [" ".join(line.split()[i] for i in (0, 1, 2, 5, 8)) for line in r.stdout.splitlines()[1:]]
    assert rows == (GOLDEN / "scripts_cover_envelope.sha").read_text().splitlines()


def test_cover_envelope_step_digests_are_pinned():
    # byte identity of what follows limit_cover (portrait, reconstruction, validation and
    # dynamical membership), plain and eps-twisted: the columns d, labels, pattern and both
    # step digests; rewrite with `python3 scripts/cover_envelope.py 18 2 |
    # awk 'NR > 1 {print $1, $2, $3, $10, $11}' > tests/golden/scripts_cover_envelope_steps.sha`
    r = subprocess.run([sys.executable, str(SCRIPTS / "cover_envelope.py"), "18", "2"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    rows = [" ".join(line.split()[i] for i in (0, 1, 2, 9, 10)) for line in r.stdout.splitlines()[1:]]
    assert rows == (GOLDEN / "scripts_cover_envelope_steps.sha").read_text().splitlines()


def test_numeric_envelope_digests_are_pinned():
    # byte identity of numeric_limit_tree's trees and refusal witnesses, plain and twisted,
    # up to 14 labels: the columns n, refusals, wrong and sha256; rewrite with `python3
    # scripts/numeric_envelope.py 8,10,12,14 4 | awk 'NR > 1 {print $1, $4, $5, $6}' >
    # tests/golden/scripts_numeric_envelope.sha`
    r = subprocess.run([sys.executable, str(SCRIPTS / "numeric_envelope.py"), "8,10,12,14", "4"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    rows = [" ".join(line.split()[i] for i in (0, 3, 4, 5)) for line in r.stdout.splitlines()[1:]]
    assert rows == (GOLDEN / "scripts_numeric_envelope.sha").read_text().splitlines()


def test_classify_envelope_digests_are_pinned():
    # byte identity of parse, canonical_form, spheres_iso, project and the canonical dump
    # up to 64 labels: the columns n and sha256; rewrite with `python3
    # scripts/classify_envelope.py 64 5 | awk 'NR > 1 {print $1, $7}' >
    # tests/golden/scripts_classify_envelope.sha`
    r = subprocess.run([sys.executable, str(SCRIPTS / "classify_envelope.py"), "64", "5"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    rows = [" ".join(line.split()[i] for i in (0, 6)) for line in r.stdout.splitlines()[1:]]
    assert rows == (GOLDEN / "scripts_classify_envelope.sha").read_text().splitlines()


def test_make_examples_regenerates_data(tmp_path):
    r = subprocess.run([sys.executable, str(SCRIPTS / "make_examples.py"), str(tmp_path)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    shipped = sorted(p.name for p in DATA.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(items_per_s: float, p50_ms: float, digest: str = "ab", failed: int = 0) -> str:
    """What bench/run.py prints: notes, then a JSON report line and a JSON result line."""
    report = {"report": {"workload": "classify", "output_sha256": digest, "failed": failed}}
    result = {"correct": True, "attempted": 45, "failed": failed, "metrics": {
        "items_per_s": {"value": items_per_s, "unit": "1/s"},
        "item_p50_ms": {"value": p50_ms, "unit": "ms"}}}
    return f"a note\n{json.dumps(report)}\n{json.dumps(result)}\n"


BENCH_METRICS = [{"name": "items_per_s", "better": "higher"}, {"name": "item_p50_ms", "better": "lower"}]


def test_bench_pairs_summary():
    # wins are strict, judged by each metric's direction; quartiles are the parent's
    bench_pairs = load_script("bench_pairs.py")
    runs = [((100.0, 3.0), (110.0, 2.5)), ((120.0, 2.0), (120.0, 2.5)),
            ((90.0, 4.0), (95.0, 3.0)), ((110.0, 3.5), (100.0, 3.5))]
    pairs = [tuple(bench_pairs.parse_run(canned_run(*side)) for side in pair) for pair in runs]
    assert bench_pairs.summary(BENCH_METRICS, pairs) == [
        "pairs: 4; parent median [quartiles] -> change median, pairs won",
        "items_per_s: 105 [97.5-112.5] -> 105, 2/4 won",
        "item_p50_ms: 3.25 [2.75-3.625] -> 2.75, 2/4 won",
        "output_sha256 equal in every pair: yes",
        "failed equal in every pair: yes",
    ]


def test_bench_pairs_summary_flags_unequal_outputs():
    bench_pairs = load_script("bench_pairs.py")
    pairs = [(bench_pairs.parse_run(canned_run(100.0, 3.0)),
              bench_pairs.parse_run(canned_run(101.0, 2.9, digest="cd", failed=1)))]
    assert bench_pairs.summary(BENCH_METRICS, pairs) == [
        "pairs: 1; parent median [quartiles] -> change median, pairs won",
        "items_per_s: 100 [100-100] -> 101, 1/1 won",
        "item_p50_ms: 3 [3-3] -> 2.9, 1/1 won",
        "output_sha256 equal in every pair: no",
        "failed equal in every pair: no",
    ]
