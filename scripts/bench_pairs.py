#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and the working tree, summarized.

Exports REF with ``git archive`` into a temporary directory and runs

    python3 bench/run.py --workload W --seed S --seconds 15 --trace 0

there and in the working tree for S = 1..N, the parent first on odd seeds and
the working tree first on even ones.  For each end-to-end metric listed in
BENCHMARK.json it prints the parent's median with its quartiles, the working
tree's median, and the pairs the working tree won, judged by the metric's
``better`` (a tie counts for neither side).  It then prints whether the
``output_sha256`` digests and the failed counts were equal in every pair.  It
reads ``bench/`` and BENCHMARK.json and changes neither.

Usage: python3 scripts/bench_pairs.py --parent REF --workload W --pairs N
       e.g. python3 scripts/bench_pairs.py --parent HEAD~1 --workload classify --pairs 10
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def export(ref: str, dest: str) -> None:
    """The files of commit REF, written under dest by ``git archive | tar -x``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit(f"cannot export {ref!r} with git archive")


def parse_run(stdout: str) -> dict:
    """The metrics, output digest and failed count of one ``bench/run.py`` output: its
    last two lines are the JSON report and the JSON result."""
    *_, report_line, result_line = stdout.strip().splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "output_sha256": report["output_sha256"], "failed": result["failed"]}


def run(root: pathlib.Path, workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", "15", "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        sys.exit(f"bench/run.py failed in {root} at seed {seed}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metrics: list, pairs: list) -> list:
    """The report lines for (parent run, change run) pairs; metrics are BENCHMARK.json's
    end-to-end entries, each with its ``name`` and ``better``."""
    lines = [f"pairs: {len(pairs)}; parent median [quartiles] -> change median, pairs won"]
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        lines.append(f"{name}: {statistics.median(parent):.4g} [{q1:.4g}-{q3:.4g}] -> "
                     f"{statistics.median(change):.4g}, {won}/{len(pairs)} won")
    for key in ("output_sha256", "failed"):
        equal = all(p[key] == c[key] for p, c in pairs)
        lines.append(f"{key} equal in every pair: {'yes' if equal else 'no'}")
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, required=True, help="pairs to run, seeds 1..N")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        export(args.parent, tmp)
        sides = {"parent": pathlib.Path(tmp), "change": ROOT}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            got = {side: run(sides[side], args.workload, seed) for side in order}
            pairs.append((got["parent"], got["change"]))
            print(f"seed {seed} done", file=sys.stderr, flush=True)
    print("\n".join(summary(spec["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
