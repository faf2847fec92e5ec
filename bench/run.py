"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload degenerate --seed 1 --seconds 15 --trace 0
    python3 -m pytest -q bench/test_bench.py      # the benchmark's own tests

Workloads: degenerate, numeric, classify, covers (see ``workloads.py`` and
``BENCHMARK.json``).  Every measurement runs in a fresh interpreter started
by ``worker.py``, so no cache content leaks between runs; the inputs come
from ``--seed`` alone.

``--trace 0`` runs the closed loop over a fixed number of items, the whole
PLAN cycles nearest to the workload's items-per-second on the reference
machine times ``--seconds`` (``workloads.item_count``), and prints the
end-to-end metrics:

* ``items_per_s``   items that returned and passed their check, per second of
                    measured time (the sum of all items' timed steps);
* ``item_p50_ms``   median item latency over every attempted item, whether
                    it returned or raised;
* ``item_tail_ms``  item latency at the highest percentile with at least ten
                    items beyond it (p72, p79, p77 and p75 for degenerate,
                    numeric, classify and covers at 15 s);
* ``setup_s``       process start to the first measured item (import and
                    warm-up), the median of three fresh processes;
* ``peak_rss_mb``   ``ru_maxrss`` of the measuring process at exit;
* ``cli_p50_ms``    median time of one ``python -m sphere_trees.cli``
                    process on the workload's generated CLI inputs, 31
                    processes run one at a time between the measured items.

Times are CPU times at a fixed host speed.  A shared 2-core x86-64 VM
(Python 3.11) ran the same single-threaded code up to 2x slower from one
second to the next, in CPU time as much as in wall time.  So every item,
CLI process and set-up is timed next to a fixed reference loop (see
``worker.reference_ns``), and its CPU time is scaled to a host on which
one reference loop takes ``REFERENCE_MS``: ``time * REFERENCE_MS / ref``.
The report line keeps the unscaled times and the reference samples.

A run is correct when every returned result passes its check, every CLI
output matches, and every raise is one the workload expects (``REFUSALS``
in ``workloads.py``); expected raises still count as failed items.

``--trace 1`` runs the workload's fixed traced items twice, untraced and then
with spans and a cProfile pass, and prints the per-layer metrics listed in
``BENCHMARK.json``.

The line before the result is a JSON report: the machine, the output digest,
every failed item with its witness, failed_share with its base count, the
per-size latencies and, when traced, the full per-layer table ``layers``
(every counter, module self time and per-size span median).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

from layers import MODULES

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("degenerate", "numeric", "classify", "covers")
SETUP_RUNS = 3
CLI_SEED_OFFSET = 2_000_003
# Times are scaled to a host on which worker.reference_ns() takes this long.
REFERENCE_MS = 20.0
INTERPRETER_RUNS = 5
IMPORTTIME_RUNS = 3
# Every process this run starts must end within this many seconds of its start.
RUN_BUDGET_S = 170
DEADLINE = time.monotonic() + RUN_BUDGET_S


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    # A fixed hash seed makes set iteration, and so the traced counters,
    # repeat exactly between runs of the same code.
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": f"{SRC}{os.pathsep}{BENCH}",
            "PYTHONHASHSEED": "0"}


def remaining() -> float:
    """Seconds left before the run's deadline; raises when none are."""
    left = DEADLINE - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_BUDGET_S} s")
    return left


def run_worker(workload: str, seed: int, mode: str, **extra) -> dict:
    """Start one worker; returns its report."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=worker_env(),
                          cwd=ROOT, timeout=remaining())
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_ms(sample: dict, key: str = "latency_ns") -> float:
    """A CPU time in ms, scaled by the reference loop timed next to it."""
    return sample[key] / sample["ref_ns"] * REFERENCE_MS


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / count)))


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_summary(records: list[dict]) -> dict:
    lat_ms = [scaled_ms(r) for r in records]
    ok = [r for r in records if r["status"] == "ok"]
    by_size: dict[str, list[float]] = {}
    for r, ms in zip(records, lat_ms):
        by_size.setdefault(r["size"], []).append(ms)
    return {
        "items_per_s": len(ok) / (sum(lat_ms) / 1e3),
        "item_p50_ms": statistics.median(lat_ms),
        "item_tail_ms": percentile(lat_ms, tail_percentile(len(lat_ms))),
        "tail_percentile": tail_percentile(len(lat_ms)),
        "by_size_p50_ms": {k: statistics.median(v) for k, v in sorted(by_size.items())},
        "by_size_count": {k: len(v) for k, v in sorted(by_size.items())},
    }


def failures(records: list[dict]) -> list[dict]:
    keep = ("item", "size", "form", "status", "step", "error", "message", "witness")
    return [{k: r[k] for k in keep if k in r} for r in records if r["status"] != "ok"]


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a shared 2-core VM the two vCPUs changed speed independently of each
    other, a new process tends to start on the idle one, and the reference
    loop measures only the CPU it runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "sphere_trees").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "src_lines": src_lines}


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict, list[str]]:
    """The timed loop with its CLI processes, and the set-ups.

    The measuring worker is the middle one of the three; the set-up-only
    workers before and after it sample the host at different moments.  No
    two processes of the run overlap.
    """
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run_worker(workload, seed + CLI_SEED_OFFSET, "cli", cli_dir=workdir)
        setups = []
        for k in range(SETUP_RUNS):
            mode = "measure" if k == SETUP_RUNS // 2 else "setup"
            out = run_worker(workload, seed, mode, seconds=seconds, cli_dir=workdir)
            setups.append(out["setup"])
            if mode == "measure":
                rep = out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = rep["records"]
    summary = latency_summary(records)
    metrics = {
        "items_per_s": summary["items_per_s"],
        "item_p50_ms": summary["item_p50_ms"],
        "item_tail_ms": summary["item_tail_ms"],
        "setup_s": statistics.median(scaled_ms(s, "cpu_ns") for s in setups) / 1e3,
        "peak_rss_mb": rep["peak_rss_mb"],
        "cli_p50_ms": statistics.median(scaled_ms(c, "cpu_ns") for c in rep["cli"]),
    }
    refs = [r["ref_ns"] / 1e6 for r in records]
    report = {
        "tail_percentile": summary["tail_percentile"],
        "reference_ms": {"min": min(refs), "median": statistics.median(refs),
                         "max": max(refs)},
        "unscaled": {
            "item_p50_ms": statistics.median(r["latency_ns"] for r in records) / 1e6,
            "setup_s": [s["cpu_ns"] / 1e9 for s in setups],
            "cli_ms": [c["cpu_ns"] / 1e6 for c in rep["cli"]],
        },
        "wall_s": rep["wall_s"],
        "output_sha256": rep["output_sha256"],
        **{k: v for k, v in summary.items() if k.startswith("by_size")},
    }
    return rep, metrics, report, rep["cli_problems"]


def import_times() -> dict:
    """Interpreter start-up and per-module import self times of the CLI."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    bare = []
    for _ in range(INTERPRETER_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, cwd=ROOT,
                       timeout=remaining())
        bare.append((time.perf_counter() - t0) * 1e3)
    self_us: dict[str, list[int]] = {}
    cumulative = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import sphere_trees.cli"],
                              env=env, capture_output=True, text=True, check=True, cwd=ROOT,
                              timeout=remaining())
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
            if not m:
                continue
            own, cum, name = int(m.group(1)), int(m.group(2)), m.group(3)
            if name.startswith("sphere_trees"):
                self_us.setdefault(name, []).append(own)
            if name == "sphere_trees.cli":
                cumulative.append(cum)
    out = {"cli.interpreter_ms": statistics.median(bare),
           "cli.import_ms": statistics.median(cumulative) / 1e3}
    for mod in ("errors",) + MODULES:
        values = self_us.get(f"sphere_trees.{mod}", [0])
        out[f"cli.import_self_ms.sphere_trees.{mod}"] = statistics.median(values) / 1e3
    return out


def span_summary(spans: list[dict], records: list[dict]) -> dict:
    """Median milliseconds per span name, overall and per item size.

    A span ``limits.limit_tree`` on n=10 items gives ``limits.limit_tree_ms``
    and ``limits.limit_tree_p50_ms.n10``.
    """
    size = {r["item"]: r["size"] for r in records}
    groups: dict[str, list[float]] = {}
    for s in spans:
        ms = (s["end_ns"] - s["start_ns"]) / 1e6
        groups.setdefault(f"{s['name']}_ms", []).append(ms)
        groups.setdefault(f"{s['name']}_p50_ms.{size[s['item']]}", []).append(ms)
    return {name: statistics.median(v) for name, v in sorted(groups.items())}


def traced(workload: str, seed: int) -> tuple[dict, dict, dict, list[str]]:
    plain = run_worker(workload, seed, "fixed")
    rep = run_worker(workload, seed, "trace")
    records = rep["records"]
    plain_ms = sum(scaled_ms(r) for r in plain["records"])
    traced_ms = sum(scaled_ms(r) for r in records)
    metrics: dict[str, float] = {}
    metrics.update(rep["profile"])
    for name, hm in rep["caches"].items():
        # A cache that a later change removed answers no calls: ratio 0, so
        # the metric stays present for the per-layer list.
        calls = hm["hits"] + hm["misses"] if hm else 0
        metrics[f"{name}_hit_ratio"] = hm["hits"] / calls if calls else 0.0
    metrics["serialize.bytes_out"] = rep["bytes_out"]
    metrics.update(span_summary(rep["spans"], records))
    steps = [r.get("step", "") for r in records]
    metrics["covers.reconstruct_failed"] = steps.count("covers.reconstruct")
    metrics["limits.numeric_refused"] = sum(s.startswith("limits.numeric") for s in steps)
    metrics["failed_share"] = sum(r["status"] != "ok" for r in records) / len(records)
    metrics["trace.overhead_ratio"] = traced_ms / plain_ms
    metrics.update(import_times())
    report = {
        "items": len(records),
        "layers": metrics,
        "output_sha256": rep["output_sha256"],
        "untraced_output_sha256": plain["output_sha256"],
    }
    problems = []
    if rep["output_sha256"] != plain["output_sha256"]:
        problems.append("traced and untraced outputs differ")
    return rep, metrics, report, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "sphere_trees" / "__init__.py").is_file():
        print(f"no sphere_trees package under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.trace:
            rep, metrics, extra, problems = traced(args.workload, args.seed)
        else:
            rep, metrics, extra, problems = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = rep["records"]
    failed = [r for r in records if r["status"] != "ok"]
    problems += [f"item {r['item']}: {r['message']}" for r in records
                 if r["status"] == "wrong"]
    problems += [f"item {r['item']}: unexpected {r['error']} at {r['step']}: {r['message']}"
                 for r in records if r["status"] == "raised"]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "attempted": len(records), "failed": len(failed),
        "failed_share": len(failed) / len(records),
        "failures": failures(records),
        "problems": problems,
        **extra,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
