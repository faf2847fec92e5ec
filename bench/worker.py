"""One workload process: set up, run the closed loop, report one JSON line.

Started by ``run.py`` in a fresh interpreter for every measurement, so the
program's module-level caches start empty.  Modes:

``setup``    import and warm up, then stop where the first item would start;
``measure``  the timed loop, untraced: ``item_count(seconds)`` items, with
             the CLI processes spread evenly between the items;
``fixed``    the workload's traced items, untraced;
``trace``    the same items as ``fixed``, with spans and a cProfile pass;
``cli``      write the inputs of the CLI commands and ``cases.json``, the
             commands with their expected outcomes, into ``--cli-dir``.

Every time is CPU time of this thread or of a child process, so time the
hypervisor gives to other guests does not count.  The host's speed still
changes by up to 2x within seconds (shared cores and caches), so every
measured item, CLI process and set-up carries ``ref_ns``: the CPU time of a
fixed reference loop run next to it, which ``run.py`` divides by.  Set-up is
this process's CPU time up to the first measured item.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import sphere_trees

import layers
from workloads import WORKLOADS, CheckFailed, item_count, refused

# Warm-up items come from a seed of their own, never from the measured
# inputs; the same for every run, so set-up does the same work whatever
# --seed is.
WARMUP_SEED = "warm-up"
CLI_PROCESSES = 31
# 16 to 43 ms of CPU time on a shared 2-core x86-64 VM, by the speed of the moment.
REFERENCE_LOOPS = 8000
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class Steps:
    """Times each call into the program; in trace mode also records spans
    and runs the profiler around the call only."""

    def __init__(self, profiler: cProfile.Profile | None = None):
        self.profiler = profiler
        self.spans: list[dict] = []
        self.item = -1
        self.elapsed_ns = 0
        self.step = ""
        self.bytes_out = 0

    def call(self, name: str, fn, *args):
        self.step = name
        prof = self.profiler
        if prof is not None:
            prof.enable()
        t0 = time.thread_time_ns()
        try:
            result = fn(*args)
        finally:
            t1 = time.thread_time_ns()
            if prof is not None:
                prof.disable()
            self.elapsed_ns += t1 - t0
            self._span(name, t0, t1)
        if isinstance(result, str):  # canonical JSON text written by the program
            self.bytes_out += len(result.encode())
        return result

    def untimed(self, name: str, fn, *args):
        """A call made while generating inputs: spanned when tracing, never
        profiled and not part of the item's latency."""
        t0 = time.thread_time_ns()
        result = fn(*args)
        self._span(name, t0, time.thread_time_ns())
        return result

    def _span(self, name: str, t0: int, t1: int) -> None:
        if self.profiler is not None:
            self.spans.append({"item": self.item, "name": name,
                               "start_ns": t0, "end_ns": t1})


def run_item(workload, index: int, stratum: tuple, rng: random.Random,
             steps: Steps) -> dict:
    """Generate, run and check one item; the record says what happened."""
    steps.item = index
    inputs = workload.make(stratum, rng, steps)
    record = {"item": index, "size": inputs["size"], "form": inputs["form"]}
    steps.elapsed_ns = 0
    try:
        outputs = workload.run(inputs, steps)
    except Exception as exc:  # counted and shown; unexpected ones fail the run
        record["latency_ns"] = steps.elapsed_ns
        record["status"] = "refused" if refused(workload, inputs, steps.step, exc) else "raised"
        record["step"] = steps.step
        record["error"] = type(exc).__name__
        record["message"] = str(exc)
        record["witness"] = _jsonable(getattr(exc, "witness", None))
        return record
    record["latency_ns"] = steps.elapsed_ns
    try:
        workload.check(inputs, outputs)
    except CheckFailed as exc:
        record["status"] = "wrong"
        record["message"] = str(exc)
        return record
    record["status"] = "ok"
    record["output"] = workload.output_json(outputs)
    return record


def _jsonable(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


def reference_ns() -> int:
    """CPU time of a fixed loop of Fraction and dict arithmetic, the kind of
    work the program does: how fast the host runs right now.

    The collector is off during the loop, so the size of the program's heap
    cannot slow the loop down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time_ns()
        acc, seen = Fraction(0), {}
        for i in range(1, REFERENCE_LOOPS):
            acc += Fraction(i % 17, i % 13 + 1)
            seen[i % 97, i % 5] = acc
        return time.thread_time_ns() - t0
    finally:
        if enabled:
            gc.enable()


def children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def run_cli(case: dict) -> tuple[int, list[str]]:
    """Run one CLI process; returns its CPU time and any problem found."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    before = children_cpu_ns()
    proc = subprocess.run([sys.executable, "-m", "sphere_trees.cli", *case["argv"]],
                          capture_output=True, text=True, env=env, timeout=60)
    return children_cpu_ns() - before, check_cli(case, proc)


def check_cli(case: dict, proc: subprocess.CompletedProcess) -> list[str]:
    """CLI stdout must parse, and match the in-process outcome byte for byte."""
    what = " ".join(pathlib.Path(a).name for a in case["argv"])
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return [f"cli {what}: stdout is not JSON (exit {proc.returncode})"]
    if case["error"] is None:
        if proc.returncode != 0 or proc.stdout != case["stdout"]:
            return [f"cli {what}: output differs from the in-process result"]
    elif proc.returncode != 1 or out.get("error") != case["error"]:
        return [f"cli {what}: expected domain error {case['error']}"]
    return []


def warm_up(name: str) -> None:
    workload = WORKLOADS[name]()
    rng = random.Random(WARMUP_SEED)
    steps = Steps()
    for index, stratum in enumerate(workload.WARMUP_PLAN):
        run_item(workload, index, stratum, rng, steps)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "fixed", "trace", "cli"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cli-dir", type=pathlib.Path)
    args = ap.parse_args()

    here = pathlib.Path(__file__).resolve().parent
    package = pathlib.Path(sphere_trees.__file__).resolve()
    if package.parents[1] != here.parent / "src":
        print(f"sphere_trees imported from {package}, not from this checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    cases_file = args.cli_dir / "cases.json" if args.cli_dir else None
    if args.mode == "cli":
        cases = workload.cli_cases(rng, args.cli_dir)
        cases_file.write_text(json.dumps(cases), encoding="utf-8")
        print(json.dumps({"cli_cases": len(cases)}))
        return 0
    warm_up(args.workload)
    profiler = cProfile.Profile() if args.mode == "trace" else None
    steps = Steps(profiler)
    caches_before = layers.cache_counts()
    setup_ns = time.process_time_ns()
    setup = {"cpu_ns": setup_ns, "ref_ns": reference_ns()}
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    cases: list[dict] = []
    if args.mode == "measure":
        plan, items = workload.PLAN, item_count(workload, args.seconds)
        if cases_file is not None:
            cases = json.loads(cases_file.read_text(encoding="utf-8"))
    else:
        plan = workload.TRACE_PLAN
        items = len(plan)
    # CLI process j runs after item j * items // CLI_PROCESSES, so the
    # processes sample the host's speed across the whole run.
    cli_after = [j * items // CLI_PROCESSES for j in range(CLI_PROCESSES)] if cases else []
    cli: list[dict] = []
    cli_problems: list[str] = []
    wall0 = time.perf_counter()
    records = []
    # Each item and CLI process is scaled by the mean of the reference
    # samples just before and just after it.
    ref_before = setup["ref_ns"]
    for i in range(items):
        record = run_item(workload, i, plan[i % len(plan)], rng, steps)
        ref_after = reference_ns()
        record["ref_ns"] = (ref_before + ref_after) / 2
        records.append(record)
        ref_before = ref_after
        for _ in range(cli_after.count(i)):
            cpu_ns, problems = run_cli(cases[len(cli) % len(cases)])
            ref_after = reference_ns()
            cli.append({"cpu_ns": cpu_ns, "ref_ns": (ref_before + ref_after) / 2})
            ref_before = ref_after
            cli_problems += problems
    wall = time.perf_counter() - wall0

    digest = hashlib.sha256()
    for r in records:
        digest.update((r.get("output") or json.dumps(
            {"error": r.get("error"), "witness": r.get("witness")},
            sort_keys=True)).encode())
        r.pop("output", None)
    report = {
        "setup": setup,
        "wall_s": wall,
        "records": records,
        "output_sha256": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli": cli,
        "cli_problems": cli_problems,
    }
    if profiler is not None:
        report["caches"] = layers.cache_delta(caches_before, layers.cache_counts())
        report["profile"] = layers.profile_by_module(profiler)
        report["spans"] = steps.spans
        report["bytes_out"] = steps.bytes_out
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the program's caches object by object at exit (seconds
    # for a large classify run); the operating system reclaims the memory.
    os._exit(code)
