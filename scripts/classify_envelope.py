#!/usr/bin/env python3
"""Envelope of the classify pipeline: cost per step and output digests by label count.

For each label count n in {8, 16, 32, 64}, builds seeded classify items the
way the benchmark's ``classify`` workload does (``random_tree``,
``random_moebius`` and ``random_marking`` from bench/generators.py): a base
tree, two Moebius twists of it and a fresh marking of its shape, plus a
sub-label-set of n/2 labels.  Each item parses the four trees from JSON,
takes their canonical forms, decides the base tree's isomorphism with the
other three, projects all four onto the sub-label-set and dumps the results
as canonical JSON.  Per row it prints the median CPU time per item of each
step and the first 16 hex digits of a sha256 over every item's dump.  Equal
digests before and after a change show that the pipeline wrote
byte-identical output at sizes beyond the benchmark's n=10.

Usage: python3 scripts/classify_envelope.py [max_labels] [items_per_row]
       e.g. python3 scripts/classify_envelope.py 64 5
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import generators as gen
from sphere_trees import serialize as ser
from sphere_trees.moduli import canonical_form, project, spheres_iso, twist

SIZES = (8, 16, 32, 64)
STEPS = ("parse", "canonical", "iso", "project", "dump")


def make_item(n: int, rng: random.Random) -> tuple[list, list]:
    """The JSON of a base tree, two twists and a re-marking, and n/2 of its labels."""
    base = gen.random_tree(n, rng)
    twists = [twist(base, {v: gen.random_moebius(rng) for v in base.shape.internal})
              for _ in range(2)]
    other = gen.random_marking(base.shape, rng)
    sub = sorted(rng.sample(sorted(base.labels), max(3, n // 2)))
    return [ser.tree_of_spheres_to_json(t) for t in [base, *twists, other]], sub


def run(payload: list, sub: list, times: dict) -> str:
    """One classify item; each step's CPU time is appended to times."""
    def timed(step, fn, *args):
        started = time.process_time()
        out = fn(*args)
        times[step][-1] += time.process_time() - started
        return out

    for step in STEPS:
        times[step].append(0.0)
    trees = [timed("parse", ser.tree_of_spheres_from_json, obj) for obj in payload]
    canon = [timed("canonical", canonical_form, t) for t in trees]
    verdicts = [timed("iso", spheres_iso, trees[0], t) for t in trees[1:]]
    projected = [timed("project", project, t, sub) for t in trees]
    return timed("dump", ser.canonical_dumps, {
        "canonical": [ser.tree_of_spheres_to_json(t) for t in canon],
        "isomorphic": verdicts,
        "projected": [ser.tree_of_spheres_to_json(t) for t in projected],
    })


def main() -> None:
    max_labels = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    items = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    print(f"{'n':>3} " + " ".join(f"{step + ' ms':>12}" for step in STEPS) + f" {'sha256':>16}")
    for n in SIZES:
        if n > max_labels:
            break
        rng = random.Random(f"classify-envelope-{n}")
        times = {step: [] for step in STEPS}
        digest = hashlib.sha256()
        for _ in range(items):
            digest.update(run(*make_item(n, rng), times).encode())
        cells = " ".join(f"{1000 * statistics.median(times[step]):>12.2f}" for step in STEPS)
        print(f"{n:>3} {cells} {digest.hexdigest()[:16]:>16}")


if __name__ == "__main__":
    main()
