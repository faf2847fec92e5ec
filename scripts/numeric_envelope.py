#!/usr/bin/env python3
"""Envelope of the numeric limit mode: cost, refusals and wrong trees by size.

For each label count, plumbs random marked trees (drawn by the benchmark's
seeded generators in bench/generators.py) into degenerating families (every
second one under a random constant Moebius twist), samples float
snapshots at eps = 1/k for k = 10..200, and runs numeric_limit_tree at
tolerance 1e-6 with a stability window of 5.  Per size it prints the median
CPU time of numeric_limit_tree per item, how many items were refused with a
typed error, how many returned trees had partitions other than the exact
ones (the numeric mode must fail closed, so this column should read 0), and
the first 16 hex digits of a sha256 over every item's outcome: the canonical
``numeric_tree_to_json`` dump of a returned tree, or a refusal's code and
witness.  Equal digests before and after a change show that the numeric mode
returned byte-identical trees, spreads and witnesses at those sizes.

Usage: python3 scripts/numeric_envelope.py [sizes] [items_per_size]
       e.g. python3 scripts/numeric_envelope.py 8,10,12,14 12
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
from sphere_trees.errors import AdmissibilityFailure, InconsistentClustering, NotStabilized
from sphere_trees.limits import NumericConfigSequence, numeric_limit_tree
from sphere_trees.plumbing import plumb_family
from sphere_trees.serialize import canonical_dumps, numeric_tree_to_json, witness_to_json
from sphere_trees.trees import tree_partitions

TOLERANCE = 1e-6
WINDOW = 5
REFUSALS = (NotStabilized, InconsistentClustering, AdmissibilityFailure)


def main() -> None:
    sizes = [int(n) for n in sys.argv[1].split(",")] if len(sys.argv) > 1 else [8, 10, 12, 14]
    items = int(sys.argv[2]) if len(sys.argv) > 2 else 12

    print(f"{'n':>3} {'CPU per item':>13} {'refusals':>9} {'wrong':>6} {'sha256':>16}")
    for n in sizes:
        rng = random.Random(f"envelope-{n}")
        times, refused, wrong, digest = [], 0, 0, hashlib.sha256()
        for i in range(items):
            tree = gen.random_tree(n, rng)
            fam = plumb_family(tree)
            if i % 2:
                fam = fam.twist(gen.random_moebius(rng))
            seq = NumericConfigSequence.make(*gen.snapshots(fam), TOLERANCE, WINDOW)
            started = time.process_time()
            try:
                result = numeric_limit_tree(seq)
            except REFUSALS as exc:
                result = None
                outcome = {"error": exc.code, "witness": witness_to_json(exc.witness)}
            times.append(time.process_time() - started)
            if result is None:
                refused += 1
            else:
                outcome = numeric_tree_to_json(result)
                wrong += result.partitions() != tree_partitions(tree.shape)
            digest.update(canonical_dumps(outcome).encode())
        median = f"{1000 * statistics.median(times):.1f} ms"
        print(f"{n:>3} {median:>13} {f'{refused}/{items}':>9} {wrong:>6} "
              f"{digest.hexdigest()[:16]:>16}")


if __name__ == "__main__":
    main()
