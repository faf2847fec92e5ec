#!/usr/bin/env python3
"""Census of stable tree shapes and a plumbing round-trip sweep.

Enumerates every stable tree shape on up to N labels, reports the counts,
then draws random exact markings, plumbs each into a degenerating family,
and checks that the limit tree recovers the input class.  A handful of
families are also sampled at decreasing eps to show when the configuration
becomes visibly degenerate.

Usage: python3 scripts/degeneration_census.py [max_labels] [markings_per_shape]
"""

from __future__ import annotations

import pathlib
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sphere_trees.errors import CollisionAtEpsilon
from sphere_trees.gaussian import gr
from sphere_trees.limits import limit_tree
from sphere_trees.moduli import TreeOfSpheres, spheres_iso
from sphere_trees.plumbing import plumb_family
from sphere_trees.projective import ProjPoint
from sphere_trees.trees import MarkedTree, enumerate_stable_trees, neighbors

POOL = [ProjPoint.infinity()] + [
    ProjPoint.of(gr(Fraction(a, b), Fraction(c, 2)))
    for a in range(-3, 4) for b in (1, 2, 3) for c in (-1, 0, 1)
]
POOL = sorted(set(POOL), key=ProjPoint.sort_key)


def random_marking(shape: MarkedTree, rng: random.Random) -> TreeOfSpheres:
    marking = {}
    for v in shape.internal:
        ns = neighbors(shape, v)
        marking[v] = dict(zip(ns, rng.sample(POOL, len(ns))))
    return TreeOfSpheres.make(shape, marking)


def main() -> None:
    max_labels = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    per_shape = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    rng = random.Random(0)

    print(f"{'labels':>6} {'shapes':>7} {'round trips':>12} {'seconds':>8}")
    for n in range(3, max_labels + 1):
        labels = [str(i) for i in range(1, n + 1)]
        started = time.perf_counter()
        shapes = list(enumerate_stable_trees(labels))
        checked = 0
        for shape in shapes:
            for _ in range(per_shape):
                tree = random_marking(shape, rng)
                family = plumb_family(tree)
                assert spheres_iso(limit_tree(family), tree)
                checked += 1
        elapsed = time.perf_counter() - started
        print(f"{n:>6} {len(shapes):>7} {checked:>12} {elapsed:>8.2f}")

    print("\nsample of a degenerating family (deepest shape on 6 labels):")
    deep = max(enumerate_stable_trees([str(i) for i in range(1, 7)]),
               key=lambda t: len(t.internal))
    tree = random_marking(deep, rng)
    family = plumb_family(tree)
    for k in (2, 4, 16, 64):
        eps = Fraction(1, k)
        while True:  # halve eps past the finitely many collision values
            try:
                sphere = family.evaluate(eps)
                break
            except CollisionAtEpsilon:
                eps /= 2
        shown = ", ".join(f"{x}={sphere.point(x)}" for x in sorted(sphere.labels))
        print(f"  eps = {eps}: {shown}")


if __name__ == "__main__":
    main()
