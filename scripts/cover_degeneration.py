#!/usr/bin/env python3
"""Walk through the limit of a degenerating quadratic cover.

The family f(z) = z(z - eps) collides the fiber of zero as eps -> 0.  The
script prints the limit trees of the marked source and target families, the
fiber map attached to each vertex of the limit cover, and verifies that the
cover rebuilt from the source tree and the portrait alone is isomorphic to
the limit.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from conftest import degenerate_family_three_vertex, degenerate_family_two_vertex
from sphere_trees.covers import cover_iso, extract_portrait, reconstruct_cover, validate_cover
from sphere_trees.limits import limit_cover, limit_tree
from sphere_trees.moduli import marking_dict
from sphere_trees.trees import partition_at


def show_tree(name, tree):
    print(f"{name}: {len(tree.shape.internal)} internal vertices")
    for v in sorted(tree.shape.internal):
        blocks = sorted(sorted(b) for b in partition_at(tree.shape, v))
        marks = ", ".join(f"{x}->{p}" for x, p in sorted(marking_dict(tree, v).items()))
        print(f"  vertex {v}: partition {blocks}")
        print(f"            marking {marks}")


def walk(family, title):
    print("=" * 60)
    print(title)
    source = limit_tree(family.y_family)
    target = limit_tree(family.z_family)
    show_tree("source limit", source)
    show_tree("target limit", target)
    cover = limit_cover(family)
    assert validate_cover(cover, expected_portrait=family.portrait) == []
    for v in sorted(cover.source.shape.internal):
        f = cover.map_at(v)
        num = " + ".join(f"({c})z^{i}" for i, c in enumerate(f.num) if not c.is_zero())
        den = " + ".join(f"({c})z^{i}" for i, c in enumerate(f.den) if not c.is_zero())
        print(f"fiber map at {v} -> {cover.vm[v]}: ({num}) / ({den or '1'})")
    rebuilt = reconstruct_cover(cover.source, extract_portrait(cover))
    print("reconstruction from the source tree alone:",
          "isomorphic" if cover_iso(rebuilt, cover) else "DIFFERENT")


def main() -> None:
    walk(degenerate_family_two_vertex(), "f(z) = z(z - eps), fibers of 0, crit, inf, 1")
    walk(degenerate_family_three_vertex(), "f(z) = z(z - eps^2), with the fiber of f(eps)")


if __name__ == "__main__":
    main()
