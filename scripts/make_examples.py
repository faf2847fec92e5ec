#!/usr/bin/env python3
"""Regenerate the JSON example inputs under data/.

Every file is produced from library values through the canonical serializer,
so rerunning this script is a no-op unless the formats change.

Usage: python3 scripts/make_examples.py [output_dir]   (default: data/)
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sphere_trees import serialize as ser
from sphere_trees.covers import MarkedSphereCover, Portrait, cover_from_marked
from sphere_trees.dynamics import DynSystem, dyn_membership
from sphere_trees.gaussian import gr
from sphere_trees.laurent import LaurentMap, LaurentPoint, LaurentPoly
from sphere_trees.limits import CoverFamily, LaurentFamily
from sphere_trees.moduli import MarkedSphere, TreeOfSpheres, project, sphere_as_tree
from sphere_trees.plumbing import plumb_family
from sphere_trees.projective import ProjPoint
from sphere_trees.rational import RationalMap
from sphere_trees.trees import MarkedTree

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def pt(x) -> ProjPoint:
    return ProjPoint.of(gr(x))


INF = ProjPoint.infinity()
LC = lambda x: LaurentPoint.from_poly(LaurentPoly.constant(gr(x)))
LINF = LaurentPoint.make(LaurentPoly.constant(gr(1)), LaurentPoly.make([]))
LPOLY = lambda terms: LaurentPoint.from_poly(LaurentPoly.make(terms))


def main() -> None:
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DATA
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, payload) -> None:
        path = out / name
        path.write_text(ser.canonical_dumps(payload), encoding="utf-8")
        print(f"wrote {path}")

    star = MarkedTree.make(["1", "2", "3"], [0], [("1", 0), ("2", 0), ("3", 0)])
    write("star_tree.json", ser.tree_to_json(star))

    two = MarkedTree.make(["1", "2", "3", "4"], [0, 1],
                          [("1", 0), ("2", 0), (0, 1), ("3", 1), ("4", 1)])
    write("two_vertex_tree.json", ser.tree_to_json(two))

    sphere = MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF, "4": pt(5)})
    write("star_spheres.json", ser.tree_of_spheres_to_json(sphere_as_tree(sphere)))
    write("star_spheres_alt.json", ser.tree_of_spheres_to_json(
        sphere_as_tree(MarkedSphere.make({"1": pt(0), "2": pt(1), "3": INF, "4": pt(6)}))))

    two_spheres = TreeOfSpheres.make(two, {
        0: {"1": pt(0), "2": pt(1), 1: INF},
        1: {"3": pt(0), "4": pt(1), 0: INF},
    })
    write("two_vertex_spheres.json", ser.tree_of_spheres_to_json(two_spheres))

    family = LaurentFamily.make({
        "1": LC(0), "2": LC(1), "3": LINF, "4": LPOLY([(1, gr(1))]),
    })
    write("family_eps.json", ser.family_to_json(family))
    write("family_projection.json", ser.tree_of_spheres_to_json(
        project(two_spheres, ["1", "3", "4"])))

    portrait = Portrait.make(
        {"a0": "b0", "a1": "b1", "a2": "b2", "a3": "b1"},
        {"a0": 2, "a1": 1, "a2": 2, "a3": 1}, 2)
    write("portrait_z2.json", ser.portrait_to_json(portrait))

    zsq = RationalMap.make([gr(0), gr(0), gr(1)], [gr(1)])
    y = MarkedSphere.make({"a0": pt(0), "a1": pt(1), "a2": INF, "a3": pt(-1)})
    z = MarkedSphere.make({"b0": pt(0), "b1": pt(1), "b2": INF})
    cover = cover_from_marked(MarkedSphereCover(zsq, y, z), portrait)
    write("cover_z2.json", ser.cover_to_json(cover))
    write("source_z2.json", ser.tree_of_spheres_to_json(cover.source))

    # degenerating degree-2 family: z(z - eps) with marked fibers over
    # 0, the critical value, infinity, and 1
    deg_portrait = Portrait.make(
        {"y0": "c0", "ye": "c0", "yc": "c1", "yinf": "cinf", "y1": "c2", "ym": "c2"},
        {"y0": 1, "ye": 1, "yc": 2, "yinf": 2, "y1": 1, "ym": 1}, 2)
    y_family = LaurentFamily.make({
        "y0": LC(0),
        "ye": LPOLY([(1, gr(1))]),
        "yc": LPOLY([(1, gr("1/2"))]),
        "yinf": LINF,
        "y1": LC(1),
        "ym": LPOLY([(0, gr(-1)), (1, gr(1))]),
    })
    z_family = LaurentFamily.make({
        "c0": LC(0),
        "c1": LPOLY([(2, gr("-1/4"))]),
        "cinf": LINF,
        "c2": LPOLY([(0, gr(1)), (1, gr(-1))]),
    })
    map_family = LaurentMap.make(
        [LaurentPoly.make([]), LaurentPoly.make([(1, gr(-1))]), LaurentPoly.constant(gr(1))],
        [LaurentPoly.constant(gr(1))])
    cf = CoverFamily.make(deg_portrait, y_family, z_family, map_family)
    write("cover_family_degenerate.json", ser.cover_family_to_json(cf))

    plumbed = plumb_family(two_spheres)
    write("plumbed_family.json", ser.family_to_json(plumbed))

    snapshots = []
    eps = []
    for n in range(10, 101):
        e = 1.0 / n
        snapshots.append({"1": [0.0, 0.0], "2": [1.0, 0.0], "3": "inf", "4": [e, 0.0]})
        eps.append(e)
    write("numeric_sequence.json", {"snapshots": snapshots, "eps": eps})

    # compat pair: the projection of the two-vertex tree and the tree itself
    write("compat_sub.json", ser.tree_of_spheres_to_json(
        project(two_spheres, ["1", "2", "3"])))

    # dynamically marked z^2 cover: the labels p0, p1, pinf are shared
    dyn_portrait = Portrait.make(
        {"p0": "p0", "p1": "p1", "pinf": "pinf", "m": "p1"},
        {"p0": 2, "p1": 1, "pinf": 2, "m": 1}, 2)
    dyn_y = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF, "m": pt(-1)})
    dyn_z = MarkedSphere.make({"p0": pt(0), "p1": pt(1), "pinf": INF})
    dyn_cover = cover_from_marked(MarkedSphereCover(zsq, dyn_y, dyn_z), dyn_portrait)
    write("cover_dyn.json", ser.cover_to_json(dyn_cover))
    # the dynamical system it underlies, with the source projection as its tree
    _, dyn_tree = dyn_membership(dyn_cover, ["p0", "p1", "pinf"])
    write("dyn_z_squared.json", ser.dyn_to_json(DynSystem(dyn_cover, dyn_tree)))


if __name__ == "__main__":
    main()
