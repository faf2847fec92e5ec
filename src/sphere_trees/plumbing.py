"""Synthesize a degenerating Laurent family whose limit is a given tree.

Working from a root vertex outward, each vertex chart is normalized so the
parent direction sits at infinity; a child sphere is then embedded into its
parent chart by the affine map c -> p + eps * c at the edge's attaching
point p.  Composing these embeddings along the path from each leaf's carrier
vertex to the root yields polynomial paths in eps, and the limit tree of the
resulting family recovers the input up to isomorphism.
"""

from __future__ import annotations

from .gaussian import GR_ONE, GR_ZERO, gr
from .laurent import LaurentPoint, LaurentPoly
from .limits import LaurentFamily
from .moduli import TreeOfSpheres
from .projective import M_IDENTITY, Moebius, ProjPoint


def _root_normalizer(points: list[ProjPoint]) -> Moebius:
    """Move infinity (when marked) to the smallest free positive integer."""
    if not any(p.is_infinity() for p in points):
        return M_IDENTITY
    taken = {p.to_affine() for p in points if not p.is_infinity()}
    k = 1
    while gr(k) in taken:
        k += 1
    c = gr(k)
    # w -> c + 1/(w - c): sends infinity to c and only c (unmarked) to infinity
    return Moebius.make(c, GR_ONE - c * c, GR_ONE, -c)


def _child_normalizer(parent_point: ProjPoint) -> Moebius:
    """Send the parent-edge attaching point to infinity."""
    if parent_point.is_infinity():
        return M_IDENTITY
    p = parent_point.to_affine()
    return Moebius.make(GR_ZERO, GR_ONE, GR_ONE, -p)


def plumb_family(t: TreeOfSpheres) -> LaurentFamily:
    """A Laurent family of marked spheres degenerating to the given tree."""
    root = min(t.shape.internal)
    # per vertex: its normalizer and the frame c -> offset + scale * c of its
    # chart in the root chart; a child's frame follows from its parent's
    frames = {root: (_root_normalizer(list(t.edge_points(root).values())),
                     LaurentPoly.constant(GR_ZERO), LaurentPoly.constant(GR_ONE))}
    paths = {}
    stack = [root]
    while stack:
        v = stack.pop()
        nv, offset, scale = frames[v]
        for n, p in t.edge_points(v).items():
            if n in frames:  # the parent, which nv sends to infinity
                continue
            value = offset + scale * LaurentPoly.constant(nv.apply(p).to_affine())
            if isinstance(n, int):
                frames[n] = (_child_normalizer(t.edge_points(n)[v]), value,
                             scale * LaurentPoly.eps())
                stack.append(n)
            else:
                paths[n] = LaurentPoint.from_poly(value)
    return LaurentFamily.make(paths)
