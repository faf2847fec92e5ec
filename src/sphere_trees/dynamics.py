"""Dynamical systems of trees of spheres.

A cover together with a tree over a shared sub-label-set is a dynamical
system when that tree is compatible with both the source and the target,
i.e. equals their projections on the nose.  Whether some compatible tree
exists at all is decided on isomorphism classes: the two projections must be
isomorphic, and the source projection then serves as a witness.
"""

from __future__ import annotations

from typing import Optional

from .covers import TreeCover, cover_iso
from .errors import NotASubset, PortraitMismatch
from .moduli import (
    TreeOfSpheres,
    induced_partition,
    iso_of_spheres,
    project,
    twist,
)
from .trees import partition_at
from .values import value


@value
class DynSystem:
    cover: TreeCover
    dyn_tree: TreeOfSpheres

    @property
    def labels(self) -> frozenset:
        return self.dyn_tree.labels


def compatible(t_x: TreeOfSpheres, t_y: TreeOfSpheres) -> bool:
    """Does t_x equal the projection of t_y on the nose?

    It does iff the explicit isomorphism onto the projection exists and is
    the identity at every vertex: the markings agree pointwise, not merely
    up to Moebius changes.
    """
    if not t_x.labels <= t_y.labels:
        raise NotASubset("the first tree is not marked by a subset")
    iso = iso_of_spheres(t_x, project(t_y, t_x.labels))
    return iso is not None and all(m.is_identity() for m in iso[1].values())


def validate_dyn(d: DynSystem) -> list[str]:
    """Diagnostics for the compatibility of the dynamical tree."""
    problems = []
    x = d.labels
    y = d.cover.source.labels
    z = d.cover.target.labels
    if not x <= y & z:
        problems.append("dynamical labels are not contained in both marked sets")
        return problems
    if not compatible(d.dyn_tree, d.cover.source):
        problems.append("dynamical tree is not compatible with the source")
    if not compatible(d.dyn_tree, d.cover.target):
        problems.append("dynamical tree is not compatible with the target")
    return problems


def _projections(c: TreeCover, sub: frozenset
                 ) -> tuple[TreeOfSpheres, TreeOfSpheres, Optional[tuple[dict, dict]]]:
    """Source and target projections on the labels, and an isomorphism from
    the target projection onto the source projection (or None)."""
    if not sub <= c.source.labels & c.target.labels:
        raise NotASubset("labels must be marked in both the source and the target")
    p_source = project(c.source, sub)
    p_target = project(c.target, sub)
    return p_source, p_target, iso_of_spheres(p_target, p_source)


def dyn_membership(c: TreeCover, labels) -> tuple[bool, Optional[TreeOfSpheres]]:
    """Does the cover underlie a dynamical system over the given labels?

    True iff the source and target projections are isomorphic; the source
    projection is returned as the witness dynamical tree.
    """
    p_source, _, iso = _projections(c, frozenset(labels))
    if iso is None:
        return False, None
    return True, p_source


def synthesize_dyn(c: TreeCover, labels) -> Optional[DynSystem]:
    """A dynamical system underlain by the cover, or None.

    Membership is decided on isomorphism classes; compatibility, however, is
    an identity between representatives, so the target (and its fiber maps)
    are re-marked by the per-vertex comparison maps that carry its projection
    onto the witness.
    """
    sub = frozenset(labels)
    witness, p_target, iso = _projections(c, sub)
    if iso is None:
        return None
    _, moeb_iso = iso
    proj_vertex = {partition_at(p_target.shape, v): v for v in p_target.shape.internal}
    twists = {}
    for w in c.target.shape.internal:
        p = induced_partition(c.target, w, sub)
        if p is not None:
            twists[w] = moeb_iso[proj_vertex[p]]
    target = twist(c.target, twists)
    maps = {}
    for v in c.source.shape.internal:
        w = c.vm[v]
        f = c.map_at(v)
        maps[v] = f.postcompose(twists[w]) if w in twists else f
    remarked = TreeCover.make(c.source, target, c.vm, maps)
    return DynSystem(remarked, witness)


def dyn_conjugate(d1: DynSystem, d2: DynSystem) -> bool:
    """Conjugacy of dynamical systems; cover isomorphism already decides it.

    ``cover_iso`` decides through ``iso_of_spheres`` on the sources and
    raises PortraitMismatch when the covers carry different portraits.
    """
    if d1.labels != d2.labels:
        raise PortraitMismatch("dynamical systems are marked by different label sets")
    return cover_iso(d1.cover, d2.cover)
