"""Dynamical systems of trees of spheres.

A cover together with a tree over a shared sub-label-set is a dynamical
system when that tree is compatible with both the source and the target,
i.e. equals their projections on the nose: both sides are projections, whose
internal vertices are ranked by partition, so compatibility is value equality
and builds no Moebius map.  Whether some compatible tree exists at all is
decided on isomorphism classes: the two projections must be isomorphic, and
the source projection then serves as a witness.
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
    spheres_iso,
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
    """Is t_x the projection of t_y, T_X = pi_X(T_Y), on the nose?

    Projecting t_x onto its own labels renames its internal vertices by partition rank
    and keeps every row, so the two projections are equal values exactly when the trees
    have the same partitions and the same edge points at each of them.
    """
    if not t_x.labels <= t_y.labels:
        raise NotASubset("the first tree is not marked by a subset")
    return project(t_x, t_x.labels) == project(t_y, t_x.labels)


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


def _projections(c: TreeCover, sub: frozenset) -> tuple[TreeOfSpheres, TreeOfSpheres]:
    """Source and target projections on the labels."""
    if not sub <= c.source.labels & c.target.labels:
        raise NotASubset("labels must be marked in both the source and the target")
    return project(c.source, sub), project(c.target, sub)


def dyn_membership(c: TreeCover, labels) -> tuple[bool, Optional[TreeOfSpheres]]:
    """Does the cover underlie a dynamical system over the given labels?

    True iff the source and target projections are isomorphic; the source
    projection is returned as the witness dynamical tree.
    """
    p_source, p_target = _projections(c, frozenset(labels))
    return (True, p_source) if spheres_iso(p_target, p_source) else (False, None)


def synthesize_dyn(c: TreeCover, labels) -> Optional[DynSystem]:
    """A dynamical system underlain by the cover, or None.

    Membership is decided on isomorphism classes; compatibility, however, is
    an identity between representatives, so the target (and its fiber maps)
    are re-marked by the per-vertex comparison maps that carry its projection
    onto the witness.
    """
    sub = frozenset(labels)
    witness, p_target = _projections(c, sub)
    if (iso := iso_of_spheres(p_target, witness)) is None:
        return None
    moeb_iso = iso[1]
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
