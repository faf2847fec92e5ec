"""Exception hierarchy shared by all modules.

Every domain error carries an optional machine-readable witness so the CLI
can emit ``{"error": <class name>, "witness": ...}`` payloads.
"""

from __future__ import annotations

from typing import Any


class SphereTreesError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str = "", witness: Any = None):
        super().__init__(message)
        self.witness = witness

    @property
    def code(self) -> str:
        return type(self).__name__


class DegenerateTriple(SphereTreesError):
    """Two of the three normalization points coincide."""


class ZeroFamily(SphereTreesError):
    """Both homogeneous components of a Laurent point vanish identically."""


class InvalidIncidence(SphereTreesError):
    """The designated edge is not incident to the given vertex."""


class LeafSetMismatch(SphereTreesError):
    """Operands are marked by different label sets."""


class NotAdmissible(SphereTreesError):
    """A partition set fails the admissibility conditions."""


class MarkedSetTooSmall(SphereTreesError):
    """A marked set with fewer than three labels was supplied."""


class NotASubset(SphereTreesError):
    """The restricted label set is not contained in the marked set."""


class AdmissibilityFailure(SphereTreesError):
    """Partitions collected from a limit computation are not admissible."""


class NotStabilized(SphereTreesError):
    """Snapshots did not settle; witness: each unsettled quadruple, its spread and its farthest
    ladder's index and anchor eps, or a quadruple that is (0 : 0) in a snapshot, and its eps."""


class InconsistentClustering(SphereTreesError):
    """Tolerance clustering is not an equivalence relation."""


class InconsistentDegree(SphereTreesError):
    """Fiber degree sums disagree across target vertices."""


class OverlappingDivisors(SphereTreesError):
    """Requested zero and pole divisors share a support point."""


class UnitOnDivisor(SphereTreesError):
    """The normalization point lies on the requested divisor."""


class NotRealizable(SphereTreesError):
    """No cover with the given source tree and portrait exists."""


class PortraitMismatch(SphereTreesError):
    """Operands carry different portraits."""


class InvariantBreach(SphereTreesError):
    """An internally guaranteed consistency condition failed."""


class CollisionAtEpsilon(SphereTreesError):
    """Two family members evaluate to the same point at the chosen epsilon."""


class InvalidFamily(SphereTreesError):
    """Family paths are not pairwise distinct (or otherwise malformed)."""


class SchemaError(SphereTreesError):
    """Input JSON does not match the documented schema."""
