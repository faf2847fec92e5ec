"""Exact calculus of marked spheres, their degeneration trees, and covers."""

from .gaussian import GaussianRational, gr
from .projective import Moebius, ProjPoint, moebius_from_three
from .rational import RationalMap, local_degree
from .laurent import (
    LaurentMap,
    LaurentMoebius,
    LaurentPoint,
    LaurentPoly,
    laurent_leading_value,
)
from .trees import (
    MarkedTree,
    branch,
    enumerate_stable_trees,
    is_admissible,
    partition_at,
    tree_from_partitions,
    tree_partitions,
    trees_isomorphic,
    validate_tree,
)
from .moduli import (
    MarkedSphere,
    TreeOfSpheres,
    canonical_form,
    embed,
    project,
    sphere_as_tree,
    spheres_iso,
)
from .covers import (
    MarkedSphereCover,
    Portrait,
    TreeCover,
    cover_from_marked,
    cover_iso,
    extract_portrait,
    global_degree,
    rational_from_divisors,
    reconstruct_cover,
    validate_cover,
    validate_portrait,
)
from .limits import (
    CoverFamily,
    LaurentFamily,
    NumericConfigSequence,
    limit_cover,
    limit_tree,
    numeric_limit_tree,
)
from .plumbing import plumb_family
from .dynamics import DynSystem, compatible, dyn_conjugate, dyn_membership, validate_dyn

__version__ = "0.1.0"
