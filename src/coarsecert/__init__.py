"""coarsecert: Lipschitz partition-of-unity certificates on finite metric spaces.

The library constructs partitions of unity with controlled Lipschitz slope
and coboundedness from nested disjoint-decomposition data, and re-verifies
every claim by direct computation.  The verifier, not the construction, is
the correctness authority.
"""

from .metric import (
    FiniteMetricSpace,
    PointSubset,
    Retraction,
    diameter,
    load_graph,
    load_matrix,
    load_points,
    nearest_point_retraction,
    set_ball,
)
from .simplex import (
    PartitionOfUnity,
    VertexId,
    VertexMint,
    barycentric_pou,
    convex_combine,
    simplicial_retraction,
    star_preimage_diameters,
)
from .verify import (
    CoverFamily,
    cobounded_check,
    lebesgue_check,
    lipschitz_check,
    multiplicity,
    r_disjoint_check,
    uniformly_bounded_check,
)
from .covers import (
    DecompositionTree,
    brick_tree,
    greedy_decomposition,
    greedy_tree,
    point_finite_transform,
    tree_validate,
)
from .extend import (
    BudgetSchedule,
    Modulus,
    budget_schedule,
    build_certificate,
    default_modulus,
    extend_over_bounded_piece,
    extend_over_disjoint_family,
    extend_pou,
    extend_pou_cobounded,
    paste,
)

__version__ = "0.1.0"
