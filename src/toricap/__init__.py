"""toricap: symplectic invariants of convex toric domains.

Exact diagonals and support functions, Gutt-Hutchings capacities along
two independent routes, Reeb orbit spectra on rounded boundaries with
Conley-Zehnder indices, and the integer/rational bookkeeping of punctured
curves and holomorphic buildings.
"""

from .moment_domain import (
    BadEndpoints,
    EllipsoidSpec,
    LatticeDirection,
    MomentDomain2D,
    NonConcave,
    NotMonotone,
    PreconditionViolated,
    ZeroDirection,
    ball,
    diagonal,
    diagonal_intersection_isolated,
    equal_diagonal_enclosing_ellipsoids,
    included_in_ellipsoid,
    make_polygon_domain,
    support,
)
from .capacities import (
    CapacityReport,
    Cylinder,
    LowerBound,
    Polydisk,
    ProjectiveSpace,
    UnsupportedShape,
    find_k_equal_diagonal,
    gh_capacity_toric4,
    gh_spectrum_ellipsoid,
    gw_tangency_count,
    lagrangian_capacity,
    torus_descendant,
)
from .rounding_reeb import (
    AxisPoint,
    OrbitSplit,
    ReebOrbitFamily,
    SlopeConditionUnreachable,
    SmoothDomain2D,
    TooManyFamilies,
    capacity_via_spectrum,
    gauss_point,
    orbit_families,
    reeb_angular_velocity,
    round_domain,
    split_family,
    support_smooth,
)
from .sft_ledger import (
    Building,
    CurveNode,
    EpsilonTooLarge,
    IndexBoundUnreachable,
    Puncture,
    TooManyPartitions,
    building_validate,
    canonical_ball_building,
    cz_from_morse,
    energy_partition_check,
    energy_partition_solve,
    forced_morse_indices,
    min_positive_punctures,
    punctured_sphere_index,
)

__version__ = "0.1.0"
