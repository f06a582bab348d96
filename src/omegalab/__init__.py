"""omegalab: exact invariants of homogeneous polynomials and their polymatroids.

The package decides, in exact rational arithmetic, the sufficient smoothness
criterion for the resolution attached to the gradient map of a homogeneous
polynomial: M-convexity of the support, Lorentzian signature tests, base
polytopes of truncated rank functions, and Groebner-based torus feasibility
of face-restricted derivative systems.
"""

from .certify import (
    LorentzianReport,
    OrderReport,
    ProbeReport,
    SmoothnessCertificate,
    centre_disjoint,
    certify_smooth,
    check_derivative_supports,
    is_lorentzian,
    is_mconvex,
    oracle_centre_disjoint,
    positive_eigenvalue_count,
    smoothable_probe,
)
from .derivatives import (
    DerivativeSpace,
    all_partials,
    binomial_identity_report,
    derivative_space,
    derivative_support,
    elementary_symmetric,
    projection_centre,
    span_contains,
)
from .groebner import (
    FeasibilityVerdict,
    ToricIdeal,
    toric_ideal,
    torus_feasible,
)
from .guards import ResourceLimit
from .linalg import smith_normal_form, snf_divisors
from .poly import (
    ParseError,
    Polynomial,
    grevlex_key,
    parse_polynomial,
)
from .polytope import (
    Face,
    LatticePolytope,
    base_polytope,
    enumerate_basic_vertices,
    faces,
    independence_polytope,
    is_simple,
    is_smooth,
    lattice_points,
    matroid_staircase_vertices,
    minkowski_sum,
    polytope_from_points,
)
from .setfunc import (
    PolymatroidCheckReport,
    SetFunction,
    SimplicityReport,
    ZeroRestrictionError,
    check_simplicity_conditions,
    hyperbolic_rank,
    is_inseparable,
    is_matroid,
    is_polymatroid,
    mask_to_set,
    polymatroid_from_hyperbolic,
    rank_from_support,
    set_to_mask,
    truncate,
    truncation_sum,
)

__version__ = "0.1.0"

SCHEMA = "omegalab/1"
