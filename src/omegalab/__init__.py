"""omegalab: exact invariants of homogeneous polynomials and their polymatroids.

The package decides, in exact rational arithmetic, the sufficient smoothness
criterion for the resolution attached to the gradient map of a homogeneous
polynomial: M-convexity of the support, Lorentzian signature tests, base
polytopes of truncated rank functions, and Groebner-based torus feasibility
of face-restricted derivative systems, cross-checked by a toric-ideal oracle.
It holds what the certificate and the command line run; the paper-lemma
checks and the generic hull are test code, in `tests/paper_checks.py`.
"""

from .certify import (
    LorentzianReport,
    OrderReport,
    ProbeReport,
    SmoothnessCertificate,
    centre_disjoint,
    certify_smooth,
    is_lorentzian,
    is_mconvex,
    oracle_centre_disjoint,
    positive_eigenvalue_count,
    smoothable_probe,
)
from .derivatives import (
    DerivativeSpace,
    derivative_space,
    elementary_symmetric,
)
from .groebner import (
    FeasibilityVerdict,
    ToricIdeal,
    toric_ideal,
    torus_feasible,
)
from .guards import ResourceLimit
from .poly import (
    ParseError,
    Polynomial,
    grevlex_key,
    parse_polynomial,
)
from .polytope import (
    LatticePolytope,
    base_polytope,
    independence_polytope,
    is_simple,
)
from .setfunc import (
    PolymatroidCheckReport,
    SetFunction,
    ZeroRestrictionError,
    hyperbolic_rank,
    is_polymatroid,
    mask_to_set,
    rank_from_support,
    set_to_mask,
    truncate,
    truncation_sum,
)

__version__ = "0.1.0"

SCHEMA = "omegalab/1"
