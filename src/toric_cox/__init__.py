"""Exact Cox ring, Euler sequence and fan reconstruction computations for
smooth complete toric varieties.

All arithmetic is exact (integers and rationals); there is no floating
point anywhere in the package.
"""

from .cox import (
    CoxData,
    GradedPolynomial,
    cox_data,
    divisor_in_class,
    effective_weight_form,
    graded_dimension,
    irrelevant_ideal,
    make_polynomial,
    monomial_basis,
)
from .errors import (
    DegenerateRay,
    InhomogeneousInput,
    MalformedFan,
    NotAmpleLift,
    NotComplete,
    NotPointed,
    NotSmooth,
    NotSurjective,
    OracleMismatch,
    RaysDontSpan,
    ToricCoxError,
    TorsionClassGroup,
    UnboundedPolytope,
)
from .euler import (
    EulerModule,
    EulerModuleElement,
    basis_element,
    build_euler_module,
    check_euler_identity,
    derivation,
    euler_contract,
    graded_generation_check,
    graded_piece_dim,
    induced_algebra_generators,
    monomials_of_weight_at_most,
    section_dimension_report,
)
from .fans import (
    CechCocycle,
    Fan,
    FanReport,
    TorusInvariantDivisor,
    anticanonical,
    cartier_data,
    cech_transitions,
    class_group,
    fan_from_json,
    fan_to_json,
    is_ample,
    validate_fan,
)
from .lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    LatticeMap,
    cokernel,
    hermite_basis,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from .polyhedral import (
    PolytopeFamily,
    RationalCone,
    RationalPolytope,
    WeightForm,
    cone_contains,
    cone_from_generators,
    cone_from_inequalities,
    dual_cone,
    generators_from_inequalities,
    polytope_family,
    polytope_lattice_points,
    polytope_vertices,
    strictly_positive_form,
)
from .reconstruction import (
    GradingInput,
    SplittingCertificate,
    gale_dual_rays,
    grading_from_json,
    reconstruct_fan,
    roundtrip_check,
    splitting_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
