"""Exact Cox ring, Euler sequence and fan reconstruction computations for
smooth complete toric varieties.

All arithmetic is exact (integers and rationals); there is no floating
point anywhere in the package.

The exports resolve on first use (PEP 562): ``toric_cox.cox_data`` imports
``toric_cox.cox`` then, so a CLI run loads only the modules its command
calls.
"""

from importlib import import_module as _import_module

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "cox": (
        "CoxData",
        "GradedPolynomial",
        "cox_data",
        "divisor_in_class",
        "effective_weight_form",
        "graded_dimension",
        "irrelevant_ideal",
        "make_polynomial",
        "monomial_basis",
    ),
    "errors": (
        "DegenerateRay",
        "InhomogeneousInput",
        "MalformedFan",
        "NotAmpleLift",
        "NotComplete",
        "NotSmooth",
        "NotSurjective",
        "OracleMismatch",
        "RaysDontSpan",
        "ToricCoxError",
        "UnboundedPolytope",
    ),
    "euler": (
        "EulerModule",
        "EulerModuleElement",
        "basis_element",
        "build_euler_module",
        "check_euler_identity",
        "derivation",
        "euler_contract",
        "graded_generation_check",
        "graded_piece_dim",
        "induced_algebra_generators",
        "monomials_of_weight_at_most",
        "section_dimension_report",
    ),
    "fans": (
        "Fan",
        "FanReport",
        "TorusInvariantDivisor",
        "anticanonical",
        "class_group",
        "fan_from_json",
        "fan_to_json",
        "is_ample",
        "validate_fan",
    ),
    "lattice": (
        "AbelianGroupPresentation",
        "IntegerMatrix",
        "cokernel",
        "hermite_basis",
        "kernel_basis",
        "smith_normal_form",
        "solve_integer",
    ),
    "polyhedral": (
        "PolytopeFamily",
        "RationalCone",
        "WeightForm",
        "cone_contains",
        "cone_from_generators",
        "generators_from_inequalities",
        "polytope_family",
    ),
    "reconstruction": (
        "GradingInput",
        "grading_from_json",
        "reconstruct_fan",
        "roundtrip_check",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SUBMODULE])


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace as well.
        return _import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
