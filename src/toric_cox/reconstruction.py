"""Inverse construction: from grading data back to the fan.

Given a surjective degree matrix and a class in the interior of the
effective cone, the rays are read off from the kernel of the grading (Gale
duality) and the fan is the normal fan of the polytope cut out by any
integral lift of the class.  The result is always validated; failures are
structured errors, never partial fans.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import (
    DegenerateRay,
    MalformedFan,
    NotAmpleLift,
    NotSmooth,
    NotSurjective,
)
from .fans import (
    Fan,
    TorusInvariantDivisor,
    anticanonical,
    class_group,
    is_ample,
    is_integer_list,
    require_smooth_complete,
    validate_fan,
)
from .lattice import (
    IntegerMatrix,
    Vector,
    cokernel,
    kernel_basis,
    primitive_vector,
    solve_integer,
)
from .polyhedral import _homogenized_generators, cone_contains, cone_from_generators


class GradingInput:
    """Degree matrix (rows = class lattice) plus a distinguished ample class."""

    __slots__ = ("degree_matrix", "ample_class")

    def __init__(self, degree_matrix: IntegerMatrix, ample_class: Vector) -> None:
        if len(ample_class) != degree_matrix.rows:
            raise ValueError("class vector length must match the matrix row count")
        self.degree_matrix = degree_matrix
        self.ample_class = ample_class


def grading_from_json(text: str) -> GradingInput:
    data = json.loads(text)
    if not isinstance(data, dict) or "Q" not in data or "w" not in data:
        raise MalformedFan("grading file must be an object with keys 'Q' and 'w'")
    q = data["Q"]
    w = data["w"]
    if not (isinstance(q, list) and q and all(is_integer_list(row) and row for row in q)):
        raise MalformedFan("'Q' must be a nonempty list of nonempty integer rows")
    if any(len(row) != len(q[0]) for row in q):
        raise MalformedFan("the rows of 'Q' must have equal length")
    if not is_integer_list(w):
        raise MalformedFan("'w' must be an integer vector")
    if len(w) != len(q):
        raise MalformedFan(f"'w' has {len(w)} entries, expected one per row of 'Q' ({len(q)})")
    return GradingInput(IntegerMatrix.from_rows(q), tuple(w))


def _surjective_kernel(q: IntegerMatrix) -> IntegerMatrix:
    """Canonical kernel basis of the grading matrix; NotSurjective unless it is onto."""
    presentation = cokernel(q)
    if presentation.free_rank or presentation.invariant_factors:
        raise NotSurjective("grading matrix does not surject onto the class lattice")
    return kernel_basis(q)


def gale_dual_rays(gi: GradingInput) -> IntegerMatrix:
    """Primitivized rows of the canonical kernel basis of the grading matrix."""
    kernel = _surjective_kernel(gi.degree_matrix)
    rows = []
    for i in range(kernel.rows):
        row = kernel.row(i)
        if not any(row):
            raise DegenerateRay(f"kernel row {i} is zero")
        rows.append(primitive_vector(row))
    return IntegerMatrix.from_rows(rows)


def _reconstruct_from_kernel(q: IntegerMatrix, ample_class: Vector, kernel: IntegerMatrix) -> Fan:
    n = kernel.cols
    rays = []
    for i in range(kernel.rows):
        row = kernel.row(i)
        if not any(row):
            raise DegenerateRay(f"kernel row {i} is zero")
        if primitive_vector(row) != row:
            raise NotSmooth(f"kernel row {i} is not primitive; grading is not smooth toric data")
        rays.append(row)
    effective = cone_from_generators(q.columns(), q.rows)
    if not cone_contains(effective, ample_class, "relative_interior"):
        raise NotAmpleLift("class is not interior to the effective cone")
    lift = solve_integer(q, ample_class)
    if lift is None:
        raise NotAmpleLift("class does not lift to an integral divisor")
    # Generators (num, det) of the cone over the lifted polyhedron: one at
    # det = 0 is a recession direction, and without one each is the vertex
    # num / det.  The vertices exist and span n: the polytope is q's fiber
    # over an interior class cut by the orthant.
    vertices = _homogenized_generators(rays, lift, n)
    if any(not det for _, det in vertices):
        raise NotAmpleLift("lifted polyhedron is unbounded; rays do not positively span")
    max_cones = {
        tuple(
            i
            for i, (ray, a) in enumerate(zip(rays, lift))
            if sum(c * x for c, x in zip(ray, num)) == -a * det
        )
        for num, det in vertices
    }
    active_anywhere = {i for cone in max_cones for i in cone}
    if active_anywhere != set(range(len(rays))):
        raise NotAmpleLift("some ray is inactive on the lifted polytope")
    fan = Fan.make(n, rays, sorted(max_cones))
    try:
        report = validate_fan(fan)
    except MalformedFan as exc:
        raise NotSmooth(f"normal fan is not a valid smooth fan: {exc}") from exc
    if not (report.smooth and report.complete):
        raise NotSmooth("normal fan is not smooth and complete")
    return fan


def reconstruct_fan(gi: GradingInput) -> Fan:
    """Normal fan of a lifted polytope for the given grading and interior class.

    Errors: NotSurjective (grading not onto), DegenerateRay (a zero kernel
    row), NotSmooth (non-primitive kernel row or a non-unimodular vertex
    cone), NotAmpleLift (class not interior, unbounded polyhedron or inactive
    ray).
    """
    return _reconstruct_from_kernel(
        gi.degree_matrix, gi.ample_class, _surjective_kernel(gi.degree_matrix)
    )


def roundtrip_check(f: Fan, ample_divisor: TorusInvariantDivisor) -> bool:
    """Fan -> grading -> fan is the identity, using the fan's own ray matrix as kernel.

    The divisor must be ample; the comparison is literal on the ray matrix
    (same order) and on the maximal cones as sets.
    """
    require_smooth_complete(f)
    if not is_ample(f, ample_divisor):
        raise NotAmpleLift("divisor is not ample")
    _, degree_map = class_group(f)
    target_class = degree_map(ample_divisor.coefficients)
    rebuilt = _reconstruct_from_kernel(degree_map.matrix, target_class, f.ray_matrix())
    return rebuilt.rays == f.rays and set(map(frozenset, rebuilt.max_cones)) == set(
        map(frozenset, f.max_cones)
    )


class SplittingCertificate(NamedTuple):
    """Witness that the section module splits with one line-bundle twist per ray."""

    rank: int
    degree_multiset: tuple[Vector, ...]
    anticanonical_check: bool


def splitting_certificate(f: Fan) -> SplittingCertificate:
    """Rank and twist classes of the canonical splitting, with the degree-sum check.

    The check cannot fail: the anticanonical divisor is (1, ..., 1), so its
    class is the sum of the degree columns by linearity.  It is kept because
    the ``verify`` report prints it.
    """
    require_smooth_complete(f)
    _, degree_map = class_group(f)
    degrees = sorted(degree_map.matrix.columns())
    total = tuple(sum(col) for col in zip(*degrees))
    anticanonical_class = degree_map(anticanonical(f).coefficients)
    return SplittingCertificate(
        rank=f.n_rays,
        degree_multiset=tuple(degrees),
        anticanonical_check=(total == anticanonical_class),
    )
