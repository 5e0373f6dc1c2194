"""Inverse construction: from grading data back to the fan.

Given a surjective degree matrix and a class in the interior of the
effective cone, the rays are read off from the kernel of the grading (Gale
duality) and the fan is the normal fan of the polytope cut out by any
integral lift of the class.  The result is always validated; failures are
structured errors, never partial fans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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
    _load_json,
    is_ample,
    is_integer_list,
    validate_fan,
)
from .lattice import (
    IntegerMatrix,
    Vector,
    hermite_basis,
    integer_vector,
    kernel_basis,
    primitive_vector,
    solve_integer,
)
from .polyhedral import _homogenized_generators, cone_contains, generators_from_inequalities

if TYPE_CHECKING:
    from .cox import CoxData


class GradingInput:
    """Degree matrix (rows = class lattice) plus a distinguished ample class."""

    __slots__ = ("degree_matrix", "ample_class")

    def __init__(self, degree_matrix: IntegerMatrix, ample_class: Vector) -> None:
        ample_class = integer_vector(ample_class, "class")
        if len(ample_class) != degree_matrix.rows:
            raise ValueError("class vector length must match the matrix row count")
        self.degree_matrix = degree_matrix
        self.ample_class = ample_class


def grading_from_json(text: str) -> GradingInput:
    data = _load_json(text)
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


def _normal_fan(rays: Sequence[Vector], effective_normals: Sequence[Vector], ample_class: Vector, lift: Vector) -> Fan:
    """Normal fan of the polytope {m : <v_i, m> >= -lift_i}, the lift being one of an
    interior class of the grading whose kernel rows are the rays v_i."""
    if not cone_contains(effective_normals, len(ample_class), ample_class, "relative_interior"):
        raise NotAmpleLift("class is not interior to the effective cone")
    n = len(rays[0])
    # Generators (num, det) of the cone over the lifted polyhedron: one at
    # det = 0 is a recession direction, and without one each is the vertex
    # num / det.  The vertices exist and span n: the polytope is the
    # grading's fiber over an interior class cut by the orthant.
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

    Errors: NotSurjective (the columns' Hermite basis is not the identity),
    DegenerateRay (a zero kernel row), NotSmooth (non-primitive kernel row
    or a non-unimodular vertex cone), NotAmpleLift (class not interior,
    unbounded polyhedron or inactive ray).
    """
    q = gi.degree_matrix
    if hermite_basis(q.columns(), q.rows) != IntegerMatrix.identity(q.rows).entries:
        raise NotSurjective("grading matrix does not surject onto the class lattice")
    rays = kernel_basis(q).entries
    for i, row in enumerate(rays):
        if not any(row):
            raise DegenerateRay(f"kernel row {i} is zero")
        if primitive_vector(row) != row:
            raise NotSmooth(f"kernel row {i} is not primitive; grading is not smooth toric data")
    effective_normals = generators_from_inequalities(q.columns(), q.rows)
    return _normal_fan(rays, effective_normals, gi.ample_class, solve_integer(q, gi.ample_class))


def roundtrip_check(cd: CoxData, ample_divisor: TorusInvariantDivisor) -> bool:
    """Fan -> grading -> fan is the identity, using the fan's own rays as the kernel.

    The grading is ``cd.degree_matrix``, and its effective cone and class
    lift are ``cd``'s.  The divisor must be ample on ``cd.fan``
    (NotAmpleLift otherwise).  Only the maximal cones are compared, as
    sets: the rebuilt fan's rays are ``f.rays`` themselves, which
    :meth:`Fan.make` keeps in their order and values.
    """
    f = cd.fan
    if not is_ample(f, ample_divisor):
        raise NotAmpleLift("divisor is not ample")
    target_class = cd.degree_of_exponent(ample_divisor.coefficients)
    rebuilt = _normal_fan(f.rays, cd.effective_normals, target_class, cd.class_section.mat_vec(target_class))
    return set(map(frozenset, rebuilt.max_cones)) == set(map(frozenset, f.max_cones))
