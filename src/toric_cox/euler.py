"""The graded module of sections of the extension of the trivial class-lattice
bundle by the cotangent sheaf, realized through its splitting on a smooth
complete toric variety.

The module is free with one basis element per ray, the basis element for a
ray sitting in the twist by that ray's divisor class.  The universal
derivation acts by formal partial derivatives, and contracting against the
weighted Euler vector field recovers the weighted-degree identity
``sum_i w_i x_i ds/dx_i = w(deg s) * s``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Sequence

from .cox import (
    CoxData,
    GradedPolynomial,
    _exponents_up_to_weight,
    graded_dimension,
    integral_class,
    make_polynomial,
    monomial_basis,
)
from .errors import InhomogeneousInput
from .lattice import Vector, integer_vector, rational_rank
from .polyhedral import WeightForm


@dataclass(frozen=True)
class EulerModule:
    """Free graded module with basis degrees the variable degrees."""

    cox: CoxData
    basis_degrees: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis_degrees)


def build_euler_module(cd: CoxData) -> EulerModule:
    return EulerModule(cox=cd, basis_degrees=cd.variable_degrees())


@dataclass(eq=True)
class EulerModuleElement:
    """Element as one polynomial component per basis index."""

    module: EulerModule
    components: tuple[GradedPolynomial, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @property
    def degree(self) -> Vector | None:
        """Twist in which the element is homogeneous, or None."""
        degrees = set()
        for component, basis_degree in zip(self.components, self.module.basis_degrees):
            if component.is_zero():
                continue
            d = component.degree
            if d is None:
                return None
            degrees.add(tuple(a + b for a, b in zip(d, basis_degree)))
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.degree is not None

    def __add__(self, other: "EulerModuleElement") -> "EulerModuleElement":
        return EulerModuleElement(
            self.module,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "EulerModuleElement") -> "EulerModuleElement":
        return self + (-1) * other

    def __mul__(self, factor: "GradedPolynomial | int | Fraction") -> "EulerModuleElement":
        return EulerModuleElement(self.module, tuple(c * factor for c in self.components))

    __rmul__ = __mul__


def basis_element(em: EulerModule, index: int) -> EulerModuleElement:
    components = [em.cox.zero() for _ in range(em.rank)]
    components[index] = em.cox.one()
    return EulerModuleElement(em, tuple(components))


def graded_piece_dim(em: EulerModule, class_vector: Sequence[int]) -> int:
    """Dimension of the twisted section space, summed over the splitting."""
    lam = integral_class(em.cox, class_vector)
    return sum(
        graded_dimension(em.cox, tuple(a - b for a, b in zip(lam, degree)))
        for degree in em.basis_degrees
    )


def derivation(em: EulerModule, s: GradedPolynomial) -> EulerModuleElement:
    """Universal derivation: component per ray is the formal partial derivative."""
    if not s.is_homogeneous():
        raise InhomogeneousInput("derivation requires a homogeneous argument")
    return EulerModuleElement(em, tuple(s.partial(i) for i in range(em.rank)))


def euler_contract(em: EulerModule, element: EulerModuleElement, form: WeightForm) -> GradedPolynomial:
    """Contraction with the weighted Euler vector field sum_i w(deg x_i) x_i d/dx_i.

    Sends a homogeneous element of twist d to a polynomial of class d whose
    constant term always vanishes.
    """
    if not element.is_homogeneous():
        raise InhomogeneousInput("contraction requires a homogeneous element")
    total: dict[Vector, Fraction] = {}
    for i, (component, degree) in enumerate(zip(element.components, em.basis_degrees)):
        weight = form(degree)
        for e, c in component.terms.items():
            raised = _raise_exponent(e, i)
            total[raised] = total.get(raised, 0) + weight * c
    return GradedPolynomial(em.cox, total)


def _raise_exponent(e: Vector, index: int) -> Vector:
    """The exponent of x_index * x^e."""
    return e[:index] + (e[index] + 1,) + e[index + 1:]


def induced_algebra_generators(em: EulerModule, form: WeightForm) -> tuple[GradedPolynomial, ...]:
    """Images of the module basis under the Euler contraction: weighted variables.

    Since the basis generates the module, these polynomials generate the
    whole coordinate ring as an algebra; image i is ``form(deg x_i) * x_i``.
    """
    return tuple(euler_contract(em, basis_element(em, i), form) for i in range(em.rank))


def monomials_of_weight_at_most(cd: CoxData, bound: int) -> tuple[Vector, ...]:
    """All exponent vectors of weight (under the positive form) at most the bound, sorted."""
    return tuple(_exponents_up_to_weight(cd.variable_weights, bound))


@dataclass(frozen=True)
class IdentityReport:
    checked: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_euler_identity(
    em: EulerModule,
    form: WeightForm,
    trials: int = 50,
    max_weight: int = 4,
    rng: random.Random | None = None,
) -> IdentityReport:
    """Check contraction-after-derivation equals weight-of-degree times identity.

    Runs over random homogeneous polynomials of bounded weight (random
    rational combinations of the monomials of a random effective class).
    The classes are drawn from the nonconstant monomials of weight at most
    ``max(max_weight, w_min)``, with w_min the lightest variable weight: so
    the pool is never empty, and it is the same wherever ``max_weight``
    already reaches a variable.
    """
    rng = rng or random.Random(20240)
    cd = em.cox
    bound = max(max_weight, min(cd.variable_weights))
    pool = [e for e in monomials_of_weight_at_most(cd, bound) if any(e)]
    classes = sorted({cd.degree_of_exponent(e) for e in pool})
    failures: list[str] = []
    checked = 0
    for _ in range(trials):
        lam = classes[rng.randrange(len(classes))]
        s = make_polynomial(cd, {e: rng.randint(-3, 3) for e in monomial_basis(cd, lam)})
        expected = form(lam) * s
        actual = euler_contract(em, derivation(em, s), form)
        checked += 1
        if actual != expected:
            failures.append(f"class {lam}: got {actual}, expected {expected}")
    return IdentityReport(checked=checked, counterexamples=tuple(failures))


def graded_generation_check(
    weights: Sequence[int],
    candidate_exponents: Sequence[Sequence[int]],
    bound: int,
) -> bool:
    """Do the candidate monomials generate every weighted piece up to the bound?

    The ambient algebra is a polynomial ring whose variables carry the
    given positive weights.  Degree-by-degree the reachable products of
    candidates are compared with the full monomial basis of that weight.
    A weight or exponent that is not an integer raises ValueError.
    """
    weights = integer_vector(weights, "weights")
    if any(w < 1 for w in weights):
        raise ValueError("variable weights must be positive")
    candidates = [integer_vector(e, "candidate exponent") for e in candidate_exponents]
    bound = index(bound)
    n = len(weights)
    if any(len(e) != n for e in candidates):
        raise ValueError("candidate exponent length mismatch")

    def weight_of(e: Vector) -> int:
        return sum(a * b for a, b in zip(weights, e))

    if any(weight_of(e) < 1 for e in candidates):
        raise ValueError("candidates must have positive weight")

    reachable: dict[int, set[Vector]] = {0: {(0,) * n}}
    for w in range(1, bound + 1):
        layer: set[Vector] = set()
        for c in candidates:
            wc = weight_of(c)
            if wc <= w:
                for base in reachable.get(w - wc, ()):
                    layer.add(tuple(a + b for a, b in zip(base, c)))
        reachable[w] = layer
        if layer != set(_exponents_up_to_weight(weights, w, exact=True)):
            return False
    return True


@dataclass(frozen=True)
class SectionDimensionRecord:
    class_vector: Vector
    module_dim: int
    ring_dim: int
    projection_rank: int
    differential_sections: int
    right_exact: bool


@dataclass(frozen=True)
class SectionDimensionReport:
    rank_identity: bool
    records: tuple[SectionDimensionRecord, ...]

    @property
    def ok(self) -> bool:
        return self.rank_identity and all(r.differential_sections >= 0 for r in self.records)


def section_dimension_report(
    em: EulerModule,
    window: Sequence[Sequence[int]] | None = None,
) -> SectionDimensionReport:
    """Dimension bookkeeping for the twisted section sequence.

    For each class d in the window, the projection of the module piece to
    (class lattice) tensor (ring piece) sends the basis element of ray i
    to x_i tensor deg x_i; the twisted differentials' section dimension is
    its kernel dimension, by left exactness.  The report records where the
    projection is also surjective (so the naive difference formula holds).
    """
    cd = em.cox
    r = cd.cl_rank
    if window is None:
        window = [v for v in itertools.product(range(-2, 3), repeat=r)]
    records = []
    for raw in window:
        lam = integral_class(cd, raw)
        module_dim = graded_piece_dim(em, lam)
        ring_basis = monomial_basis(cd, lam)
        ring_dim = len(ring_basis)
        rank = _projection_rank(em, lam, ring_basis)
        records.append(
            SectionDimensionRecord(
                class_vector=lam,
                module_dim=module_dim,
                ring_dim=ring_dim,
                projection_rank=rank,
                differential_sections=module_dim - rank,
                right_exact=(rank == r * ring_dim),
            )
        )
    return SectionDimensionReport(
        rank_identity=(em.rank == cd.fan.dim + cd.cl_rank),
        records=tuple(records),
    )


def _projection_rank(em: EulerModule, lam: Vector, ring_basis: tuple[Vector, ...]) -> int:
    """Rank of the piece-wise projection (p_i) -> sum_i p_i x_i (x) deg x_i."""
    cd = em.cox
    if not ring_basis:
        return 0
    row_index = {
        (monomial, j): k
        for k, (monomial, j) in enumerate(itertools.product(ring_basis, range(cd.cl_rank)))
    }
    columns: list[list[int]] = []
    for i, degree in enumerate(em.basis_degrees):
        shifted = tuple(a - b for a, b in zip(lam, degree))
        for e in monomial_basis(cd, shifted):
            product = _raise_exponent(e, i)
            column = [0] * len(row_index)
            for j, dj in enumerate(degree):
                if dj:
                    column[row_index[(product, j)]] = dj
            columns.append(column)
    if not columns:
        return 0
    return rational_rank(columns)
