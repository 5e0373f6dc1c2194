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
from fractions import Fraction
from operator import index, mul
from typing import NamedTuple, Sequence

from .cox import (
    CoxData,
    GradedPolynomial,
    _exponents_up_to_weight,
    _partials,
    graded_dimension,
    integral_class,
    monomial_basis,
)
from .errors import InhomogeneousInput
from .lattice import Vector, hermite_basis, integer_vector
from .polyhedral import WeightForm


class EulerModule(NamedTuple):
    """Free graded module with basis degrees the variable degrees."""

    cox: CoxData
    basis_degrees: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis_degrees)


def build_euler_module(cd: CoxData) -> EulerModule:
    return EulerModule(cox=cd, basis_degrees=cd.variable_degrees())


class EulerModuleElement:
    """Element as one polynomial component per basis index; compared by value,
    and unhashable, like its components.

    Only the nonzero components are stored, in the private mapping
    ``_parts`` from basis index to polynomial, so every operation visits
    only those; a sum or a product that cancels drops its index, and an
    element is zero exactly when the mapping is empty.  :attr:`components`
    builds the dense tuple, zeros included, on each read.  With no zero
    components left to check them, ``+`` and ``-`` check the other
    element's module themselves, and ``*`` the factor's Cox ring, raising
    ValueError on a mismatch, even for the zero element; a factor that is
    not a polynomial, an ``int`` or a ``Fraction`` is a TypeError.

    ``_twist`` is the twist of the element when it is known by construction,
    and None otherwise.  Only package code sets it: :func:`derivation`
    records the class of an argument of two or more terms, ``_derivation``
    the class its caller knows, and a multiple by an ``int`` or a
    ``Fraction`` keeps it.  A sum, a difference, a product with a
    polynomial and an element a caller builds have no known twist, so
    :func:`euler_contract` checks them in full.  The twist takes no part in
    equality.

    The constructor is the validating entry for outside input: it takes the
    dense components, and raises ValueError unless there is one per basis
    element, each a polynomial of the module's Cox ring; it stores the
    nonzero ones.  Package code builds its elements from the module's own
    ring through :func:`_element`, with no check.
    """

    __slots__ = ("module", "_parts", "_twist")

    def __init__(self, module: EulerModule, components: Sequence[GradedPolynomial]) -> None:
        components = tuple(components)
        if len(components) != module.rank:
            raise ValueError(f"{len(components)} components for a module of rank {module.rank}")
        for c in components:
            if c.__class__ is not GradedPolynomial or (c.cox is not module.cox and c.cox != module.cox):
                raise ValueError("a component is not a polynomial of the module's Cox ring")
        self.module = module
        self._parts = {i: c for i, c in enumerate(components) if c.terms}
        self._twist: Vector | None = None

    @property
    def components(self) -> tuple[GradedPolynomial, ...]:
        """One polynomial per basis index, a new zero polynomial where none is stored."""
        return tuple(self._parts.get(i) or self.module.cox.zero() for i in range(self.module.rank))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EulerModuleElement:
            return NotImplemented
        return (self.module, self._parts) == (other.module, other._parts)

    def is_zero(self) -> bool:
        return not self._parts

    @property
    def degree(self) -> Vector | None:
        """Twist in which the element is homogeneous, or None; found from the components."""
        degrees = {i: component.degree for i, component in self._parts.items()}
        if None in degrees.values():
            return None
        twists = {tuple(a + b for a, b in zip(d, self.module.basis_degrees[i])) for i, d in degrees.items()}
        return twists.pop() if len(twists) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.degree is not None

    def __add__(self, other: "EulerModuleElement") -> "EulerModuleElement":
        if other.__class__ is not EulerModuleElement:
            return NotImplemented
        if other.module is not self.module and other.module != self.module:
            raise ValueError("cannot add elements of two different Euler modules")
        parts = dict(self._parts)
        for i, c in other._parts.items():
            parts[i] = parts[i] + c if i in parts else c
        return _element(self.module, {i: c for i, c in parts.items() if c.terms})

    def __sub__(self, other: "EulerModuleElement") -> "EulerModuleElement":
        if other.__class__ is not EulerModuleElement:
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, factor: "GradedPolynomial | int | Fraction") -> "EulerModuleElement":
        if isinstance(factor, GradedPolynomial):
            if factor.cox is not self.module.cox and factor.cox != self.module.cox:
                raise ValueError("product with a polynomial of another Cox ring")
        elif not isinstance(factor, (int, Fraction)):
            return NotImplemented
        # A scalar multiple lies in the same twist.
        twist = None if isinstance(factor, GradedPolynomial) else self._twist
        return _element(self.module, {i: p for i, c in self._parts.items() if (p := c * factor).terms}, twist)

    __rmul__ = __mul__


def _element(em: EulerModule, parts: dict[int, GradedPolynomial], twist: Vector | None = None) -> EulerModuleElement:
    """The element of em with these nonzero components by basis index, all of
    em's Cox ring, and this known twist; no check."""
    element = object.__new__(EulerModuleElement)
    element.module = em
    element._parts = parts
    element._twist = twist
    return element


def basis_element(em: EulerModule, index: int) -> EulerModuleElement:
    """The basis element of ray ``index``; IndexError unless ``0 <= index < em.rank``."""
    if not 0 <= index < em.rank:
        raise IndexError(f"basis index {index} out of range for rank {em.rank}")
    return _element(em, {index: em.cox.one()})


def graded_piece_dim(em: EulerModule, class_vector: Sequence[int]) -> int:
    """Dimension of the twisted section space, summed over the splitting.

    The shifted classes are asked widest first (by largest entry in
    absolute value, ties in basis order), so the first of them in the
    effective cone grows the fiber tables at the widest reach and no later
    one rebuilds them; an OracleMismatch names the widest disagreeing class."""
    lam = integral_class(em.cox, class_vector)
    shifted = [tuple(a - b for a, b in zip(lam, degree)) for degree in em.basis_degrees]
    return sum(graded_dimension(em.cox, mu) for mu in sorted(shifted, key=lambda mu: max(map(abs, mu)), reverse=True))


def derivation(em: EulerModule, s: GradedPolynomial) -> EulerModuleElement:
    """Universal derivation: component per ray is the formal partial derivative.

    It is a map of degree 0: for s of class lam, component i has class
    ``lam - deg x_i``, so the element lies in twist lam.  It records lam as
    its known twist when s has two or more terms, whose classes it finds
    once each; that is also the homogeneity check (InhomogeneousInput if
    two differ).  Zero and a single term need no check and get no twist:
    every partial of a monomial raises back to it, so the contraction has
    one key there.  ValueError if s belongs to another Cox ring than em.
    """
    if s.cox is not em.cox and s.cox != em.cox:
        raise ValueError("derivation of a polynomial of another Cox ring")
    twist = None
    if len(s.terms) > 1:
        classes = {em.cox.degree_of_exponent(e) for e in s.terms}
        if len(classes) > 1:
            raise InhomogeneousInput("derivation requires a homogeneous argument")
        (twist,) = classes
    return _derivation(em, s, twist)


def _derivation(em: EulerModule, s: GradedPolynomial, twist: Vector | None) -> EulerModuleElement:
    """The derivation of s with known twist ``twist``, the class of s or None; no check."""
    return _element(em, _partials(s), twist)


def euler_contract(em: EulerModule, element: EulerModuleElement, form: WeightForm) -> GradedPolynomial:
    """Contraction with the weighted Euler vector field sum_i w(deg x_i) x_i d/dx_i.

    Sends a homogeneous element of twist d to a polynomial of class d whose
    constant term always vanishes.  No class is looked up when the element's
    twist is known (set by :func:`derivation` and kept by multiples by
    scalars) or when the sum has at most one distinct raised exponent, which
    has one class, as for the image of a monomial.  Any other element, such as one a caller builds, is
    checked in full: one class per distinct raised exponent, and
    InhomogeneousInput if two differ.  With the fan's own weight form, the
    weights are read from ``variable_weights``.  Sums may cancel and weighted Fractions may become
    integral, so the result is built through :class:`GradedPolynomial`,
    whose one pass drops and normalises them.  ValueError if the element
    belongs to another module than em.
    """
    if element.module is not em and element.module != em:
        raise ValueError("contraction of an element of another Euler module")
    cd = em.cox
    weights = cd.variable_weights if form is cd.weight_form else None
    total: dict[Vector, int | Fraction] = {}
    get = total.get
    for i, component in element._parts.items():
        weight = form(em.basis_degrees[i]) if weights is None else weights[i]
        for e, c in component.terms.items():
            # the exponent of x_i * x^e
            raised = list(e)
            raised[i] += 1
            key = tuple(raised)
            total[key] = get(key, 0) + weight * c
    # x_i * x^e has class deg(e) + deg(x_i): the element is homogeneous exactly
    # when the raised exponents, zero sums included, share one class.
    # A known twist says so by construction, and a single exponent has one class.
    if element._twist is None and len(total) > 1:
        if len({cd.degree_of_exponent(e) for e in total}) > 1:
            raise InhomogeneousInput("contraction requires a homogeneous element")
    return GradedPolynomial(cd, total)


def induced_algebra_generators(em: EulerModule, form: WeightForm) -> tuple[GradedPolynomial, ...]:
    """Images of the module basis under the Euler contraction: weighted variables.

    Since the basis generates the module, these polynomials generate the
    whole coordinate ring as an algebra; image i is ``form(deg x_i) * x_i``.
    """
    return tuple(euler_contract(em, basis_element(em, i), form) for i in range(em.rank))


def monomials_of_weight_at_most(cd: CoxData, bound: int) -> tuple[Vector, ...]:
    """All exponent vectors of weight (under the positive form) at most the bound, sorted."""
    return tuple(_exponents_up_to_weight(cd.variable_weights, bound))


class IdentityReport(NamedTuple):
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
    integer combinations of the monomials of a random effective class).
    The classes are drawn from the nonconstant monomials of weight at most
    ``max(max_weight, w_min)``, with w_min the lightest variable weight: so
    the pool is never empty, and it is the same wherever ``max_weight``
    already reaches a variable.
    """
    rng = rng or random.Random(20240)
    cd = em.cox
    bound = max(max_weight, min(cd.variable_weights))
    # The pool bar the constant, which comes first, grouped by class.  A class
    # lam in it weighs w(lam) <= bound, so the pool holds all its monomials, in
    # lexicographic order: its list is monomial_basis(cd, lam).
    basis: dict[Vector, list[Vector]] = {}
    for e in monomials_of_weight_at_most(cd, bound)[1:]:
        basis.setdefault(cd.degree_of_exponent(e), []).append(e)
    classes = sorted(basis)
    failures: list[str] = []
    checked = 0
    for _ in range(trials):
        lam = classes[rng.randrange(len(classes))]
        # the pool's own monomials need no validation, and all have class lam
        s = GradedPolynomial(cd, {e: rng.randint(-3, 3) for e in basis[lam]})
        expected = form(lam) * s
        actual = euler_contract(em, _derivation(em, s, lam), form)
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
    given positive weights, and every candidate must have positive weight.
    The question is whether, weight by weight up to the bound, the products
    of candidates are exactly the monomials.  That holds exactly when

    (a) no candidate of weight at most the bound has a negative entry, and
    (b) every variable x_i of weight at most the bound is a candidate.

    A candidate of weight at most the bound is itself such a product, so
    (a) is needed.  Given (a), x_i is a product of positive-weight
    monomials only as itself, so (b) is needed.  And every monomial of
    weight at most the bound is a product of variables each of weight at
    most the bound, so (b) suffices.  A candidate heavier than the bound
    takes no part.  The answer takes one pass over the candidates and one
    over the variables.  A weight or exponent that is not an integer raises ValueError, as do a
    length mismatch, a weight below 1 and a candidate of weight below 1.
    """
    weights = integer_vector(weights, "weights")
    if any(w < 1 for w in weights):
        raise ValueError("variable weights must be positive")
    candidates = [integer_vector(e, "candidate exponent") for e in candidate_exponents]
    bound = index(bound)
    n = len(weights)
    if any(len(e) != n for e in candidates):
        raise ValueError("candidate exponent length mismatch")
    candidate_weights = [sum(map(mul, weights, e)) for e in candidates]
    if any(w < 1 for w in candidate_weights):
        raise ValueError("candidates must have positive weight")
    present = {e for e, w in zip(candidates, candidate_weights) if w <= bound}
    if any(min(e) < 0 for e in present):
        return False
    return all(
        w > bound or (0,) * i + (1,) + (0,) * (n - i - 1) in present
        for i, w in enumerate(weights)
    )


class SectionDimensionRecord(NamedTuple):
    class_vector: Vector
    module_dim: int
    ring_dim: int
    projection_rank: int
    differential_sections: int
    right_exact: bool


class SectionDimensionReport(NamedTuple):
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
            product = e[:i] + (e[i] + 1,) + e[i + 1:]  # the exponent of x_i * x^e
            column = [0] * len(row_index)
            for j, dj in enumerate(degree):
                if dj:
                    column[row_index[(product, j)]] = dj
            columns.append(column)
    return len(hermite_basis(columns, len(row_index)))
