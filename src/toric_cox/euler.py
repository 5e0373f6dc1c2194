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
from operator import add, index, mul
from typing import NamedTuple, Sequence

from .cox import (
    CoxData,
    GradedPolynomial,
    _canonical,
    _exponents_up_to_weight,
    _partials,
    _polynomial,
    _scaled,
    _sum,
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
    """Element of the free module, compared by value, and unhashable like a
    polynomial.

    The element is stored as one flat term map, the private ``_terms``, from
    ``(i, e)`` to the nonzero coefficient of x^e b_i, with b_i the basis
    element of ray i; coefficients are canonical, as in a polynomial (an
    ``int`` when integral, a ``Fraction`` only when its denominator exceeds
    1).  The derivation stores the map that :func:`~toric_cox.cox._partials`
    builds, the contraction reads it in one loop, and ``+``, ``-``, ``*``
    and :attr:`degree` work on it, so no operation builds a polynomial per
    component: only :attr:`components` does, on each read, as a dense tuple
    with one polynomial per basis index, zeros included.  A sum or a product
    that cancels drops its terms, and an element is zero exactly when the
    map is empty.  With no zero components left to check them, ``+`` and
    ``-`` check the other element's module themselves, and ``*`` the
    factor's Cox ring, raising ValueError on a mismatch, even for the zero
    element; a factor that is not a polynomial, an ``int`` or a ``Fraction``
    is a TypeError.  An element does not record its twist: the contraction
    checks each element it is given, however it was built.

    The constructor is the validating entry for outside input: it takes the
    dense components, and raises ValueError unless there is one per basis
    element, each a polynomial of the module's Cox ring; it stores their
    terms.  Package code builds its elements from the module's own ring
    through :func:`_element`, with no check.
    """

    __slots__ = ("module", "_terms")

    def __init__(self, module: EulerModule, components: Sequence[GradedPolynomial]) -> None:
        components = tuple(components)
        if len(components) != module.rank:
            raise ValueError(f"{len(components)} components for a module of rank {module.rank}")
        for c in components:
            if c.__class__ is not GradedPolynomial or (c.cox is not module.cox and c.cox != module.cox):
                raise ValueError("a component is not a polynomial of the module's Cox ring")
        self.module = module
        self._terms = {(i, e): c for i, p in enumerate(components) for e, c in p.terms.items()}

    @property
    def components(self) -> tuple[GradedPolynomial, ...]:
        """One new polynomial per basis index, built from the term map on each read."""
        parts: list[dict[Vector, int | Fraction]] = [{} for _ in range(self.module.rank)]
        for (i, e), c in self._terms.items():
            parts[i][e] = c
        return tuple(_polynomial(self.module.cox, terms) for terms in parts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EulerModuleElement:
            return NotImplemented
        return (self.module, self._terms) == (other.module, other._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> Vector | None:
        """Twist in which the element is homogeneous, or None: the common class
        of the terms' x_i x^e, found from each term's class."""
        degrees, of = self.module.basis_degrees, self.module.cox.degree_of_exponent
        twists = {tuple(map(add, of(e), degrees[i])) for i, e in self._terms}
        return twists.pop() if len(twists) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.degree is not None

    def __add__(self, other: "EulerModuleElement") -> "EulerModuleElement":
        if other.__class__ is not EulerModuleElement:
            return NotImplemented
        if other.module is not self.module and other.module != self.module:
            raise ValueError("cannot add elements of two different Euler modules")
        return _element(self.module, _sum(self._terms, other._terms))

    def __sub__(self, other: "EulerModuleElement") -> "EulerModuleElement":
        if other.__class__ is not EulerModuleElement:
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, factor: "GradedPolynomial | int | Fraction") -> "EulerModuleElement":
        if isinstance(factor, GradedPolynomial):
            if factor.cox is not self.module.cox and factor.cox != self.module.cox:
                raise ValueError("product with a polynomial of another Cox ring")
            terms: dict[tuple[int, Vector], int | Fraction] = {}
            for (i, e), c in self._terms.items():
                for f, d in factor.terms.items():
                    key = i, tuple(map(add, e, f))
                    terms[key] = terms.get(key, 0) + c * d
            return _element(self.module, _canonical(terms))
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        return _element(self.module, _scaled(self._terms, factor))

    __rmul__ = __mul__


def _element(em: EulerModule, terms: dict[tuple[int, Vector], int | Fraction]) -> EulerModuleElement:
    """The element of em with this term map, canonical and of em's Cox ring; no check."""
    element = object.__new__(EulerModuleElement)
    element.module = em
    element._terms = terms
    return element


def basis_element(em: EulerModule, index: int) -> EulerModuleElement:
    """The basis element of ray ``index``; IndexError unless ``0 <= index < em.rank``."""
    if not 0 <= index < em.rank:
        raise IndexError(f"basis index {index} out of range for rank {em.rank}")
    return _element(em, {(index, (0,) * em.cox.num_vars): 1})


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
    ``lam - deg x_i``, so the element lies in twist lam.  An s of two or
    more terms is checked homogeneous from the class of each term
    (InhomogeneousInput if two differ); zero and a single term need no
    class.  ValueError if s belongs to another Cox ring than em.
    """
    if s.cox is not em.cox and s.cox != em.cox:
        raise ValueError("derivation of a polynomial of another Cox ring")
    if not s.is_homogeneous():
        raise InhomogeneousInput("derivation requires a homogeneous argument")
    return _element(em, _partials(s))


def euler_contract(em: EulerModule, element: EulerModuleElement, form: WeightForm) -> GradedPolynomial:
    """Contraction with the weighted Euler vector field sum_i w(deg x_i) x_i d/dx_i.

    Sends a homogeneous element of twist d to a polynomial of class d whose
    constant term always vanishes.  x_i * x^e has class deg(e) + deg(x_i),
    so the element is homogeneous exactly when the exponents of the sum
    that :func:`_contraction_sum` builds, zero sums included, share one
    class: one class is looked up per distinct exponent, and
    InhomogeneousInput raised if two differ.  A sum of one exponent, as for
    the image of a monomial, has one class and looks up none.  Sums may cancel and
    weighted Fractions may become integral, so the result is built through
    :class:`GradedPolynomial`, whose one pass drops and normalises them.
    ValueError if the element belongs to another module than em.
    """
    if element.module is not em and element.module != em:
        raise ValueError("contraction of an element of another Euler module")
    cd = em.cox
    total = _contraction_sum(em, element._terms, form)
    if len(total) > 1 and len({cd.degree_of_exponent(e) for e in total}) > 1:
        raise InhomogeneousInput("contraction requires a homogeneous element")
    return GradedPolynomial(cd, total)


def _contraction_sum(
    em: EulerModule, terms: dict[tuple[int, Vector], int | Fraction], form: WeightForm
) -> dict[Vector, int | Fraction]:
    """The contraction of the element with this term map, as the raw sum from
    the exponent of each x_i * x^e to its coefficient, zero sums included;
    no check.

    The term map is read in one loop.  With the fan's own weight form, the
    weights are read from ``variable_weights``; any other form is called
    once per nonzero component.
    """
    cd = em.cox
    if form is cd.weight_form:
        weights: Sequence[int] | dict[int, int] = cd.variable_weights
    else:
        # one call per nonzero component, in the order the terms first name them
        weights = {i: form(em.basis_degrees[i]) for i in dict.fromkeys(i for i, _ in terms)}
    total: dict[Vector, int | Fraction] = {}
    get = total.get
    for (i, e), c in terms.items():
        # the exponent of x_i * x^e
        raised = list(e)
        raised[i] += 1
        key = tuple(raised)
        total[key] = get(key, 0) + weights[i] * c
    return total


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
    already reaches a variable.  ``trials`` is read as an integer by
    ``operator.index``; ValueError if it is negative, so no check passes
    having drawn nothing.
    """
    trials = index(trials)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, not {trials}")
    rng = rng or random.Random(20240)
    cd = em.cox
    basis = _pool_by_class(cd, max(max_weight, min(cd.variable_weights)))
    classes = sorted(basis)
    failures: list[str] = []
    checked = 0
    for _ in range(trials):
        lam = classes[rng.randrange(len(classes))]
        # the pool's own monomials need no validation, and all have class lam,
        # so the sample and its derivation need no class check
        s = GradedPolynomial(cd, {e: rng.randint(-3, 3) for e in basis[lam]})
        expected = form(lam) * s
        actual = GradedPolynomial(cd, _contraction_sum(em, _partials(s), form))
        checked += 1
        if actual != expected:
            failures.append(f"class {lam}: got {actual}, expected {expected}")
    return IdentityReport(checked=checked, counterexamples=tuple(failures))


def _pool_by_class(cd: CoxData, bound: int) -> dict[Vector, list[Vector]]:
    """The nonconstant monomials of weight at most the bound, grouped by class,
    each group in lexicographic order.

    A class lam of the pool weighs w(lam) <= bound, so the pool holds all of
    its monomials: its group is monomial_basis(cd, lam).  The monomials are
    grouped by one packed integer each, and one class per group is read
    with ``degree_of_exponent``.  Entry k of a monomial's class sits in its
    own signed field of ``width`` bits, at ``k * width``: the key of e is
    ``sum_j e_j * places[j]``.  A monomial of weight at most the bound has
    at most ``bound`` factors, since every weight is >= 1, so each entry of
    its class lies in [-reach, reach] with ``reach = bound * max|d|``.  The
    width keeps ``reach < 2**(width - 1)``, so every entry is a balanced
    digit of base ``2**width`` and two classes share a key only when they
    are equal.
    """
    degrees = cd.variable_degrees()
    reach = bound * max(abs(x) for d in degrees for x in d)
    width = reach.bit_length() + 1
    places = [sum(x << k * width for k, x in enumerate(d)) for d in degrees]
    groups: dict[int, list[Vector]] = {}
    for e in monomials_of_weight_at_most(cd, bound)[1:]:
        groups.setdefault(sum(map(mul, e, places)), []).append(e)
    return {cd.degree_of_exponent(group[0]): group for group in groups.values()}


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
