"""The Cox ring of a smooth complete fan as a graded polynomial ring.

One variable per ray, graded by the divisor class group through the degree
map.  Graded pieces are never materialized globally; each piece is
enumerated on demand, and its dimension is always computed by two
independent oracles (exponent-fiber counting against section-polytope
counting) which must agree.

The polytope side counts in class coordinates, through one family of
Fourier-Motzkin tables per fan (:attr:`CoxData.section_tables`); a class
is lifted to a divisor only to report an :class:`OracleMismatch`.  The
fiber side keys its tables by one packed integer per class, so a step of
its dynamic program is one integer addition (:attr:`CoxData.fiber_levels`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import index, mul
from typing import Mapping, Sequence

from .errors import OracleMismatch
from .fans import Fan, TorusInvariantDivisor, class_group, require_smooth_complete
from .lattice import IntegerMatrix, Vector, smith_normal_form, solve_integer
from .polyhedral import (
    PolytopeFamily,
    RationalCone,
    WeightForm,
    _dual_generators,
    _unchecked_family,
    generators_from_inequalities,
    strictly_positive_form,
)


class CoxData:
    """Variables-to-rays correspondence with the class-group grading.

    The per-fan context and the one holder of the grading: the degree
    matrix of Z^rays -> Cl, whose column i is the class of x_i.  Everything
    derived from it is computed on first use and cached on the instance, so
    it lives as long as it.  Two instances are equal when their fans are,
    since the degree matrix is a function of the fan.
    """

    def __init__(self, fan: Fan, degree_matrix: IntegerMatrix) -> None:
        self.fan = fan
        self.degree_matrix = degree_matrix
        self.cl_rank = degree_matrix.rows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CoxData:
            return NotImplemented
        return self.fan == other.fan

    @property
    def num_vars(self) -> int:
        return self.fan.n_rays

    def variable_degrees(self) -> tuple[Vector, ...]:
        return self._variable_degrees

    @functools.cached_property
    def _variable_degrees(self) -> tuple[Vector, ...]:
        return self.degree_matrix.columns()

    def degree_of_exponent(self, exponents: Sequence[int]) -> Vector:
        """The class of the monomial x^exponents; ValueError on a wrong length."""
        return self.degree_matrix.mat_vec(exponents)

    def monomial(self, exponents: Sequence[int], coefficient: int | Fraction = 1) -> "GradedPolynomial":
        return make_polynomial(self, {tuple(exponents): coefficient})

    def variable(self, index: int) -> "GradedPolynomial":
        """The variable x_index; IndexError unless ``0 <= index < num_vars``."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range for {self.num_vars} variables")
        e = [0] * self.num_vars
        e[index] = 1
        return self.monomial(e)

    def zero(self) -> "GradedPolynomial":
        return make_polynomial(self, {})

    def one(self) -> "GradedPolynomial":
        return self.monomial((0,) * self.num_vars)

    @functools.cached_property
    def effective_cone(self) -> RationalCone:
        """Cone spanned by the variable degrees; every graded piece is spanned by monomials.

        It is ``cone_from_generators(self.variable_degrees(), self.cl_rank)``
        with the facet normals taken from :attr:`effective_normals`, so only
        the generators' side of the double description is computed here.
        """
        normals = self.effective_normals
        return RationalCone(self.cl_rank, _dual_generators(normals, self.cl_rank), normals)

    @functools.cached_property
    def effective_normals(self) -> tuple[Vector, ...]:
        """The effective cone's facet normals: the dual generators of the variable
        degrees, from one double description, without the cone's own generators."""
        return generators_from_inequalities(self.variable_degrees(), self.cl_rank)

    @functools.cached_property
    def weight_form(self) -> WeightForm:
        """Integral form positive on all nonzero effective classes, so >= 1 on variable degrees.

        The form reads only the effective cone's facet normals
        (:attr:`effective_normals`), so the cone's own generators (a second
        double description) are left out.  No check: integral and positive
        on the effective cone's generators suffices.
        """
        return strictly_positive_form(RationalCone(self.cl_rank, (), self.effective_normals), self.cl_rank)

    @functools.cached_property
    def variable_weights(self) -> tuple[int, ...]:
        """The weight form on each variable degree; every entry is >= 1."""
        return tuple(self.weight_form(d) for d in self.variable_degrees())

    @functools.cached_property
    def class_section(self) -> IntegerMatrix:
        """Integer section of the degree map: column i is ``divisor_in_class(self, e_i)``.

        It is ``V[:, :r] U`` from one Smith form ``U Q V = [I | 0]`` of the
        onto degree matrix Q: what ``solve_integer`` returns on each unit
        class, and linear in the class, so it lifts every class as
        :func:`divisor_in_class` does.
        """
        u, _, v = smith_normal_form(self.degree_matrix)
        return IntegerMatrix._unchecked(tuple(row[: self.cl_rank] for row in v.entries)) @ u

    @functools.cached_property
    def section_tables(self) -> PolytopeFamily:
        """The section polytopes of all classes, as one family over class coordinates.

        The section polytope of an invariant divisor has the rays as normals
        and its coefficients as offsets, and the class lam has the offsets
        ``class_section.mat_vec(lam)``, linear in lam.  So the Fourier-Motzkin tables
        of the rays are built and composed with the section once per fan,
        on the first query, and a class then costs one rank-length dot
        product per row: no lift.  No boundedness check: the rays of a
        complete fan positively span.
        """
        return _unchecked_family(self.fan.rays, self.fan.dim).linear_tables(self.class_section)

    @functools.cached_property
    def fiber_levels(self) -> tuple[list[dict[int, int]], ...]:
        """Per variable i, level L maps the key of a class to its number of monomials of weight L in x_0..x_i.

        The key of a class mu is ``sum_j mu_j * M**j`` with the place values
        of :attr:`fiber_places`.  Only level 0 (the constant monomial, key 0)
        exists at first; :func:`_fiber_level` appends heavier levels on
        demand and never rebuilds one.

        Why the key is exact.  Every variable weight is >= 1, so a monomial
        of weight L has total degree <= L and its class mu has
        ``|mu_j| <= L * D``, with D the largest absolute entry of a variable
        degree (:attr:`fiber_box`).  Two classes of that box differ by at
        most ``2 * L * D`` per coordinate.  If their keys agree, the
        difference delta has ``sum_j delta_j * M**j = 0``; reading this mod
        M gives ``delta_0 = 0`` because ``|delta_0| < M``, and dividing by M
        repeats the argument, so delta = 0.  This needs ``L * D < M / 2``,
        which ``M >= 2**64 * D + 1`` gives for every L <= 2**63: a table
        that finishes building stores L + 1 levels per variable, so it never
        gets near.  Hence each level holds one key per class, and a query
        of weight L inside the box reads its own count.  A query outside the
        box has no monomial and is answered 0 before it is packed.

        Why M is not a power of two.  CPython hashes an int by reducing it
        mod 2**61 - 1, and 2**64 is 8 there, so the radix 2**64 would hash mu
        to ``sum_j mu_j * 8**j`` and small classes would collide in the
        dicts.  The odd constant added to ``2**64 * D`` spreads the hashes.
        """
        return tuple([{0: 1}] for _ in range(self.num_vars))

    @functools.cached_property
    def fiber_box(self) -> int:
        """D, the largest absolute entry of a variable degree: level L lies in ``[-L*D, L*D]**rank``."""
        return max(abs(x) for d in self.variable_degrees() for x in d)

    @functools.cached_property
    def fiber_places(self) -> tuple[int, ...]:
        """The place values ``M**j`` of the fiber keys, ``M = 2**64 * D + 0x9E3779B97F4A7C15``."""
        radix = (self.fiber_box << 64) + 0x9E3779B97F4A7C15
        return tuple(radix**j for j in range(self.cl_rank))

    @functools.cached_property
    def fiber_shifts(self) -> tuple[int, ...]:
        """The key of each variable degree: multiplying by x_i adds it to a key."""
        return tuple(sum(map(mul, d, self.fiber_places)) for d in self.variable_degrees())


def cox_data(fan: Fan) -> CoxData:
    """Build the graded-ring data of a smooth complete fan.

    The class group is free, of rank rays minus dimension, with no check:
    the rays of a smooth maximal cone form a lattice basis, so the image
    of the divisor map is saturated and the degree matrix has no torsion
    rows.
    """
    require_smooth_complete(fan)
    return CoxData(fan, class_group(fan).projection)


class GradedPolynomial:
    """Polynomial with exact rational coefficients in the Cox variables.

    ``terms`` maps exponent vectors (length ``num_vars``, entries >= 0) to
    nonzero coefficients in one canonical form: an ``int`` when integral, a
    ``Fraction`` only when its denominator exceeds 1, so integer input never
    pays for ``Fraction`` arithmetic.  :func:`make_polynomial` validates
    outside input; arithmetic builds valid exponents from valid ones, so
    construction only drops zero coefficients and normalises the rest.
    Polynomials compare by value and, holding a dict, are unhashable.
    """

    __slots__ = ("cox", "terms")

    def __init__(self, cox: CoxData, terms: Mapping[Vector, int | Fraction]) -> None:
        self.cox = cox
        # An int stays; a bool or an integral Fraction becomes its numerator, an int.
        self.terms = {
            e: c if type(c) is int or c.denominator > 1 else c.numerator
            for e, c in terms.items()
            if c
        }

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GradedPolynomial:
            return NotImplemented
        return (self.cox, self.terms) == (other.cox, other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Vector | None:
        """Common class of all monomials, or None when inhomogeneous (or zero)."""
        degrees = {self.cox.degree_of_exponent(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def is_homogeneous(self) -> bool:
        # Zero and a single term are homogeneous without finding any class.
        return len(self.terms) < 2 or self.degree is not None

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.cox.num_vars, 0)

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if other.__class__ is not GradedPolynomial:
            return NotImplemented
        if other.cox is not self.cox and other.cox != self.cox:
            raise ValueError("cannot add polynomials of two different Cox rings")
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return GradedPolynomial(self.cox, merged)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if other.__class__ is not GradedPolynomial:
            return NotImplemented
        return self + (-1) * other

    def __neg__(self) -> "GradedPolynomial":
        return (-1) * self

    def __mul__(self, other: "GradedPolynomial | int | Fraction") -> "GradedPolynomial":
        if isinstance(other, (int, Fraction)):
            return GradedPolynomial(self.cox, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        if other.cox is not self.cox and other.cox != self.cox:
            raise ValueError("cannot multiply polynomials of two different Cox rings")
        out: dict[Vector, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GradedPolynomial(self.cox, out)

    __rmul__ = __mul__

    def partial(self, index: int) -> "GradedPolynomial":
        """Formal partial derivative with respect to one variable; IndexError
        unless ``0 <= index < num_vars``."""
        if not 0 <= index < self.cox.num_vars:
            raise IndexError(f"variable index {index} out of range for {self.cox.num_vars} variables")
        out: dict[Vector, int | Fraction] = {}
        for e, c in self.terms.items():
            if e[index]:
                out[e[:index] + (e[index] - 1,) + e[index + 1:]] = c * e[index]
        return GradedPolynomial(self.cox, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = [f"x{i}" if power == 1 else f"x{i}^{power}" for i, power in enumerate(e) if power]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        # a negative term after the first reads "- 3*y", not "+ -3*y"
        return "".join(parts[:1] + [f" - {part[1:]}" if part[0] == "-" else f" + {part}" for part in parts[1:]])


def _partials(p: GradedPolynomial) -> tuple[GradedPolynomial, ...]:
    """``p.partial(i)`` for every variable i, built in one pass over the terms of p.

    A stored coefficient times a positive exponent is nonzero, and it is
    stored as an int when integral, so each partial owns its terms as
    built, with no check.
    """
    cox = p.cox
    parts: list[dict[Vector, int | Fraction]] = [{} for _ in range(cox.num_vars)]
    for e, c in p.terms.items():
        integral = type(c) is int
        for i, a in enumerate(e):
            if a:
                d = c * a
                parts[i][e[:i] + (a - 1,) + e[i + 1:]] = d if integral or d.denominator > 1 else d.numerator
    new, cls = object.__new__, GradedPolynomial
    out = []
    for terms in parts:
        q = new(cls)
        q.cox = cox
        q.terms = terms
        out.append(q)
    return tuple(out)


def make_polynomial(cox: CoxData, terms: Mapping[Sequence[int], int | Fraction]) -> GradedPolynomial:
    """The validating entry for outside input: ValueError on a wrong-length or negative
    exponent or on an entry that is not an integer (ints and bools pass, by ``operator.index``).

    A coefficient is kept exactly: an ``int`` as it is, anything else (a bool,
    a float, a ``Fraction``) through ``Fraction``, and the polynomial stores
    it as an ``int`` when it is integral."""
    checked: dict[Vector, int | Fraction] = {}
    for e, c in terms.items():
        try:
            key = tuple(map(index, e))
        except TypeError:
            raise ValueError(f"exponent vector {e!r} has an entry that is not an integer") from None
        if len(key) != cox.num_vars or key and min(key) < 0:
            raise ValueError(f"bad exponent vector {key}")
        checked[key] = c if type(c) is int else Fraction(c)
    return GradedPolynomial(cox, checked)


def effective_weight_form(cd: CoxData) -> WeightForm:
    """``cd.weight_form``; kept as a function because the benchmark harness calls it by name."""
    return cd.weight_form


def _fiber_level(cd: CoxData, weight: int) -> dict[int, int]:
    """Number of monomials per class key, for the classes of weight exactly ``weight`` >= 0.

    Dynamic program over the variables and weight levels: the monomials in
    x_0..x_i of weight L either avoid x_i or are x_i times one of weight
    L - w_i, so ``levels_i[L] = levels_(i-1)[L] + shift_{d_i}(levels_i[L - w_i])``.
    The key is linear in the class, so the shift by d_i adds ``key(d_i)``
    to each key (:attr:`CoxData.fiber_shifts`), and it is injective on each
    level (:attr:`CoxData.fiber_levels`).  A weight beyond the top level
    appends the missing levels to each variable in turn; lighter weights
    are a lookup.  Independent of any polytope geometry, so it can serve as
    one side of the dual-oracle check.
    """
    levels = cd.fiber_levels
    top = len(levels[-1]) - 1
    if weight > top:
        previous = None
        for shift, w, own in zip(cd.fiber_shifts, cd.variable_weights, levels):
            for level in range(top + 1, weight + 1):
                counts = dict(previous[level]) if previous is not None else {}
                if level >= w:
                    for mu, count in own[level - w].items():
                        nu = mu + shift
                        counts[nu] = counts.get(nu, 0) + count
                own.append(counts)
            previous = own
    return levels[-1][weight]


def _fiber_dimension(cd: CoxData, class_vector: Vector) -> int:
    """Monomials of the class: 0 outside the box of its weight level, else a lookup by key.

    The class has the rank's length (:func:`graded_dimension` checks it), so
    its weight is read off the form's coefficients, with no second check.
    A class heavier than the built levels is answered 0 when a facet normal
    of the effective cone is negative on it, as it has no monomial, so the
    tables grow only for classes that can have one.
    """
    weight = sum(map(mul, cd.weight_form.coefficients, class_vector))
    if weight < 0 or max(map(abs, class_vector)) > weight * cd.fiber_box:
        return 0
    if weight >= len(cd.fiber_levels[-1]) and any(
        sum(map(mul, normal, class_vector)) < 0 for normal in cd.effective_normals
    ):
        return 0
    return _fiber_level(cd, weight).get(sum(map(mul, class_vector, cd.fiber_places)), 0)


def divisor_in_class(cd: CoxData, class_vector: Sequence[int]) -> TorusInvariantDivisor:
    """A deterministic invariant divisor with the given class; no check, as the grading is surjective."""
    return TorusInvariantDivisor(solve_integer(cd.degree_matrix, class_vector))


def _polytope_dimension(cd: CoxData, class_vector: Vector) -> int:
    """Number of lattice points of the section polytope of a lift of the class,
    counted in class coordinates (see :attr:`CoxData.section_tables`)."""
    return cd.section_tables.count_lattice_points(class_vector)


def integral_class(cd: CoxData, class_vector: Sequence[int]) -> Vector:
    """The class as a tuple of ints; ValueError on a wrong length or an entry that is not an integer."""
    try:
        lam = tuple(map(index, class_vector))
    except TypeError:
        raise ValueError(f"class vector {class_vector!r} has an entry that is not an integer") from None
    if len(lam) != cd.cl_rank:
        raise ValueError(f"class vector length {len(lam)} != rank {cd.cl_rank}")
    return lam


def graded_dimension(cd: CoxData, class_vector: Sequence[int]) -> int:
    """Dimension of the graded piece, checked against two independent oracles."""
    lam = integral_class(cd, class_vector)
    by_fiber = _fiber_dimension(cd, lam)
    by_polytope = _polytope_dimension(cd, lam)
    if by_fiber != by_polytope:
        raise OracleMismatch(lam, by_fiber, by_polytope, cd.class_section.mat_vec(lam))
    return by_fiber


def _exponents_up_to_weight(
    weights: Sequence[int], budget: int, exact: bool = False
) -> list[Vector]:
    """Exponent vectors e with sum_i weights[i] * e[i] <= budget, lexicographically.

    With ``exact`` only the vectors of weight exactly ``budget`` are kept.
    The weights must be positive.  This bounded recursion is the one
    monomial enumerator of the package.
    """
    n = len(weights)
    if budget < 0:
        return []
    if n == 0:
        return [()] if budget == 0 or not exact else []
    found: list[Vector] = []

    def extend(prefix: Vector, left: int) -> None:
        w = weights[len(prefix)]
        if len(prefix) == n - 1:
            if not exact:
                found.extend(prefix + (e,) for e in range(left // w + 1))
            elif left % w == 0:
                found.append(prefix + (left // w,))
            return
        for e in range(left // w + 1):
            extend(prefix + (e,), left - e * w)

    extend((), budget)
    return found


def monomial_basis(cd: CoxData, class_vector: Sequence[int]) -> tuple[Vector, ...]:
    """Exponent vectors of the monomials of one class, lexicographically sorted."""
    lam = integral_class(cd, class_vector)
    # Every monomial of class lam has weight exactly w(lam).
    candidates = _exponents_up_to_weight(cd.variable_weights, cd.weight_form(lam), exact=True)
    return tuple(e for e in candidates if cd.degree_of_exponent(e) == lam)


def irrelevant_ideal(cd: CoxData) -> tuple[Vector, ...]:
    """The sorted exponents of the generators: the products of the variables
    outside each maximal cone.

    These generators are minimal by construction: validation rejects nested
    maximal cones, so their complements are distinct and pairwise
    incomparable.
    """
    raw = []
    for cone in cd.fan.max_cones:
        outside = set(range(cd.num_vars)) - set(cone)
        raw.append(tuple(1 if i in outside else 0 for i in range(cd.num_vars)))
    return tuple(sorted(raw))
