"""The Cox ring of a smooth complete fan as a graded polynomial ring.

One variable per ray, graded by the divisor class group through the degree
map.  Graded pieces are never materialized globally; each piece is
enumerated on demand, and its dimension is always computed by two
independent oracles (exponent-fiber counting against section-polytope
counting) which must agree.

The section polytope of a class lam is that of its lifted divisor
``class_section(lam)``; the lift is linear in lam, so the Fourier-Motzkin
tables of the rays are composed with it once per fan, into one
:class:`PolytopeFamily` over class coordinates, and the count costs one
rank-length dot product per table row, no lift per class, and no lattice
point listed.  The lift itself is computed only to report an
:class:`OracleMismatch`.

The fiber side keys its tables by one packed integer per class,
``key(mu) = sum_j mu_j * M**j``, so a step of its dynamic program is one
integer addition and a lookup hashes one int instead of a tuple.  The
radix M exceeds ``2**64 * D``, where D bounds the entries of the variable
degrees, which makes the key injective on every weight level that can be
built; a class outside the box of its weight level has no monomial and is
answered 0 before it is packed (see :attr:`CoxData.fiber_levels`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import index, mul
from typing import Mapping, Sequence

from .errors import OracleMismatch, TorsionClassGroup
from .fans import Fan, TorusInvariantDivisor, class_group, require_smooth_complete
from .lattice import IntegerMatrix, LatticeMap, Vector, solve_integer
from .polyhedral import (
    PolytopeFamily,
    RationalCone,
    WeightForm,
    _unchecked_family,
    cone_from_generators,
    strictly_positive_form,
)


class CoxData:
    """Variables-to-rays correspondence with the class-group grading.

    The per-fan context: everything derived from the grading is computed
    on first use and cached on the instance, so it lives as long as it.
    Two instances are equal when their four defining fields are.
    """

    def __init__(
        self, fan: Fan, cl_rank: int, degree_map: LatticeMap, variable_names: tuple[str, ...]
    ) -> None:
        self.fan = fan
        self.cl_rank = cl_rank
        self.degree_map = degree_map
        self.variable_names = variable_names

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CoxData:
            return NotImplemented
        return (self.fan, self.cl_rank, self.degree_map, self.variable_names) == (
            other.fan, other.cl_rank, other.degree_map, other.variable_names
        )

    @property
    def num_vars(self) -> int:
        return self.fan.n_rays

    def variable_degrees(self) -> tuple[Vector, ...]:
        return self._variable_degrees

    @functools.cached_property
    def _variable_degrees(self) -> tuple[Vector, ...]:
        return self.degree_map.matrix.columns()

    def degree_of_exponent(self, exponents: Sequence[int]) -> Vector:
        """The class of the monomial x^exponents; ValueError on a wrong length."""
        return self.degree_map.matrix.mat_vec(exponents)

    def monomial(self, exponents: Sequence[int], coefficient: int | Fraction = 1) -> "GradedPolynomial":
        return make_polynomial(self, {tuple(exponents): coefficient})

    def variable(self, index: int) -> "GradedPolynomial":
        e = [0] * self.num_vars
        e[index] = 1
        return self.monomial(e)

    def zero(self) -> "GradedPolynomial":
        return make_polynomial(self, {})

    def one(self) -> "GradedPolynomial":
        return self.monomial((0,) * self.num_vars)

    @functools.cached_property
    def effective_cone(self) -> RationalCone:
        """Cone spanned by the variable degrees; every graded piece is spanned by monomials."""
        return cone_from_generators(self.variable_degrees(), self.cl_rank)

    @functools.cached_property
    def weight_form(self) -> WeightForm:
        """Integral form positive on all nonzero effective classes, so >= 1 on variable degrees.

        No check: integral and positive on the effective cone's generators suffices.
        """
        return strictly_positive_form(self.effective_cone, self.cl_rank)

    @functools.cached_property
    def variable_weights(self) -> tuple[int, ...]:
        """The weight form on each variable degree; every entry is >= 1."""
        return tuple(self.weight_form(d) for d in self.variable_degrees())

    @functools.cached_property
    def class_section(self) -> LatticeMap:
        """Integer section of the degree map: column i is ``divisor_in_class(self, e_i)``.

        ``solve_integer`` is linear in the class for a surjective map, so
        this section lifts every class to the same divisor as
        :func:`divisor_in_class`.
        """
        units = IntegerMatrix.identity(self.cl_rank).columns()
        lifts = [divisor_in_class(self, e).coefficients for e in units]
        return LatticeMap(IntegerMatrix.from_rows(zip(*lifts)))

    @functools.cached_property
    def section_tables(self) -> PolytopeFamily:
        """The section polytopes of all classes, as one family over class coordinates.

        The section polytope of an invariant divisor has the rays as normals
        and its coefficients as offsets, and the class lam has the offsets
        ``class_section(lam)``, linear in lam.  So the Fourier-Motzkin tables
        of the rays are built and composed with the section once per fan,
        on the first query, and a class then costs one rank-length dot
        product per row: no lift.  No boundedness check: the rays of a
        complete fan positively span.
        """
        return _unchecked_family(self.fan.rays, self.fan.dim).linear_tables(self.class_section.matrix)

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


def cox_data(fan: Fan, variable_names: Sequence[str] | None = None) -> CoxData:
    """Build the graded-ring data of a smooth complete fan.

    Rejects fans whose class group has torsion: the grading lattice must
    be free for everything downstream.
    """
    require_smooth_complete(fan)
    presentation, degree_map = class_group(fan)
    if not presentation.is_free:
        raise TorsionClassGroup(
            f"class group has invariant factors {presentation.invariant_factors}"
        )
    if variable_names is None:
        variable_names = tuple(f"x{i}" for i in range(fan.n_rays))
    else:
        variable_names = tuple(variable_names)
        if len(variable_names) != fan.n_rays:
            raise ValueError("need one variable name per ray")
    return CoxData(
        fan=fan,
        cl_rank=presentation.free_rank,
        degree_map=degree_map,
        variable_names=variable_names,
    )


class GradedPolynomial:
    """Polynomial with exact rational coefficients in the Cox variables.

    ``terms`` maps exponent vectors (length ``num_vars``, entries >= 0) to
    nonzero coefficients in one canonical form: an ``int`` when integral, a
    ``Fraction`` only when its denominator exceeds 1, so integer input never
    pays for ``Fraction`` arithmetic.  :func:`make_polynomial` validates
    outside input; arithmetic builds valid exponents from valid ones, so
    construction only drops zero coefficients and normalises the rest.
    Polynomials compare by value and, holding a dict, are unhashable.

    ``_degree`` is the class of every term when package code built the
    polynomial inside one known class, and None otherwise; arithmetic never
    carries it, and it takes no part in equality.
    """

    __slots__ = ("cox", "terms", "_degree")

    def __init__(self, cox: CoxData, terms: Mapping[Vector, int | Fraction]) -> None:
        self.cox = cox
        # An int stays; a bool or an integral Fraction becomes its numerator, an int.
        self.terms = {
            e: c if type(c) is int or c.denominator > 1 else c.numerator
            for e, c in terms.items()
            if c
        }
        self._degree: Vector | None = None

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
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return GradedPolynomial(self.cox, merged)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + (-1) * other

    def __neg__(self) -> "GradedPolynomial":
        return (-1) * self

    def __mul__(self, other: "GradedPolynomial | int | Fraction") -> "GradedPolynomial":
        if isinstance(other, (int, Fraction)):
            return GradedPolynomial(self.cox, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        out: dict[Vector, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GradedPolynomial(self.cox, out)

    __rmul__ = __mul__

    def partial(self, index: int) -> "GradedPolynomial":
        """Formal partial derivative with respect to one variable."""
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
            factors = [
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(self.cox.variable_names, e)
                if power
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)


def _partials(p: GradedPolynomial) -> tuple[GradedPolynomial, ...]:
    """``p.partial(i)`` for every variable i, built in one pass over the terms of p.

    A stored coefficient times a positive exponent is nonzero, and it is
    stored as an int when integral, so each partial owns its terms as
    built, with no check.
    """
    parts: list[dict[Vector, int | Fraction]] = [{} for _ in range(p.cox.num_vars)]
    for e, c in p.terms.items():
        integral = type(c) is int
        for i, a in enumerate(e):
            if a:
                d = c * a
                parts[i][e[:i] + (a - 1,) + e[i + 1:]] = d if integral or d.denominator > 1 else d.numerator
    out = []
    for terms in parts:
        q = object.__new__(GradedPolynomial)
        q.cox, q.terms, q._degree = p.cox, terms, None
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
        if len(key) != cox.num_vars or any(x < 0 for x in key):
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
    """Monomials of the class: 0 outside the box of its weight level, else a lookup by key."""
    weight = cd.weight_form(class_vector)
    if weight < 0 or max(map(abs, class_vector)) > weight * cd.fiber_box:
        return 0
    return _fiber_level(cd, weight).get(sum(map(mul, class_vector, cd.fiber_places)), 0)


def divisor_in_class(cd: CoxData, class_vector: Sequence[int]) -> TorusInvariantDivisor:
    """A deterministic invariant divisor with the given class; no check, as the grading is surjective."""
    return TorusInvariantDivisor(solve_integer(cd.degree_map.matrix, class_vector))


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
        raise OracleMismatch(lam, by_fiber, by_polytope, cd.class_section(lam))
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
