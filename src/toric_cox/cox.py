"""The Cox ring of a smooth complete fan as a graded polynomial ring.

One variable per ray, graded by the divisor class group through the degree
map.  Graded pieces are never materialized globally; each piece is
enumerated on demand, and its dimension is always computed by two
independent oracles (exponent-fiber counting against section-polytope
counting) which must agree.

The polytope side counts in class coordinates, through one family of
Fourier-Motzkin tables per fan (:attr:`CoxData.section_tables`); a class
is lifted to a divisor only to report an :class:`OracleMismatch`.  The
fiber side counts only the classes of a box cut out by the effective
cone's facets, sized by the largest class entry queried, and keys each by
its packed facet values, so a step of its dynamic program is one integer
addition and one mask test (:func:`_fiber_tables`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isfinite
from operator import mul
from typing import Mapping, Sequence, TypeVar

from .errors import OracleMismatch
from .fans import Fan, TorusInvariantDivisor, class_group, require_smooth_complete
from .lattice import IntegerMatrix, Vector, integer_vector, smith_normal_form
from .polyhedral import (
    PolytopeFamily,
    RationalCone,
    WeightForm,
    _dual_generators,
    _unchecked_family,
    generators_from_inequalities,
    strictly_positive_form,
)

_Key = TypeVar("_Key")
_FiberTables = tuple[int, int, tuple[int, ...], int, tuple[int, ...], tuple[list[dict[int, int]], ...]]


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
        return strictly_positive_form(self.effective_normals, self.cl_rank)

    @functools.cached_property
    def variable_weights(self) -> tuple[int, ...]:
        """The weight form on each variable degree; every entry is >= 1."""
        return tuple(self.weight_form(d) for d in self.variable_degrees())

    @functools.cached_property
    def class_section(self) -> IntegerMatrix:
        """Integer section of the degree map: it lifts each class (:func:`divisor_in_class`).

        It is ``V[:, :r] U`` from one Smith form ``U Q V = [I | 0]`` of the
        onto degree matrix Q, so it lifts lam to the solution of ``Q x = lam``
        that ``solve_integer`` gives, zero along the Smith kernel directions.
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
    def _fiber(self) -> _FiberTables:
        """The fiber count's tables (:func:`_fiber_tables`), replaced when a query leaves their cube."""
        return _fiber_tables(self, 0)


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
    construction only drops zero coefficients and normalises the rest.  Code
    that builds its terms in canonical form already, in the pass that
    computes them, skips that second pass through :func:`_polynomial`.
    Polynomials compare by value and, holding a dict, are unhashable.
    """

    __slots__ = ("cox", "terms")

    def __init__(self, cox: CoxData, terms: Mapping[Vector, int | Fraction]) -> None:
        self.cox = cox
        self.terms = _canonical(terms)

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
        return _polynomial(self.cox, _sum(self.terms, other.terms))

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if other.__class__ is not GradedPolynomial:
            return NotImplemented
        return self + (-1) * other

    def __neg__(self) -> "GradedPolynomial":
        return (-1) * self

    def __mul__(self, other: "GradedPolynomial | int | Fraction") -> "GradedPolynomial":
        if isinstance(other, (int, Fraction)):
            return _polynomial(self.cox, _scaled(self.terms, other))
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
        return _polynomial(self.cox, {e: c for (i, e), c in _partials(self).items() if i == index})

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


def _polynomial(cox: CoxData, terms: dict[Vector, int | Fraction]) -> GradedPolynomial:
    """The polynomial that owns ``terms`` as given: no check, no copy, no normalising pass.

    Only code whose terms are already canonical may call it: exponent
    vectors of ``num_vars`` entries >= 0, and nonzero coefficients, each an
    ``int`` when integral and a ``Fraction`` only when its denominator
    exceeds 1.  Anything else goes through :class:`GradedPolynomial` or, from
    outside, :func:`make_polynomial`.
    """
    p = object.__new__(GradedPolynomial)
    p.cox = cox
    p.terms = terms
    return p


def _canonical(terms: Mapping[_Key, int | Fraction]) -> dict[_Key, int | Fraction]:
    """The nonzero entries of ``terms`` with each coefficient in canonical form:
    an int stays, and a bool or an integral Fraction becomes its numerator, an int."""
    return {k: c if type(c) is int or c.denominator > 1 else c.numerator for k, c in terms.items() if c}


def _scaled(terms: Mapping[_Key, int | Fraction], factor: int | Fraction) -> dict[_Key, int | Fraction]:
    """``factor`` times the canonical ``terms``, canonical as built.  Nonzero
    times nonzero is nonzero: an int product stays, and a Fraction product
    that is integral becomes its numerator; a zero factor leaves no term."""
    if not factor:
        return {}
    return {k: d if type(d := c * factor) is int or d.denominator > 1 else d.numerator for k, c in terms.items()}


def _sum(a: Mapping[_Key, int | Fraction], b: Mapping[_Key, int | Fraction]) -> dict[_Key, int | Fraction]:
    """The canonical sum of two term maps: a term that cancels is dropped."""
    merged = dict(a)
    for k, c in b.items():
        merged[k] = merged.get(k, 0) + c
    return _canonical(merged)


def _partials(p: GradedPolynomial) -> dict[tuple[int, Vector], int | Fraction]:
    """The terms of every nonzero ``p.partial(i)`` in one flat map, from ``(i, e)``
    to the coefficient of x^e in the partial by x_i, built in one pass over the terms of p.

    Each exponent is copied into a list once; for each positive entry i the
    list is lowered at i, frozen with ``tuple()`` into the key's exponent,
    and restored.  A stored coefficient times a positive exponent is
    nonzero, and it is stored as an int when integral, so every term is
    canonical as built, with no check.  The map is the term map of the
    derivation's :class:`~toric_cox.euler.EulerModuleElement` as it is.
    """
    partials: dict[tuple[int, Vector], int | Fraction] = {}
    for e, c in p.terms.items():
        integral = type(c) is int
        lowered = list(e)
        for i, a in enumerate(e):
            if a:
                d = c * a
                lowered[i] = a - 1
                partials[i, tuple(lowered)] = d if integral or d.denominator > 1 else d.numerator
                lowered[i] = a
    return partials


def make_polynomial(cox: CoxData, terms: Mapping[Sequence[int], int | Fraction]) -> GradedPolynomial:
    """The validating entry for outside input: ValueError on a wrong-length or negative
    exponent or on an entry that is not an integer (ints and bools pass, by ``operator.index``).

    A coefficient must be an ``int``, a bool, a finite float or a
    ``Fraction``, and is kept exactly: TypeError on any other type (a
    ``str``, which ``Fraction`` would parse, or None), ValueError on an
    infinite or nan float.  Each is put in canonical form in the pass that
    validates it, an ``int`` when integral, and a zero is dropped (of two
    keys that read as one exponent, the later coefficient holds, a zero
    included), so the result is built through :func:`_polynomial` with no
    second pass."""
    checked: dict[Vector, int | Fraction] = {}
    for e, c in terms.items():
        key = integer_vector(e, "exponent vector")
        if len(key) != cox.num_vars or key and min(key) < 0:
            raise ValueError(f"bad exponent vector {key}")
        if type(c) is not int:
            if not isinstance(c, (int, float, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int, a float or a Fraction")
            if isinstance(c, float) and not isfinite(c):
                raise ValueError(f"coefficient {c!r} is not finite")
            c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        if c:
            checked[key] = c
        else:
            checked.pop(key, None)
    return _polynomial(cox, checked)


def effective_weight_form(cd: CoxData) -> WeightForm:
    """``cd.weight_form``; kept as a function because the benchmark harness calls it by name."""
    return cd.weight_form


def _fiber_tables(cd: CoxData, radius: int) -> _FiberTables:
    """``(radius, base, places, guard, shifts, levels)`` for the queries in the cube of the radius.

    Per variable i, level L maps the key of a class mu to the number of
    monomials of weight L in x_0..x_i of class mu; only level 0 exists at
    first.  Only the classes of one box are counted.

    Why the box is exact.  Let n_j be the effective cone's facet normals
    and y_j = <n_j, mu>.  For every partial product mu of a monomial of
    class lam, lam - mu is a sum of variable degrees, on which each n_j is
    >= 0, so ``0 <= y_j(mu) <= y_j(lam) <= radius * |n_j|_1 = bound_j`` when
    lam lies in the cube.  That box is a down-set holding every class that
    a query of the cube reads, so counting only its classes loses nothing.

    Keys.  Field j of a key holds ``y_j + 2**b - 1 - bound_j`` in b + 1
    bits, so the key of mu is ``base + sum_k mu_k * places[k]``.  A class
    of the cube has ``|y_j| <= bound_j < 2**b / 2``, so its fields lie in
    [0, 2**b), and as the normals span, no other class has its key.  The
    shift by d_i adds ``0 <= <n_j, d_i> < 2**b`` to field j, which reaches
    2**b, inside the field, exactly when y_j leaves the box: one test of
    ``key & guard``, the top bit of every field, drops what leaves.
    """
    normals = cd.effective_normals
    bounds = [radius * sum(map(abs, n)) for n in normals]
    steps = [[sum(map(mul, n, d)) for n in normals] for d in cd.variable_degrees()]
    b = max(2 * max(bounds), max(map(max, steps))).bit_length()
    at = range(0, (b + 1) * len(normals), b + 1)
    base = sum((1 << b) - 1 - bound << j for j, bound in zip(at, bounds))
    places = tuple(sum(x << j for j, x in zip(at, column)) for column in zip(*normals))
    shifts = tuple(sum(x << j for j, x in zip(at, step)) for step in steps)
    return radius, base, places, sum(1 << b + j for j in at), shifts, tuple([{base: 1}] for _ in steps)


def _fiber_dimension(cd: CoxData, class_vector: Vector) -> int:
    """Monomials of the class: a lookup by key in the fiber tables, grown first if need be.

    The class has the rank's length (:func:`graded_dimension` checks it), so
    its weight is read off the form's coefficients, with no second check.
    A class that would grow the tables is answered 0 when a facet normal of
    the effective cone is negative on it, as it has no monomial, so the
    tables grow only for classes that can have one.

    Growth.  A class outside the cube of the tables rebuilds them at its
    own reach, its largest entry; a class heavier than the built levels
    appends the missing ones.  Dynamic program over the variables and
    weight levels: the monomials in x_0..x_i of weight L either avoid x_i or
    are x_i times one of weight L - w_i, so ``levels_i[L] = levels_(i-1)[L] +
    shift_{d_i}(levels_i[L - w_i])``, and the shift by d_i adds one integer
    to each key.  Independent of any polytope geometry, so it can serve as
    one side of the dual-oracle check.

    Why tables.  A count with none, over one smooth chart (the degrees of
    the variables off a maximal cone are a basis of the class group), was
    prototyped for surfaces: it agreed with the tables on all 24,432
    classes of seeds 1-3 of the ``oracle-rank`` benchmark, but on 6
    alternating 25 s pairs of that workload (2 vCPUs, Python 3.11) it
    raised ``op_p90_s`` from 13.05 to 16.35 us, +25 %, at the bound.
    """
    weight = sum(map(mul, cd.weight_form.coefficients, class_vector))
    if weight < 0:
        return 0
    reach = max(map(abs, class_vector))
    radius, base, places, guard, shifts, levels = cd._fiber
    if reach > radius or weight >= len(levels[-1]):
        if any(sum(map(mul, normal, class_vector)) < 0 for normal in cd.effective_normals):
            return 0
        if reach > radius:
            radius, base, places, guard, shifts, levels = cd._fiber = _fiber_tables(cd, reach)
        previous, built = None, len(levels[-1])
        for shift, w, own in zip(shifts, cd.variable_weights, levels):
            for level in range(built, weight + 1):
                counts = dict(previous[level]) if previous is not None else {}
                if level >= w:
                    for mu, count in own[level - w].items():
                        nu = mu + shift
                        if not nu & guard:
                            counts[nu] = counts.get(nu, 0) + count
                own.append(counts)
            previous = own
    return levels[-1][weight].get(sum(map(mul, class_vector, places), base), 0)


def divisor_in_class(cd: CoxData, class_vector: Sequence[int]) -> TorusInvariantDivisor:
    """A deterministic invariant divisor with the given class, read off
    :attr:`CoxData.class_section`; the grading is onto, so every class lifts."""
    return TorusInvariantDivisor(cd.class_section.mat_vec(integral_class(cd, class_vector)))


def _polytope_dimension(cd: CoxData, class_vector: Vector) -> int:
    """Number of lattice points of the section polytope of a lift of the class,
    counted in class coordinates (see :attr:`CoxData.section_tables`); the class is already read."""
    return cd.section_tables._count(class_vector)


def integral_class(cd: CoxData, class_vector: Sequence[int]) -> Vector:
    """The class as a tuple of ints; ValueError on a wrong length or an entry that is not an integer."""
    lam = integer_vector(class_vector, "class vector")
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
    The weights must be positive.  This is the one monomial enumerator of
    the package, and it meets in the middle (Horowitz and Sahni, J. ACM 21,
    1974).  The prefixes over the first half of the variables are listed,
    each with the budget it leaves.  The tails over the other half are built
    from the last variable up, once for each budget that some prefix leaves;
    ``exact`` keeps, at the last variable, only the entry that spends its
    budget.  Each vector is then one prefix joined to one of its tails.
    """
    n = len(weights)
    if budget < 0:
        return []
    if n == 0:
        return [()] if budget == 0 or not exact else []
    half = n // 2
    prefixes: list[tuple[Vector, int]] = [((), budget)]
    for w in weights[:half]:
        prefixes = [(p + (e,), left - e * w) for p, left in prefixes for e in range(left // w + 1)]
    # needed[k]: the budgets left to variable half + k, only those reached
    needed = [{left for _, left in prefixes}]
    for w in weights[half:-1]:
        reached: set[int] = set()
        for left in needed[-1]:
            reached.update(range(left % w, left + 1, w))
        needed.append(reached)
    w = weights[-1]
    last = needed.pop()
    if exact:
        tails = {left: [(left // w,)] if left % w == 0 else [] for left in last}
    else:
        # the tails of the last variable are slices of one list
        singles = [(e,) for e in range(max(last) // w + 1)]
        tails = {left: singles[: left // w + 1] for left in last}
    for w in reversed(weights[half:-1]):
        # each entry is made a 1-tuple once, then joined to every tail below it
        below = tails
        tails = {
            left: [head + t for e in range(left // w + 1) for head in ((e,),) for t in below[left - e * w]]
            for left in needed.pop()
        }
    found: list[Vector] = []
    for p, left in prefixes:
        found += map(p.__add__, tails[left])
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
