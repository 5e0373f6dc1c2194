"""Exact rational cones and polytopes.

Cones are stored in canonical double description: a minimal generator set
together with the matching facet-normal set, both primitive and sorted, so
duality is an involution on the nose.  All arithmetic is exact, and each
cone costs two incremental double descriptions and no subset enumeration:
inserting the input vectors one at a time as half spaces gives the dual
generators, and inserting those gives the input side's minimal generators.

Polytopes {m : <n_i, m> >= -a_i} with fixed normals and offsets linear in
some parameters, a = S p, form one :class:`PolytopeFamily`: Fourier-Motzkin
tables built once, whose rows are split by the sign of the eliminated
coordinate as they are derived, each row's constant being a linear form in
p.  For plain offsets the forms are the rows' multipliers, and
:meth:`PolytopeFamily.linear_tables` composes them with S once, so a
parameter vector costs one dot product of its own length per row; the
integer intervals of the exact projections are then walked coordinate by
coordinate.  Counting adds the length of the last coordinate's interval
and lists no point; it shares the one walk with listing.
Vertices are the generators of positive height of the homogenized cone
{(m, t) : <n_i, m> + a_i t >= 0, t >= 0}, from one double description
(:func:`_homogenized_generators`).  The same elimination, stopped at
level 0, decides whether a linear form with prescribed signs exists
(:func:`separable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Literal, Sequence

from .errors import NotPointed, UnboundedPolytope
from .lattice import (
    IntegerMatrix,
    Vector,
    integer_vector,
    kernel_basis,
    primitive_vector,
    rational_rank,
)


def _shift(v: Vector, a: Vector, pivot: Vector, s: int) -> Vector:
    """v moved into a's kernel along pivot, where <a, pivot> = s > 0: primitive(s * v - <a, v> * pivot).

    Scaling by s > 0 keeps v's direction modulo pivot, so a ray stays a ray."""
    t = sum(map(mul, a, v))
    return primitive_vector([s * x - t * y for x, y in zip(v, pivot)]) if t else v


def _dual_generators(rows: Sequence[Vector], dim: int) -> tuple[Vector, ...]:
    """Canonical minimal generators of {y : <g, y> >= 0 for all g in rows}, for primitive nonzero rows.

    Motzkin's incremental double description (Fukuda-Prodon, "Double
    description method revisited", 1996): start from the whole space, held
    as a lineality basis, and intersect with one half space per row, in the
    given order.  A row that is nonzero on the lineality is a pivot: one
    lineality vector, oriented to be positive on it, becomes a ray, and every
    other generator is shifted along it into the row's kernel.  Otherwise the
    rays positive and zero on the row stay, the negative ones go, and each
    adjacent positive/negative pair adds the ray where its edge meets the
    hyperplane.  Each ray carries the set of rows vanishing on it, and two
    rays are adjacent iff no third ray vanishes on every row they both
    vanish on (the combinatorial test), which needs at least
    dim - (lineality dimension) - 2 common rows.

    The result is canonical: the lineality contributes plus/minus its
    :func:`kernel_basis` vectors (primitive, as a basis of a saturated
    lattice), and each extreme ray is projected orthogonally off that
    lineality and made primitive.

    Worst case: the ray count after a step is bounded only by the upper
    bound theorem, O(m^(d/2)) for m rows in dimension d, and the adjacency
    tests cost a cubic in it; the insertion order changes the intermediate
    sizes, not the result.  Measured (Python 3.11, one core): the nef cone
    of P^3 blown up at 8 torus-fixed points (30 wall forms in dimension 12)
    peaks at 19 rays and takes 3 ms; at 12 points (42 forms in dimension
    16) it peaks at 139 rays and takes 0.02 s, while inserting its 145
    generators back to get the 17 facet normals peaks at 450 rays and takes
    0.9 s, which is why the nef divisor of ``verify`` reads the generators
    alone (:func:`generators_from_inequalities`); the rank-8 effective cone
    from its 21 facet normals peaks at 21 rays and takes 2 ms.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Vector, int]] = []  # each ray with the bit set of its vanishing rows
    for i, a in enumerate(rows):
        bit = 1 << i
        index = next((j for j, v in enumerate(lineality) if sum(map(mul, a, v))), None)
        if index is not None:
            pivot = lineality.pop(index)
            s = sum(map(mul, a, pivot))
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s
            lineality = [_shift(v, a, pivot, s) for v in lineality]
            rays = [(_shift(r, a, pivot, s), zeros | bit) for r, zeros in rays]
            rays.append((pivot, bit - 1))
            continue
        values = [sum(map(mul, a, r)) for r, _ in rays]
        kept = [(r, zeros if t else zeros | bit) for (r, zeros), t in zip(rays, values) if t >= 0]
        needed = dim - len(lineality) - 2
        masks = [zeros for _, zeros in rays]
        for j, ((p, p_zeros), s) in enumerate(zip(rays, values)):
            if s <= 0:
                continue
            for k, ((n, n_zeros), t) in enumerate(zip(rays, values)):
                if t >= 0:
                    continue
                common = p_zeros & n_zeros
                if common.bit_count() < needed or any(
                    m & common == common for q, m in enumerate(masks) if q != j and q != k
                ):
                    continue
                kept.append((primitive_vector([s * x - t * y for x, y in zip(n, p)]), common | bit))
        rays = kept
    if not lineality:
        return tuple(sorted({r for r, _ in rays}))
    basis = kernel_basis(IntegerMatrix.from_rows(rows) if rows else IntegerMatrix.zero(0, dim)).columns()
    # Gram-Schmidt in integers: projecting off an orthogonal basis of the
    # lineality one vector o at a time is _shift along o itself.
    orthogonal: list[Vector] = []
    for b in basis:
        for o in orthogonal:
            b = _shift(b, o, o, sum(map(mul, o, o)))
        orthogonal.append(b)
    out = set()
    for r, _ in rays:
        for o in orthogonal:
            r = _shift(r, o, o, sum(map(mul, o, o)))
        out.add(r)
    for b in basis:
        out |= {b, tuple(-x for x in b)}
    return tuple(sorted(out))


def generators_from_inequalities(normals: Sequence[Sequence[int]], ambient_dim: int) -> tuple[Vector, ...]:
    """Canonical minimal generators of {y : <n, y> >= 0 for every n in normals}:
    the generators of :func:`cone_from_inequalities`, without the second
    insertion that finds its facet normals."""
    vecs = [integer_vector(v, "normal") for v in normals]
    if any(len(v) != ambient_dim for v in vecs):
        raise ValueError("vector dimension mismatch")
    return _dual_generators(sorted({primitive_vector(v) for v in vecs if any(v)}), ambient_dim)


def _double_description(vectors: Sequence[Sequence[int]], dim: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Canonical generators of cone(vectors) and of its dual: the dual generators
    are those of the inequalities <v, y> >= 0, and cone(vectors) is in turn the
    dual of those (:func:`_dual_generators` on each side)."""
    dual = generators_from_inequalities(vectors, dim)
    return _dual_generators(dual, dim), dual


@dataclass(frozen=True)
class RationalCone:
    """Polyhedral cone in canonical form: minimal primitive generators and facet normals.

    The cone is exactly {x : <normal, x> >= 0 for every facet normal}; a
    lower-dimensional cone carries its cutting equations as plus/minus
    normal pairs, a cone with lineality carries plus/minus generator pairs.
    """

    ambient_dim: int
    generators: tuple[Vector, ...]
    facet_normals: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return rational_rank(self.generators) if self.generators else 0

    def is_pointed(self) -> bool:
        gens = set(self.generators)
        return not any(tuple(-x for x in g) in gens for g in gens)


def cone_from_generators(generators: Sequence[Sequence[int]], ambient_dim: int) -> RationalCone:
    canonical, normals = _double_description(generators, ambient_dim)
    return RationalCone(ambient_dim, canonical, normals)


def cone_from_inequalities(normals: Sequence[Sequence[int]], ambient_dim: int) -> RationalCone:
    canonical_normals, gens = _double_description(normals, ambient_dim)
    return RationalCone(ambient_dim, gens, canonical_normals)


def dual_cone(c: RationalCone) -> RationalCone:
    """The cone {y : <y, x> >= 0 for all x in c}; an involution in canonical form."""
    return RationalCone(c.ambient_dim, c.facet_normals, c.generators)


def cone_contains(
    c: RationalCone,
    point: Sequence[int],
    mode: Literal["closure", "relative_interior"] = "closure",
) -> bool:
    if len(point) != c.ambient_dim:
        raise ValueError(f"point dimension {len(point)} != ambient {c.ambient_dim}")
    if mode not in ("closure", "relative_interior"):
        raise ValueError(f"unknown mode {mode!r}")
    normals = set(c.facet_normals)
    for h in c.facet_normals:
        value = sum(a * b for a, b in zip(h, point))
        if mode == "closure":
            if value < 0:
                return False
        else:
            is_equation = tuple(-x for x in h) in normals
            if is_equation:
                if value != 0:
                    return False
            elif value <= 0:
                return False
    return True


def separable(
    positive: Sequence[Vector], negative: Sequence[Vector], vanishing: Sequence[Vector], ambient_dim: int
) -> bool:
    """Whether some rational form is > 0 on ``positive``, < 0 on ``negative`` and 0 on ``vanishing``.

    Scaled, such a form is a point of {l : <x, l> >= 1 for x in positive and
    in -negative, <+-z, l> >= 0 for z in vanishing}.  That system is empty
    over Q iff level 0 of its Fourier-Motzkin tables holds a row with a
    negative constant (see :func:`_eliminate`); a level-0 constant is minus
    the multiplier's weight on the strict rows, so the form exists iff no
    level-0 multiplier involves a strict row.
    """
    rows = [tuple(x) for x in positive] + [tuple(-c for c in x) for x in negative]
    strict = len(rows)
    for z in vanishing:
        rows += [tuple(z), tuple(-c for c in z)]
    level_zero, _, _ = _eliminate(rows, ambient_dim)
    return not any(any(y[:strict]) for y in level_zero)


@dataclass(frozen=True)
class RationalPolytope:
    """Intersection of half spaces <normal, m> >= -offset."""

    ambient_dim: int
    inequalities: tuple[tuple[Vector, int], ...]

    @staticmethod
    def from_inequalities(items: Sequence[tuple[Sequence[int], int]], ambient_dim: int) -> "RationalPolytope":
        rows = [integer_vector((*normal, offset), "inequality") for normal, offset in items]
        ineqs = tuple((row[:-1], row[-1]) for row in rows)
        if any(len(n) != ambient_dim for n, _ in ineqs):
            raise ValueError("inequality dimension mismatch")
        return RationalPolytope(ambient_dim, ineqs)


# A table row bounding x_k: the coefficients of its normal on x_0..x_{k-1}
# (the head), its coefficient c on x_k, stored positive, and a linear form f
# on the parameters p, standing for c * x_k + <head, x[:k]> + <f, p> >= 0 as
# a lower bound and -c * x_k + <head, x[:k]> + <f, p> >= 0 as an upper bound.
TableRow = tuple[Vector, int, Vector]


def _eliminate(
    normals: Sequence[Vector], ambient_dim: int
) -> tuple[tuple[Vector, ...], tuple[tuple[TableRow, ...], ...], tuple[tuple[TableRow, ...], ...]]:
    """Fourier-Motzkin tables of {x : <n_i, x> + a_i >= 0}, independent of the offsets a.

    Each derived row carries its multiplier y >= 0 over the original rows,
    one entry per row, and stands for <normal, x[:k]> + <y, a> >= 0.
    Coordinates are eliminated last to first.  Eliminating x_k combines each
    row with a positive coefficient on x_k with each row with a negative one
    and keeps the rows without x_k; the rows left after eliminating
    x_k..x_{d-1} describe the projection onto x_0..x_{k-1} for every a.  A
    derived row whose multiplier involves more than (eliminated coordinates
    + 1) original rows is implied by the others and dropped (Chernikov's
    rule; Schrijver, *Theory of Linear and Integer Programming*, 12.2), so
    the projection stays exact while the tables stay small.  Bound, as
    measured on seeded generic bounded normals (entries in [-9, 9]) and
    pinned by the tests: the tables of d = 4 with n = 14 hold at most 129
    rows per level, those of d = 5 with n = 16 at most 310, each built in
    well under a second.  Without the rule the row count roughly squares
    with each eliminated coordinate: for that d = 4 family, level 1 holds
    15,899 rows and level 0 would combine 31.6 million pairs.

    Returns the multipliers of the offset-only rows (level 0) and, for each
    k, the rows of level k + 1 with a positive coefficient on x_k (``lower``)
    and with a negative one (``upper``), as :data:`TableRow` with the
    multiplier as the form; the rows without x_k are already in level k.
    """
    n = len(normals)
    rows: dict[Vector, Vector] = {tuple(int(i == j) for j in range(n)): tuple(v) for i, v in enumerate(normals)}
    lower, upper = [], []
    for k in reversed(range(ambient_dim)):
        positive = [(y, normal) for y, normal in rows.items() if normal[k] > 0]
        negative = [(y, normal) for y, normal in rows.items() if normal[k] < 0]
        lower.append(tuple((normal[:k], normal[k], y) for y, normal in positive))
        upper.append(tuple((normal[:k], -normal[k], y) for y, normal in negative))
        derived = {y: normal[:k] for y, normal in rows.items() if not normal[k]}
        support_bound = ambient_dim - k + 1
        for p_mult, p_normal in positive:
            for q_mult, q_normal in negative:
                if sum(1 for a, b in zip(p_mult, q_mult) if a or b) > support_bound:
                    continue
                s, t = -q_normal[k], p_normal[k]
                y = [s * a + t * b for a, b in zip(p_mult, q_mult)]
                normal = [s * a + t * b for a, b in zip(p_normal[:k], q_normal[:k])]
                g = gcd(*y, *normal)
                derived[tuple(v // g for v in y)] = tuple(x // g for x in normal)
        rows = derived
    return tuple(rows), tuple(reversed(lower)), tuple(reversed(upper))


@dataclass(frozen=True)
class PolytopeFamily:
    """The bounded polytopes {m : <n_i, m> >= -a_i} for fixed normals n_i, with
    the offsets a linear in some parameters p, as Fourier-Motzkin tables.

    Each table row's constant is a linear form in p, so the tables, built
    once with the family, serve every parameter vector with integer
    arithmetic only: one dot product of the parameters' length per row.
    :func:`polytope_family` checks boundedness and takes the offsets
    themselves as the parameters, each form being a row's multiplier;
    :meth:`linear_tables` composes the forms with a linear map a = S p.
    ``level_zero`` holds one form per offset-only row; ``lower[k]`` and
    ``upper[k]`` hold the rows of level k + 1 bounding x_k (see
    :data:`TableRow` and :func:`_eliminate`).
    """

    ambient_dim: int
    parameters: int
    level_zero: tuple[Vector, ...]
    lower: tuple[tuple[TableRow, ...], ...]
    upper: tuple[tuple[TableRow, ...], ...]

    def lattice_points(self, params: Sequence[int]) -> tuple[Vector, ...]:
        """All integer points of the polytope of these parameters, sorted lexicographically."""
        if len(params) != self.parameters:
            raise ValueError(f"{len(params)} parameters for {self.parameters}")
        points: list[Vector] = []
        if all(sum(map(mul, f, params)) >= 0 for f in self.level_zero):
            self._walk(params, points)
        return tuple(points)

    def count_lattice_points(self, params: Sequence[int]) -> int:
        """Number of integer points of the polytope of these parameters; lists none.

        Level 0 is checked here, not in :meth:`_walk`, so that an empty
        polytope, the common case of a class outside the effective cone,
        costs no further call.
        """
        if len(params) != self.parameters:
            raise ValueError(f"{len(params)} parameters for {self.parameters}")
        if any(sum(map(mul, f, params)) < 0 for f in self.level_zero):
            return 0
        return self._walk(params, None)

    def linear_tables(self, section: IntegerMatrix) -> "PolytopeFamily":
        """The family over the parameters q of this family's parameters p = section . q.

        ``section`` has one row per parameter.  A row's constant <f, p> is
        <section^T f, q>, so each form is composed with the section once,
        here, and a vector q then costs one dot product of its length per
        row, whatever the number of normals.
        """
        if section.rows != self.parameters:
            raise ValueError(f"section has {section.rows} rows for {self.parameters} parameters")
        columns = section.columns()

        def compose(f: Vector) -> Vector:
            return tuple(sum(map(mul, f, column)) for column in columns)

        def rows(levels: tuple[tuple[TableRow, ...], ...]) -> tuple[tuple[TableRow, ...], ...]:
            return tuple(tuple((head, c, compose(f)) for head, c, f in level) for level in levels)

        return PolytopeFamily(
            self.ambient_dim, section.cols, tuple(map(compose, self.level_zero)), rows(self.lower), rows(self.upper)
        )

    def _walk(self, params: Sequence[int], points: list[Vector] | None) -> int:
        """Number of integer points of the polytope of these parameters, whose
        level-0 constants are nonnegative; with a list, its points are also
        appended to it, lexicographically.

        Each row's form dotted with the parameters gives its constant b.
        Given a prefix x_0..x_{k-1} of a point of the polytope's projection,
        ``lower[k]`` and ``upper[k]`` bound x_k, and the projection being
        exact, every x_k in that integer interval extends the prefix within
        the next projection.  Boundedness puts rows on both sides at every
        level.  Counting and listing differ only at the last coordinate: its
        interval adds its length, and is listed only on request.
        """
        lower = [[(head, c, sum(map(mul, f, params))) for head, c, f in level] for level in self.lower]
        upper = [[(head, c, sum(map(mul, f, params))) for head, c, f in level] for level in self.upper]
        last = self.ambient_dim - 1
        if last < 0:  # dimension 0: the polytope is the origin
            if points is not None:
                points.append(())
            return 1

        def extend(prefix: Vector) -> int:
            k = len(prefix)
            # with slack = <head, prefix> + b: c * x + slack >= 0 bounds x below,
            # and -c * x + slack >= 0 (c stored positive) above
            lo = max(-((sum(map(mul, head, prefix)) + b) // c) for head, c, b in lower[k])
            hi = min((sum(map(mul, head, prefix)) + b) // c for head, c, b in upper[k])
            if k < last:
                return sum(extend(prefix + (x,)) for x in range(lo, hi + 1))
            if points is not None:
                points.extend(prefix + (x,) for x in range(lo, hi + 1))
            # the prefix lies in the exact projection, so the rational interval
            # is non-empty and its integer points number hi - lo + 1 >= 0
            return hi - lo + 1

        return extend(())


def polytope_family(normals: Sequence[Sequence[int]], ambient_dim: int) -> PolytopeFamily:
    """The family of fixed normals, with the offsets as its parameters;
    UnboundedPolytope unless their recession cone is {0}."""
    norm = tuple(integer_vector(h, "normal") for h in normals)
    if generators_from_inequalities(norm, ambient_dim):
        raise UnboundedPolytope("polytope has a recession direction")
    return _unchecked_family(norm, ambient_dim)


def _unchecked_family(normals: Sequence[Vector], ambient_dim: int) -> PolytopeFamily:
    """:func:`polytope_family` without the boundedness check, for normals that
    positively span by construction (the rays of a complete fan)."""
    return PolytopeFamily(ambient_dim, len(normals), *_eliminate(normals, ambient_dim))


def _homogenized_generators(
    normals: Sequence[Vector], offsets: Sequence[int], ambient_dim: int
) -> tuple[tuple[Vector, int], ...]:
    """Canonical generators of the cone over {m : <n_i, m> >= -a_i}, as pairs (num, height).

    The cone is {(m, t) : <n_i, m> + a_i * t >= 0, t >= 0} in dimension
    d + 1 (:func:`generators_from_inequalities`).  Its slice at height 0 is
    the recession cone times 0, a face, so a generator at height 0 exists
    iff the recession cone is nonzero; the lineality lies there too, as
    plus/minus pairs.  Without lineality the generators at height t > 0 are
    the vertices num / t, each once, primitive so that t is the exact
    denominator; an empty polyhedron has none.
    """
    rows = [(*normal, a) for normal, a in zip(normals, offsets, strict=True)]
    rows.append((0,) * ambient_dim + (1,))
    return tuple((g[:-1], g[-1]) for g in generators_from_inequalities(rows, ambient_dim + 1))


def polytope_vertices(p: RationalPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices as exact fractions, sorted: the generators of positive height
    of the homogenized cone (:func:`_homogenized_generators`), and none when the
    polyhedron contains a line."""
    generators = _homogenized_generators(
        [normal for normal, _ in p.inequalities], [offset for _, offset in p.inequalities], p.ambient_dim
    )
    recession = {num for num, t in generators if not t}
    if any(tuple(-x for x in num) in recession for num in recession):
        return ()
    return tuple(sorted(tuple(Fraction(x, t) for x in num) for num, t in generators if t))


def polytope_lattice_points(p: RationalPolytope) -> tuple[Vector, ...]:
    """All integer points of a bounded polytope, sorted lexicographically, by the walk
    of :meth:`PolytopeFamily.lattice_points`.

    Raises UnboundedPolytope when the recession cone is nonzero.
    """
    family = polytope_family([normal for normal, _ in p.inequalities], p.ambient_dim)
    return family.lattice_points([offset for _, offset in p.inequalities])


@dataclass(frozen=True)
class WeightForm:
    """Integral linear form, nonnegative on a fixed effective cone and >= 1 on its
    nonzero lattice points."""

    coefficients: Vector

    def __call__(self, v: Sequence[int]) -> int:
        if len(v) != len(self.coefficients):
            raise ValueError("length mismatch")
        return sum(map(mul, self.coefficients, v))


def strictly_positive_form(eff: RationalCone, lattice_rank: int) -> WeightForm:
    """Deterministic integral form positive on every nonzero lattice point of ``eff``.

    Rule: sum the primitive generators of the dual cone, the facet normals.
    Each is >= 0 on ``eff``, and on a nonzero x in ``eff`` some normal is
    > 0: the facet normals of a pointed cone span the whole space (its dual
    is full-dimensional), so they cannot all vanish on x.  The sum is thus
    positive on ``eff`` minus the origin, and being integral it is >= 1 on
    every nonzero lattice point.  In positive dimension there is at least
    one normal, so the sum has one coordinate per dimension.
    """
    if eff.ambient_dim != lattice_rank:
        raise ValueError("cone does not live in the stated lattice")
    if not eff.is_pointed():
        raise NotPointed("effective cone contains a line")
    return WeightForm(tuple(map(sum, zip(*eff.facet_normals))))
