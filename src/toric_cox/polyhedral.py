"""Exact rational cones and polytopes.

Cones are stored in canonical double description: a minimal generator set
together with the matching facet-normal set, both primitive and sorted, so
duality is an involution on the nose.  All arithmetic is exact, and each
cone costs two incremental double descriptions and no subset enumeration:
inserting the input vectors one at a time as half spaces gives the dual
generators, and inserting those gives the input side's minimal generators.

Polytopes {m : <n_i, m> >= -a_i} with fixed normals form a family served
for any offsets a.  Lattice points come from Fourier-Motzkin tables built
once per family: each derived inequality is a normal over the leading
coordinates paired with an integer multiplier over the original offsets,
so one dot product per row turns the tables into the exact projections of
one polytope, whose integer intervals are walked coordinate by coordinate.
When the offsets are linear in some parameters, a = S p, each multiplier y
is composed once into the form S^T y (:class:`LinearTables`), so a
parameter vector costs one dot product of its own length per row; the
count adds the length of the last coordinate's interval and lists no
point.  Listing and counting share the one walk (:func:`_walk`).
Vertices are the generators of positive height of the homogenized cone
{(m, t) : <n_i, m> + a_i t >= 0, t >= 0}, from one double description
(:func:`_homogenized_generators`).  The same elimination, stopped at
level 0, decides whether a linear form with prescribed signs exists
(:func:`separable`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Literal, Sequence

from .errors import NotPointed, UnboundedPolytope
from .lattice import (
    IntegerMatrix,
    Vector,
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
    vecs = [tuple(int(x) for x in v) for v in normals]
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

    def contains(self, point: Sequence[int], mode: Literal["closure", "relative_interior"] = "closure") -> bool:
        return cone_contains(self, point, mode)

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
    level_zero, _ = _eliminate(rows, ambient_dim)
    return not any(i < strict for y in level_zero for i, _ in y)


@dataclass(frozen=True)
class RationalPolytope:
    """Intersection of half spaces <normal, m> >= -offset."""

    ambient_dim: int
    inequalities: tuple[tuple[Vector, int], ...]

    @staticmethod
    def from_inequalities(items: Sequence[tuple[Sequence[int], int]], ambient_dim: int) -> "RationalPolytope":
        ineqs = tuple((tuple(int(x) for x in normal), int(offset)) for normal, offset in items)
        if any(len(n) != ambient_dim for n, _ in ineqs):
            raise ValueError("inequality dimension mismatch")
        return RationalPolytope(ambient_dim, ineqs)

    def satisfies(self, point: Sequence[int | Fraction]) -> bool:
        return all(
            sum(a * b for a, b in zip(normal, point)) >= -offset
            for normal, offset in self.inequalities
        )


# A multiplier over the original inequalities, as sorted pairs (index, value > 0).
Multiplier = tuple[tuple[int, int], ...]
# One derived inequality of level k + 1: the normal's coefficients on
# x_0..x_{k-1}, its nonzero coefficient c on x_k and its multiplier y, standing
# for <head, x[:k]> + c * x_k + <y, a> >= 0 for any offsets a.
EliminationRow = tuple[Vector, int, Multiplier]


def _eliminate(
    normals: Sequence[Vector], ambient_dim: int
) -> tuple[tuple[Multiplier, ...], tuple[tuple[EliminationRow, ...], ...]]:
    """Fourier-Motzkin tables of {x : <n_i, x> + a_i >= 0}, independent of the offsets a.

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
    k, the rows of level k + 1 with a nonzero coefficient on x_k; its rows
    without x_k are already in level k.
    """
    rows: dict[Multiplier, Vector] = {((i, 1),): tuple(n) for i, n in enumerate(normals)}
    bounds = []
    for k in reversed(range(ambient_dim)):
        bounds.append(tuple((normal[:k], normal[k], y) for y, normal in rows.items() if normal[k]))
        positive = [(y, normal) for y, normal in rows.items() if normal[k] > 0]
        negative = [(y, normal) for y, normal in rows.items() if normal[k] < 0]
        derived = {y: normal[:k] for y, normal in rows.items() if not normal[k]}
        support_bound = ambient_dim - k + 1
        for p_mult, p_normal in positive:
            for q_mult, q_normal in negative:
                p, q = dict(p_mult), dict(q_mult)
                support = sorted(p.keys() | q.keys())
                if len(support) > support_bound:
                    continue
                s, t = -q_normal[k], p_normal[k]
                y = [s * p.get(i, 0) + t * q.get(i, 0) for i in support]
                normal = [s * a + t * b for a, b in zip(p_normal[:k], q_normal[:k])]
                g = gcd(*y, *normal)
                derived[tuple((i, v // g) for i, v in zip(support, y))] = tuple(x // g for x in normal)
        rows = derived
    return tuple(rows), tuple(reversed(bounds))


@dataclass(frozen=True)
class PolytopeFamily:
    """The bounded polytopes {m : <n_i, m> >= -a_i} for fixed normals n_i and any offsets a.

    Built by :func:`polytope_family`, which checks boundedness, or directly
    where it holds by construction (the rays of a complete fan).  The
    Fourier-Motzkin elimination tables that serve every offset vector are
    computed on first use and cached on the instance, so the lattice points
    of each offset vector cost integer arithmetic only.
    :meth:`linear_tables` composes the tables with a linear map from
    parameters to offsets, for counting the points of the polytope of each
    parameter vector without forming its offsets.
    """

    ambient_dim: int
    normals: tuple[Vector, ...]

    @functools.cached_property
    def tables(self) -> tuple[tuple[Multiplier, ...], tuple[tuple[EliminationRow, ...], ...]]:
        """The Fourier-Motzkin tables of the normals (see :func:`_eliminate`)."""
        return _eliminate(self.normals, self.ambient_dim)

    def lattice_points(self, offsets: Sequence[int]) -> tuple[Vector, ...]:
        """All integer points for these offsets, sorted lexicographically.

        Each table row's multiplier dotted with the offsets gives its
        constant, and :func:`_walk` lists the points.
        """
        if len(offsets) != len(self.normals):
            raise ValueError(f"{len(offsets)} offsets for {len(self.normals)} normals")
        level_zero, levels = self.tables

        def constant(y: Multiplier) -> int:
            return sum(v * offsets[i] for i, v in y)

        if any(constant(y) < 0 for y in level_zero):
            return ()
        lower = [[(head, c, constant(y)) for head, c, y in level if c > 0] for level in levels]
        upper = [[(head, -c, constant(y)) for head, c, y in level if c < 0] for level in levels]
        points: list[Vector] = []
        _walk(lower, upper, points)
        return tuple(points)

    def linear_tables(self, section: IntegerMatrix) -> "LinearTables":
        """The tables for the offsets a = section . p, as linear forms on the parameters p.

        ``section`` has one row per normal.  A row's constant <y, a> is
        <section^T y, p>, so each multiplier y is composed with the section
        once, here, and a parameter vector then costs one dot product of its
        length per row, whatever the number of normals.
        """
        if section.rows != len(self.normals):
            raise ValueError(f"section has {section.rows} rows for {len(self.normals)} normals")
        level_zero, levels = self.tables
        rows, width = section.entries, section.cols

        def form(y: Multiplier) -> Vector:
            return tuple(sum(v * rows[i][j] for i, v in y) for j in range(width))

        return LinearTables(
            width,
            tuple(form(y) for y in level_zero),
            tuple(tuple((head, c, form(y)) for head, c, y in level if c > 0) for level in levels),
            tuple(tuple((head, -c, form(y)) for head, c, y in level if c < 0) for level in levels),
        )


# A bound on x_k for a prefix x_0..x_{k-1}: the head, c > 0 and the constant
# b, standing for c * x_k + <head, prefix> + b >= 0 (a lower bound) or
# -c * x_k + <head, prefix> + b >= 0 (an upper bound).
Bound = tuple[Vector, int, int]


def _walk(lower: Sequence[Sequence[Bound]], upper: Sequence[Sequence[Bound]], points: list[Vector] | None) -> int:
    """Number of integer points of a polytope whose tables have passed level 0;
    with a list, its points are also appended to it, lexicographically.

    Given a prefix x_0..x_{k-1} of a point of the polytope's projection,
    ``lower[k]`` and ``upper[k]`` (the rows of level k + 1) bound x_k, and
    the projection being exact, every x_k in that integer interval extends
    the prefix within the next projection.  Boundedness puts rows on both
    sides at every level.  Counting and listing differ only at the last
    coordinate: its interval adds its length, and is listed only on request.
    """
    last = len(lower) - 1
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


# A table row over parameters: the head and c as in an EliminationRow, and
# the linear form f on the parameters giving its constant.
LinearRow = tuple[Vector, int, Vector]


@dataclass(frozen=True)
class LinearTables:
    """The Fourier-Motzkin tables of a :class:`PolytopeFamily` for offsets linear
    in some parameters, built by :meth:`PolytopeFamily.linear_tables`.

    ``level_zero`` holds one form per offset-only row; ``lower[k]`` and
    ``upper[k]`` hold the rows of level k + 1 bounding x_k, each with its
    coefficient stored positive.
    """

    parameters: int
    level_zero: tuple[Vector, ...]
    lower: tuple[tuple[LinearRow, ...], ...]
    upper: tuple[tuple[LinearRow, ...], ...]

    def count_lattice_points(self, params: Sequence[int]) -> int:
        """Number of integer points of the polytope of these parameters; lists none."""
        if len(params) != self.parameters:
            raise ValueError(f"{len(params)} parameters for {self.parameters}")
        if any(sum(map(mul, f, params)) < 0 for f in self.level_zero):
            return 0
        lower = [[(head, c, sum(map(mul, f, params))) for head, c, f in level] for level in self.lower]
        upper = [[(head, c, sum(map(mul, f, params))) for head, c, f in level] for level in self.upper]
        return _walk(lower, upper, None)


def polytope_family(normals: Sequence[Sequence[int]], ambient_dim: int) -> PolytopeFamily:
    """The family of fixed normals; UnboundedPolytope unless their recession cone is {0}."""
    norm = tuple(tuple(int(x) for x in h) for h in normals)
    if generators_from_inequalities(norm, ambient_dim):
        raise UnboundedPolytope("polytope has a recession direction")
    return PolytopeFamily(ambient_dim, norm)


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
