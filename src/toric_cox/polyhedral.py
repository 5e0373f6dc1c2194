"""Exact rational cones and polytopes.

Cones are stored in canonical double description: a minimal generator set
together with the matching facet-normal set, both primitive and sorted, so
the dual cone is the same pair with its fields swapped.  All arithmetic is
exact, and :func:`cone_from_generators` costs two incremental double
descriptions and no subset enumeration: inserting the generators one at a
time as half spaces gives the facet normals, and inserting those gives the
minimal generators.  A cone given by inequalities needs only the first
insertion for its generators (:func:`generators_from_inequalities`).

Polytopes {m : <n_i, m> >= -a_i} with fixed normals and offsets linear in
some parameters, a = S p, form one :class:`PolytopeFamily`: Fourier-Motzkin
tables built once, whose rows are split by the sign of the eliminated
coordinate as they are derived, each row's constant being a linear form in
p.  For plain offsets the forms are the rows' multipliers, and
:meth:`PolytopeFamily.linear_tables` composes them with S once.  A
parameter vector then costs one dot product of its own length per
offset-only row, which decides emptiness, and past them one packed
product that yields every deeper row's constant at once
(:meth:`PolytopeFamily._row_pack`).  One walk (:func:`_walk`) serves
listing and counting: x_0's interval comes straight off the rows bounding
it, and for each x_k of its interval the walk takes x_{k+1}'s bounds, a
running minimum per side, and carries them into the next level, x_k
folded into the deeper constants (:func:`_fold`).  At the last coordinate
it adds the interval's length, and lists its points only when asked to.
Vertices are the generators of positive height of the homogenized cone
{(m, t) : <n_i, m> + a_i t >= 0, t >= 0}, from one double description
(:func:`_homogenized_generators`).  The same elimination, stopped at
level 0, decides whether a linear form with prescribed signs exists
(:func:`separable`).
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Literal, NamedTuple, Sequence

from .errors import UnboundedPolytope
from .lattice import (
    IntegerMatrix,
    Vector,
    integer_vector,
    kernel_basis,
    primitive_vector,
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
    """Canonical minimal generators of {y : <n, y> >= 0 for every n in normals},
    from one insertion of the normals (:func:`_dual_generators`)."""
    vecs = [integer_vector(v, "normal") for v in normals]
    if any(len(v) != ambient_dim for v in vecs):
        raise ValueError("vector dimension mismatch")
    return _dual_generators(sorted({primitive_vector(v) for v in vecs if any(v)}), ambient_dim)


class RationalCone(NamedTuple):
    """Polyhedral cone in canonical form: minimal primitive generators and facet normals.

    The cone is exactly {x : <normal, x> >= 0 for every facet normal}; a
    lower-dimensional cone carries its cutting equations as plus/minus
    normal pairs, a cone with lineality carries plus/minus generator pairs.
    """

    ambient_dim: int
    generators: tuple[Vector, ...]
    facet_normals: tuple[Vector, ...]


def cone_from_generators(generators: Sequence[Sequence[int]], ambient_dim: int) -> RationalCone:
    """The cone of the generators in canonical form: its facet normals generate
    the dual {y : <g, y> >= 0}, and its canonical generators are in turn the
    dual of those (:func:`_dual_generators` on each side)."""
    normals = generators_from_inequalities(generators, ambient_dim)
    return RationalCone(ambient_dim, _dual_generators(normals, ambient_dim), normals)


def cone_contains(
    normals: Sequence[Vector],
    ambient_dim: int,
    point: Sequence[int],
    mode: Literal["closure", "relative_interior"] = "closure",
) -> bool:
    """Whether ``point`` lies in {x : <n, x> >= 0 for every n in normals}, or in its
    relative interior, where a normal whose negative is also a normal cuts an equation."""
    if len(point) != ambient_dim:
        raise ValueError(f"point dimension {len(point)} != ambient {ambient_dim}")
    if mode not in ("closure", "relative_interior"):
        raise ValueError(f"unknown mode {mode!r}")
    normal_set = set(normals)
    for h in normals:
        value = sum(a * b for a, b in zip(h, point))
        if mode == "closure":
            if value < 0:
                return False
        else:
            is_equation = tuple(-x for x in h) in normal_set
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


# A table row bounding x_k: the coefficients of its normal on x_0..x_{k-1}
# (the head), its coefficient c on x_k, stored positive, and a linear form f
# on the parameters p, standing for c * x_k + <head, x[:k]> + <f, p> >= 0 as
# a lower bound and -c * x_k + <head, x[:k]> + <f, p> >= 0 as an upper bound.
TableRow = tuple[Vector, int, Vector]
# The same row with its form evaluated at the parameters, (head, c, s) with
# s = <f, p>; :func:`_fold` folds each coordinate the walk fixes into s.
EvaluatedRow = tuple[Vector, int, int]


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
    A row keeps its multiplier's support as a bit set: combined with positive
    factors, the support of a derived row is the union of its parents'.
    """
    zero = (0,) * len(normals)
    rows = {zero[:i] + (1,) + zero[i + 1:]: (tuple(v), 1 << i) for i, v in enumerate(normals)}
    lower, upper = [], []
    for k in reversed(range(ambient_dim)):
        positive = [(y, normal, support) for y, (normal, support) in rows.items() if normal[k] > 0]
        negative = [(y, normal, support) for y, (normal, support) in rows.items() if normal[k] < 0]
        lower.append(tuple((normal[:k], normal[k], y) for y, normal, _ in positive))
        upper.append(tuple((normal[:k], -normal[k], y) for y, normal, _ in negative))
        derived = {y: (normal[:k], support) for y, (normal, support) in rows.items() if not normal[k]}
        support_bound = ambient_dim - k + 1
        for p_mult, p_normal, p_support in positive:
            for q_mult, q_normal, q_support in negative:
                support = p_support | q_support
                if support.bit_count() > support_bound:
                    continue
                s, t = -q_normal[k], p_normal[k]
                y = [s * a + t * b for a, b in zip(p_mult, q_mult)]
                normal = [s * a + t * b for a, b in zip(p_normal[:k], q_normal[:k])]
                g = gcd(*y, *normal)
                derived[tuple(v // g for v in y)] = (tuple(x // g for x in normal), support)
        rows = derived
    return tuple(rows), tuple(reversed(lower)), tuple(reversed(upper))


class PolytopeFamily:
    """The bounded polytopes {m : <n_i, m> >= -a_i} for fixed normals n_i, with
    the offsets a linear in some parameters p, as Fourier-Motzkin tables.

    Each table row's constant is a linear form in p, so the tables, built
    once with the family, serve every parameter vector with integer
    arithmetic only: one dot product of the parameters' length per level-0
    row, and for a polytope that level 0 leaves nonempty, one packed
    product that yields every deeper row's constant at once
    (:meth:`_row_pack`).  :func:`polytope_family` checks boundedness and
    takes the offsets themselves as the parameters, each form being a
    row's multiplier; :meth:`linear_tables` composes the forms with a
    linear map a = S p.  ``level_zero`` holds one form per offset-only row;
    ``lower[k]`` and ``upper[k]`` hold the rows of level k + 1 bounding x_k
    (see :data:`TableRow` and :func:`_eliminate`).  Two families are equal,
    and hash alike, when their tables are; the pack belongs to the instance.
    """

    __slots__ = ("ambient_dim", "parameters", "level_zero", "lower", "upper", "_pack")

    def __init__(
        self,
        ambient_dim: int,
        parameters: int,
        level_zero: tuple[Vector, ...],
        lower: tuple[tuple[TableRow, ...], ...],
        upper: tuple[tuple[TableRow, ...], ...],
    ) -> None:
        self.ambient_dim = ambient_dim
        self.parameters = parameters
        self.level_zero = level_zero
        self.lower = lower
        self.upper = upper
        self._pack = (-1, 0, 0, ())  # reach -1: the first nonempty query builds it at its own reach

    def _tables(self) -> tuple:
        return self.ambient_dim, self.parameters, self.level_zero, self.lower, self.upper

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PolytopeFamily:
            return NotImplemented
        return self._tables() == other._tables()

    def __hash__(self) -> int:
        return hash(self._tables())

    def lattice_points(self, params: Sequence[int]) -> tuple[Vector, ...]:
        """All integer points of the polytope of these parameters, sorted lexicographically.

        ValueError on a parameter that is not an integer (bools pass).
        """
        params = integer_vector(params, "parameters")
        if len(params) != self.parameters:
            raise ValueError(f"{len(params)} parameters for {self.parameters}")
        if any(sum(map(mul, f, params)) < 0 for f in self.level_zero):
            return ()
        points: list[Vector] = []
        self._points(params, points)
        return tuple(points)

    def count_lattice_points(self, params: Sequence[int]) -> int:
        """Number of integer points of the polytope of these parameters; lists none.

        Level 0 is checked first, so that an empty polytope, the common case
        of a class outside the effective cone, costs one dot product per
        level-0 row and no call.  Then :meth:`_points` reads every deeper
        row's constant off one packed product and counts without listing.
        ValueError on a parameter that is not an integer (bools pass).
        """
        params = integer_vector(params, "parameters")
        if len(params) != self.parameters:
            raise ValueError(f"{len(params)} parameters for {self.parameters}")
        return self._count(params)

    def _count(self, params: Vector) -> int:
        """:meth:`count_lattice_points` of parameters already read as ints of the right number."""
        for f in self.level_zero:
            if sum(map(mul, f, params)) < 0:
                return 0
        return self._points(params, None)

    def _points(self, params: Vector, points: list[Vector] | None) -> int:
        """Integer points of a polytope whose level 0 holds: their number, and
        each of them appended to ``points`` unless it is None.

        Every deeper row's constant is read off one packed product (see
        :meth:`_row_pack`, rebuilt first when the parameters' reach exceeds
        the pack's; a call reads only the pack it checked or built, so a
        narrower one that another thread stores meanwhile cannot reach it);
        x_0's interval then comes straight off the rows of ``lower[0]`` and
        ``upper[0]``, one running minimum per side, and :func:`_walk` takes
        over.
        """
        if not self.lower:  # dimension 0: the polytope is the origin
            if points is not None:
                points.append(())
            return 1
        reach = max(map(abs, params), default=0)
        pack = self._pack
        if reach > pack[0]:
            pack = self._pack = self._row_pack(reach)
        _, width, bias, columns = pack
        packed = sum(map(mul, params, columns), bias)
        mask, half = (1 << width) - 1, 1 << width - 1
        lower: list[list[EvaluatedRow]] = []
        upper: list[list[EvaluatedRow]] = []
        for side, levels in ((lower, self.lower), (upper, self.upper)):
            for level in levels:
                evaluated = []
                for head, c, _ in level:
                    evaluated.append((head, c, (packed & mask) - half))
                    packed >>= width
                side.append(evaluated)
        low = up = None
        for _, c, s in lower[0]:
            v = s // c
            if low is None or v < low:
                low = v
        for _, c, s in upper[0]:
            v = s // c
            if up is None or v < up:
                up = v
        if len(lower) == 1:
            if points is not None:
                points.extend((x,) for x in range(-low, up + 1))
            return up + low + 1
        return _walk(lower[1:], upper[1:], 0, -low, up, (), points)

    def _row_pack(self, reach: int) -> tuple[int, int, int, tuple[int, ...]]:
        """``(reach, width, bias, columns)``: the forms of the deeper rows, packed
        for every parameter vector whose entries are at most ``reach`` in size.

        The deeper rows are those of ``lower`` and then of ``upper``, level by
        level; row j takes the field of ``width`` bits at bit j * width.
        Column k of the forms becomes one integer, ``columns[k] = sum_j
        f_j[k] * 2**(j * width)``, and ``bias`` holds 2**(width - 1) in every
        field, so ``bias + sum_k p_k * columns[k]`` is ``sum_j (2**(width - 1)
        + <f_j, p>) * 2**(j * width)``.

        Why no carry crosses a field.  With M = reach * max_j |f_j|_1, every
        row constant has |<f_j, p>| <= M, and width is M.bit_length() + 1, so
        M < 2**(width - 1) and each biased constant lies in [1, 2**width).
        A sum of such digits times powers of 2**width is the integer's own
        base-2**width expansion, so field j, read as ``packed & mask`` after
        j shifts by ``width``, less the bias, is exactly <f_j, p>.
        """
        forms = [f for levels in (self.lower, self.upper) for level in levels for _, _, f in level]
        width = (reach * max(sum(map(abs, f)) for f in forms)).bit_length() + 1
        at = range(0, width * len(forms), width)
        columns = tuple(sum(f[k] << j for j, f in zip(at, forms)) for k in range(self.parameters))
        return reach, width, sum(1 << width - 1 + j for j in at), columns

    def linear_tables(self, section: IntegerMatrix) -> "PolytopeFamily":
        """The family over the parameters q of this family's parameters p = section . q.

        ``section`` has one row per parameter.  A row's constant <f, p> is
        <section^T f, q>, so each form is composed with the section once,
        here: a vector q then costs one dot product of its length per level-0
        row and, past level 0, one packed product of its length for all the
        deeper rows, whatever the number of normals.
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


def _fold(
    lower: list[list[EvaluatedRow]], upper: list[list[EvaluatedRow]], k: int, x: int
) -> tuple[list[list[EvaluatedRow]], list[list[EvaluatedRow]]]:
    """The tables below x_{k+1} once x_k = x: each deeper constant s takes in head[k] * x."""
    return (
        [[(head, c, s + head[k] * x) for head, c, s in level] for level in lower[1:]],
        [[(head, c, s + head[k] * x) for head, c, s in level] for level in upper[1:]],
    )


def _walk(
    lower: list[list[EvaluatedRow]],
    upper: list[list[EvaluatedRow]],
    k: int,
    lo: int,
    hi: int,
    prefix: Vector,
    points: list[Vector] | None,
) -> int:
    """Integer points over a prefix x_0..x_{k-1} with x_k in [lo, hi]: their number,
    and each of them appended to ``points``, lexicographically, unless it is None.

    ``lower[0]`` and ``upper[0]`` bound x_{k+1}, each constant s holding the
    prefix's part <head[:k], prefix>.  So at x_k = x, x_{k+1} lies in [-L, U],
    L and U being the minima of floor((head[k] x + s) / c) over the lower and
    the upper rows, taken with one running minimum per side.  The
    projection being exact (see :func:`_eliminate`), [lo, hi] is the integer
    part of a non-empty rational interval, and so is [-L, U] for each x in
    it, which boundedness makes finite: it holds U + L + 1 >= 0 integers.
    At the last coordinate those are the points; before it, x is folded into
    the deeper constants (:func:`_fold`) and the walk goes on with x_{k+1}'s
    interval.
    """
    last = len(lower) == 1
    bounding_lower, bounding_upper = lower[0], upper[0]
    n = 0
    for x in range(lo, hi + 1):
        low = up = None
        for head, c, s in bounding_lower:
            v = (head[k] * x + s) // c
            if low is None or v < low:
                low = v
        for head, c, s in bounding_upper:
            v = (head[k] * x + s) // c
            if up is None or v < up:
                up = v
        if last:
            n += up + low + 1
            if points is not None:
                points.extend(prefix + (x, y) for y in range(-low, up + 1))
        else:
            n += _walk(*_fold(lower, upper, k, x), k + 1, -low, up, prefix + (x,), points)
    return n


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


class WeightForm(NamedTuple):
    """Integral linear form, nonnegative on a fixed effective cone and >= 1 on its
    nonzero lattice points."""

    coefficients: Vector

    def __call__(self, v: Sequence[int]) -> int:
        if len(v) != len(self.coefficients):
            raise ValueError("length mismatch")
        return sum(map(mul, self.coefficients, v))
