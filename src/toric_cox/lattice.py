"""Exact integer linear algebra over lattices.

Normal forms, kernels and cokernels of integer matrices with arbitrary
precision entries.  Matrices act on column vectors, so an ``m x n`` matrix
is a lattice map ``Z^n -> Z^m``.  Kernels, ranks and the onto test come
from one Hermite elimination; a Smith form is taken only where a lift
(:func:`solve_integer`, the class section of a grading) or torsion
(:func:`cokernel`) is read.  Each of the two eliminations writes its own
row and column operations, so they share no code.  Everything here is
deterministic: the same input always produces the same transforms, which
the test fixtures rely on.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import index, mul
from typing import Iterable, Sequence

Vector = tuple[int, ...]


def integer_vector(entries: Iterable[int], name: str) -> Vector:
    """The entries as a tuple of ints, read by ``operator.index`` so that bools
    pass and nothing is truncated; ValueError, naming the vector as ``name``,
    on an entry that is not an integer."""
    try:
        return tuple(map(index, entries))
    except TypeError:
        raise ValueError(f"{name} {entries!r} has an entry that is not an integer") from None


class IntegerMatrix:
    """Integer matrix with row-major entries, compared by value and never
    modified after construction.

    ``zero_width`` records the column count of a matrix without rows, so a
    trivial cokernel projection still knows its source rank.
    """

    __slots__ = ("entries", "zero_width")

    def __init__(self, entries: tuple[Vector, ...], zero_width: int = 0) -> None:
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged rows in matrix")
        for row in entries:
            for x in row:
                if not isinstance(x, int):
                    raise ValueError(f"non-integer entry {x!r}")
        self.entries = entries
        self.zero_width = zero_width

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IntegerMatrix:
            return NotImplemented
        return self.entries == other.entries and self.zero_width == other.zero_width

    def __repr__(self) -> str:
        return f"IntegerMatrix(entries={self.entries!r}, zero_width={self.zero_width!r})"

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else self.zero_width

    @staticmethod
    def _unchecked(entries: tuple[Vector, ...]) -> "IntegerMatrix":
        """A matrix of rows of ints of one width, built by package code: no check."""
        m = object.__new__(IntegerMatrix)
        m.entries, m.zero_width = entries, 0
        return m

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntegerMatrix":
        return IntegerMatrix(tuple(integer_vector(row, "matrix row") for row in rows))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple((0,) * cols for _ in range(rows)), zero_width=cols if rows == 0 else 0)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.cols))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.columns())

    def mat_vec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != {self.cols} columns")
        return tuple([sum(map(mul, row, v)) for row in self.entries])

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = other.columns()
        return IntegerMatrix._unchecked(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.entries)
        )

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.entries)


class AbelianGroupPresentation:
    """Cokernel data: quotient of an ambient lattice presented as Z^free + torsion.

    ``projection`` maps ambient coordinates to quotient coordinates, free
    coordinates first and then one coordinate per invariant factor
    (understood modulo that factor).
    """

    __slots__ = ("free_rank", "invariant_factors", "projection")

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...], projection: IntegerMatrix) -> None:
        for d in invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if projection.rows != free_rank + len(invariant_factors):
            raise ValueError("projection has the wrong number of rows")
        self.free_rank = free_rank
        self.invariant_factors = invariant_factors
        self.projection = projection


def _min_abs_position(d: list[list[int]], start: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(start, len(d)):
        for j in range(start, len(d[0])):
            x = abs(d[i][j])
            if x and (best_val is None or x < best_val):
                best, best_val = (i, j), x
    return best


def smith_normal_form(a: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return unimodular U, V and diagonal D with U*A*V = D.

    The diagonal of D is nonnegative and forms a divisibility chain
    d1 | d2 | ... ; sign conventions are absorbed into U and V.  Pivot
    selection (smallest absolute value, first position) is deterministic.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    for t in range(min(m, n)):
        while (position := _min_abs_position(d, t)) is not None:
            i, j = position
            if i != t:
                d[t], d[i] = d[i], d[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for row in (*d, *v):
                    row[t], row[j] = row[j], row[t]
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            pivot = d[t][t]
            for i in range(t + 1, m):
                q = d[i][t] // pivot
                if q:
                    for rows in (d, u):
                        row = rows[i]
                        for k, y in enumerate(rows[t]):
                            row[k] -= q * y
            if any(row[t] for row in d[t + 1 :]):
                continue
            for j in range(t + 1, n):
                q = d[t][j] // pivot
                if q:
                    for row in (*d, *v):
                        row[j] -= q * row[t]
            if any(d[t][t + 1 :]):
                continue
            # Divisibility: the pivot must divide the trailing block; if not, add the first offending row to its row.
            for i, j in product(range(t + 1, m), range(t + 1, n)):
                if d[i][j] % pivot:
                    break
            else:
                break
            for rows in (d, u):
                row = rows[t]
                for k, y in enumerate(rows[i]):
                    row[k] += y

    u_out, d_out, v_out = (IntegerMatrix._unchecked(tuple(map(tuple, m))) for m in (u, d, v))
    return u_out, d_out, v_out


def _diagonal(d: IntegerMatrix) -> list[int]:
    return [d.entries[i][i] for i in range(min(d.rows, d.cols))]


def hermite_basis(rows: Iterable[Sequence[int]], width: int) -> tuple[Vector, ...]:
    """Row Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, zero rows dropped.  The result is the canonical basis
    of the row lattice, and its length is the rank of the rows.  Entries
    are read by :func:`integer_vector`: ValueError on one that is not an
    integer.
    """
    mat = [list(integer_vector(r, "row")) for r in rows]
    if any(len(r) != width for r in mat):
        raise ValueError("row width mismatch")
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c]]
            if not nz:
                break
            i_best = min(nz, key=lambda i: (abs(mat[i][c]), i))
            if i_best != r:
                mat[r], mat[i_best] = mat[i_best], mat[r]
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            top, done = mat[r], True
            for row in mat[r + 1 :]:
                if row[c]:
                    q = row[c] // top[c]
                    for k, y in enumerate(top):
                        row[k] -= q * y
                    if row[c]:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][c]:
            top = mat[r]
            for row in mat[:r]:
                q = row[c] // top[c]
                if q:
                    for k, y in enumerate(top):
                        row[k] -= q * y
            r += 1
    return tuple(tuple(row) for row in mat[:r])


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis of the saturated kernel lattice {x : A x = 0}.

    One Hermite elimination of the rows ``(A e_j, e_j)``, which span the graph
    {(A x, x)} (Cohen 1993, §2.4): the basis rows with ``A.rows`` leading
    zeros span the graph over the kernel, so their tails are its Hermite
    basis, the columns of the result, independent of the elimination path.
    """
    m, n = a.rows, a.cols
    graph = [(*column, *(int(i == j) for i in range(n))) for j, column in enumerate(a.columns())]
    kernel = [row[m:] for row in hermite_basis(graph, m + n) if not any(row[:m])]
    if not kernel:
        # zero-dimensional kernel: n rows of width zero
        return IntegerMatrix(tuple(() for _ in range(n)))
    return IntegerMatrix.from_rows(kernel).transpose()


def cokernel(a: IntegerMatrix) -> AbelianGroupPresentation:
    """Present the quotient Z^rows / im(A).

    Both parts come from the Smith transform U A V = D.  The rows of U past
    the rank of D span the saturated left kernel {y : y^T A = 0} (U A has
    zero rows there, and U is unimodular), and the free part of the
    projection is their Hermite basis (canonical, so test fixtures are
    stable); torsion coordinates are the rows of U, one per invariant
    factor > 1.
    """
    u, d, _ = smith_normal_form(a)
    diag = _diagonal(d)
    rank = sum(1 for x in diag if x)
    free_rows = list(hermite_basis(u.entries[rank:], a.rows))
    torsion: list[tuple[int, Vector]] = []
    for i, di in enumerate(diag):
        if di >= 2:
            torsion.append((di, u.row(i)))
    rows = free_rows + [row for _, row in torsion]
    projection = (
        IntegerMatrix.from_rows(rows) if rows else IntegerMatrix.zero(0, a.rows)
    )
    return AbelianGroupPresentation(
        free_rank=len(free_rows),
        invariant_factors=tuple(di for di, _ in torsion),
        projection=projection,
    )


def unimodular_inverse(a: IntegerMatrix) -> tuple[int, IntegerMatrix | None]:
    """``det(A)`` of a square matrix, and its integer inverse when
    ``det(A) = +-1`` (None otherwise).

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    on ``[A | I]``: with p the pivot and q the previous one (1 at first),
    every other row becomes ``(p * row - row[c] * pivot_row) / q``, and each
    division is exact, as every entry is then a minor of ``[A | I]``.  A
    row whose entry in the pivot column is 0 is left as it is when p = q.
    A row transform M takes ``[A | I]`` to ``[M A | M]``; after the last
    pivot p the left block is ``p * I``, so ``M = p * A^-1`` and
    ``p = +-det(A)``, the sign that of the row swaps.  When ``|p| = 1`` the
    inverse is p times the right block.
    """
    n = a.rows
    zeros = (0,) * n
    mat = [[*row, *zeros[:i], 1, *zeros[i + 1 :]] for i, row in enumerate(a.entries)]
    sign, previous = 1, 1
    for c in range(n):
        if not mat[c][c]:
            for pivot in range(c + 1, n):
                if mat[pivot][c]:
                    break
            else:
                return 0, None
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        top = mat[c]
        p = top[c]
        for i, row in enumerate(mat):
            q = row[c]
            if i != c and (q or p != previous):
                mat[i] = [(p * x - q * y) // previous for x, y in zip(row, top)]
        previous = p
    if abs(previous) != 1:
        return sign * previous, None
    return sign * previous, IntegerMatrix._unchecked(tuple(tuple(previous * x for x in row[n:]) for row in mat))


def solve_integer(a: IntegerMatrix, b: Sequence[int]) -> Vector | None:
    """A particular integer solution of A x = b, or None if none exists.

    Deterministic: the solution with zero coordinates along the Smith
    kernel directions.  ValueError on an entry of b that is not an integer.
    """
    b = integer_vector(b, "right-hand side")
    if len(b) != a.rows:
        raise ValueError("right-hand side has the wrong length")
    u, d, v = smith_normal_form(a)
    c = u.mat_vec(b)
    diag = _diagonal(d)
    y = [0] * a.cols
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return v.mat_vec(y)


def primitive_vector(v: Sequence[int]) -> Vector:
    """Divide by the gcd of the coordinates, keeping orientation."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)
