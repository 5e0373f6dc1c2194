"""Smith normal form, kernels and cokernels, checked against brute-force oracles."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cox.lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    cokernel,
    hermite_basis,
    kernel_basis,
    smith_normal_form,
    solve_integer,
    unimodular_inverse,
)


def brute_determinant(m: IntegerMatrix) -> int:
    """Permutation expansion; independent of any elimination code."""
    assert m.rows == m.cols
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        product = 1
        for i in range(n):
            product *= m.entries[i][perm[i]]
        total += sign * product
    return total


def diagonal(m: IntegerMatrix) -> list[int]:
    return [m.entries[i][i] for i in range(min(m.rows, m.cols))]


def assert_smith_contract(a: IntegerMatrix) -> None:
    u, d, v = smith_normal_form(a)
    assert (u @ a @ v).entries == d.entries
    assert abs(brute_determinant(u)) == 1
    assert abs(brute_determinant(v)) == 1
    diag = diagonal(d)
    assert all(x >= 0 for x in diag)
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert d.entries[i][j] == 0
    nonzero = [x for x in diag if x]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zero diagonal entries come after all nonzero ones
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
).map(IntegerMatrix.from_rows)


class TestIntegerMatrix:
    def test_from_rows_reads_integers_only(self):
        with pytest.raises(ValueError, match="not an integer"):
            IntegerMatrix.from_rows([[1, 2.5]])
        assert IntegerMatrix.from_rows([[True, 0]]).entries == ((1, 0),)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(0, 4))
    def test_mat_vec_is_the_row_dot_products(self, data, rows, cols):
        big = st.integers(-(10**30), 10**30)
        row = st.lists(big, min_size=cols, max_size=cols)
        entries = data.draw(st.lists(row, min_size=rows, max_size=rows))
        m = IntegerMatrix(tuple(map(tuple, entries)), zero_width=cols if rows == 0 else 0)
        length = data.draw(st.integers(0, 5))
        v = data.draw(st.lists(big, min_size=length, max_size=length))
        if length != m.cols:
            with pytest.raises(ValueError, match=f"vector length {length} != {cols} columns"):
                m.mat_vec(v)
        else:
            assert m.mat_vec(v) == tuple(sum(a * b for a, b in zip(row, v)) for row in entries)

    def test_mat_vec_without_rows_is_empty(self):
        m = IntegerMatrix.zero(0, 3)
        assert m.mat_vec((1, 2, 3)) == ()
        with pytest.raises(ValueError):
            m.mat_vec((1, 2))

    def test_construction_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            IntegerMatrix(((1, 2), (3,)))

    @pytest.mark.parametrize("entry", [2.5, 2.0, Fraction(1, 2), "1", None])
    def test_construction_rejects_entries_that_are_not_ints(self, entry):
        with pytest.raises(ValueError, match="non-integer entry"):
            IntegerMatrix(((1, 0), (0, entry)))

    def test_equality_is_by_value(self):
        assert IntegerMatrix(((1, 2), (3, 4))) == IntegerMatrix.from_rows([[1, 2], [3, 4]])
        assert IntegerMatrix(((1, 2),)) != IntegerMatrix(((2, 1),))
        assert IntegerMatrix.zero(0, 2) != IntegerMatrix.zero(0, 3)


class TestSmithNormalForm:
    def test_projective_plane_ray_matrix(self):
        a = IntegerMatrix.from_rows([[1, 0], [0, 1], [-1, -1]])
        assert_smith_contract(a)
        _, d, _ = smith_normal_form(a)
        assert d.entries == ((1, 0), (0, 1), (0, 0))

    def test_zero_matrix(self):
        a = IntegerMatrix.zero(2, 3)
        u, d, v = smith_normal_form(a)
        assert d.is_zero()
        assert u.entries == IntegerMatrix.identity(2).entries
        assert v.entries == IntegerMatrix.identity(3).entries

    def test_diag_2_3(self):
        a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        assert_smith_contract(a)
        _, d, _ = smith_normal_form(a)
        assert diagonal(d) == [1, 6]
        assert abs(brute_determinant(a)) == 6  # determinant invariance

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_contract_random(self, a):
        assert_smith_contract(a)


def random_square(rng: random.Random, n: int) -> IntegerMatrix:
    """A unimodular matrix (row operations on I), a singular one (the last row
    made from rows 0 and n - 2) or one with free entries, a third of the time each."""
    kind = rng.randrange(3)
    if kind == 0:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i == j or rng.random() < 0.2:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                factor = rng.randint(-2, 2)
                rows[i] = [x + factor * y for x, y in zip(rows[i], rows[j])]
    else:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if kind == 1:
            b, c = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [b * x + c * y for x, y in zip(rows[0], rows[n - 2])]
    return IntegerMatrix.from_rows(rows)


class TestUnimodularInverse:
    def test_needs_a_row_swap(self):
        swap = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert unimodular_inverse(swap) == (-1, swap)

    def test_singular_and_not_unimodular(self):
        assert unimodular_inverse(IntegerMatrix.from_rows([[1, 2], [2, 4]])) == (0, None)
        assert unimodular_inverse(IntegerMatrix.from_rows([[1, 1], [-1, 1]])) == (2, None)

    def test_agrees_with_the_smith_form(self):
        # det is 0 iff the last invariant is and |det| is their product; the
        # inverse comes exactly when |det| = 1
        rng = random.Random(5)
        for n in range(1, 7):
            for _ in range(40):
                a = random_square(rng, n)
                det, inverse = unimodular_inverse(a)
                invariants = diagonal(smith_normal_form(a)[1])
                assert (det == 0) == (invariants[-1] == 0), a
                assert abs(det) == math.prod(invariants), a
                if n <= 5:
                    assert det == brute_determinant(a), a
                if abs(det) == 1:
                    assert a @ inverse == IntegerMatrix.identity(n) == inverse @ a, a
                else:
                    assert inverse is None, a


class TestKernelBasis:
    def test_sum_form(self):
        k = kernel_basis(IntegerMatrix.from_rows([[1, 1, 1]]))
        assert k.columns() == ((1, 0, -1), (0, 1, -1))

    def test_identity_has_no_kernel(self):
        assert kernel_basis(IntegerMatrix.identity(3)).cols == 0

    def test_difference_form(self):
        k = kernel_basis(IntegerMatrix.from_rows([[1, -1]]))
        assert k.columns() == ((1, 1),)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_kernel_is_saturated(self, a):
        k = kernel_basis(a)
        for j in range(k.cols):
            assert a.mat_vec(k.column(j)) == (0,) * a.rows
        if k.cols:
            _, d, _ = smith_normal_form(k)
            assert diagonal(d) == [1] * k.cols

    def test_matches_the_smith_reference(self):
        # the construction kernel_basis used before its Hermite elimination: the
        # columns of V past the rank of a Smith form U A V = D, in Hermite form
        rng = random.Random(0)
        zero_rows = full_column_rank = 0
        for _ in range(5000):
            m, n = rng.randint(0, 5), rng.randint(1, 7)
            rows = [[rng.randint(-50, 50) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
            if rows and rng.random() < 0.2:
                rows[rng.randrange(m)] = [0] * n
            a = IntegerMatrix.from_rows(rows) if rows else IntegerMatrix.zero(0, n)
            _, d, v = smith_normal_form(a)
            rank = sum(1 for x in diagonal(d) if x)
            reference = hermite_basis([v.column(j) for j in range(rank, n)], n)
            k = kernel_basis(a)
            assert (k.rows, k.columns()) == (n, reference), rows
            zero_rows += any(not any(row) for row in rows) or not rows
            full_column_rank += rank == n
        assert zero_rows >= 500 and full_column_rank >= 500

    def test_takes_no_smith_form(self, monkeypatch):
        import toric_cox.lattice as lattice_module

        def refuse(a):
            raise AssertionError("Smith form taken")

        monkeypatch.setattr(lattice_module, "smith_normal_form", refuse)
        assert kernel_basis(IntegerMatrix.from_rows([[2, 4, 6], [1, 0, 1]])).columns() == ((1, 1, -1),)


def preimage_exists(presentation: AbelianGroupPresentation, target: list[int]) -> bool:
    """Solvability of projection(x) = target up to the torsion moduli."""
    proj = presentation.projection
    rows = [list(r) for r in proj.entries]
    width = proj.cols
    for t, factor in enumerate(presentation.invariant_factors):
        column = [0] * proj.rows
        column[presentation.free_rank + t] = factor
        for i in range(proj.rows):
            rows[i].append(column[i])
    augmented = IntegerMatrix.from_rows(rows) if rows else IntegerMatrix.zero(0, width)
    return solve_integer(augmented, target) is not None


class TestCokernel:
    def test_projective_plane(self):
        a = IntegerMatrix.from_rows([[1, 0], [0, 1], [-1, -1]])
        pres = cokernel(a)
        assert pres.free_rank == 1
        assert pres.invariant_factors == ()
        assert pres.projection.entries == ((1, 1, 1),)
        for j in range(a.cols):
            assert pres.projection.mat_vec(a.column(j)) == (0,)

    def test_scalar_two(self):
        pres = cokernel(IntegerMatrix.from_rows([[2]]))
        assert pres.free_rank == 0
        assert pres.invariant_factors == (2,)

    def test_hirzebruch_one(self):
        a = IntegerMatrix.from_rows([[1, 0], [0, 1], [-1, 1], [0, -1]])
        pres = cokernel(a)
        assert pres.free_rank == 2
        assert pres.invariant_factors == ()

    def test_free_rows_match_the_left_kernel_reference(self):
        # the construction cokernel used before reading the free rows off its
        # own Smith transform: a second Smith form, on the transpose, for the
        # kernel of A^T, then the Hermite basis of that kernel
        rng = random.Random(0)
        for _ in range(1000):
            m, n = rng.randint(1, 7), rng.randint(1, 5)
            a = IntegerMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            reference = hermite_basis(kernel_basis(a.transpose()).columns(), a.rows)
            pres = cokernel(a)
            assert pres.projection.entries[: pres.free_rank] == reference, a

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_projection_contract(self, a):
        pres = cokernel(a)
        # free rows kill the image exactly; torsion rows kill it modulo the factor
        for j in range(a.cols):
            image = pres.projection.mat_vec(a.column(j))
            for i in range(pres.free_rank):
                assert image[i] == 0
            for t, factor in enumerate(pres.invariant_factors):
                assert image[pres.free_rank + t] % factor == 0
        # surjectivity: every quotient coordinate vector has a preimage
        for i in range(pres.projection.rows):
            unit = [0] * pres.projection.rows
            unit[i] = 1
            assert preimage_exists(pres, unit)


class TestAbelianGroupPresentation:
    def test_invariant_factors_must_be_at_least_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            AbelianGroupPresentation(0, (1,), IntegerMatrix.from_rows([[1]]))

    def test_invariant_factors_must_form_a_divisibility_chain(self):
        with pytest.raises(ValueError, match="divisibility chain"):
            AbelianGroupPresentation(0, (2, 3), IntegerMatrix.from_rows([[1, 0], [0, 1]]))

    def test_projection_needs_one_row_per_coordinate(self):
        with pytest.raises(ValueError, match="wrong number of rows"):
            AbelianGroupPresentation(1, (2,), IntegerMatrix.from_rows([[1, 0]]))

    def test_a_valid_presentation_keeps_its_fields(self):
        projection = IntegerMatrix.from_rows([[1, 0], [0, 1]])
        pres = AbelianGroupPresentation(free_rank=1, invariant_factors=(2,), projection=projection)
        assert (pres.free_rank, pres.invariant_factors, pres.projection) == (1, (2,), projection)


class TestSolveInteger:
    def test_simple_system(self):
        a = IntegerMatrix.from_rows([[1, 1, 1]])
        x = solve_integer(a, (5,))
        assert x is not None and sum(x) == 5

    def test_unsolvable_parity(self):
        a = IntegerMatrix.from_rows([[2, 4]])
        assert solve_integer(a, (3,)) is None

    def test_inconsistent(self):
        a = IntegerMatrix.from_rows([[1, 0], [1, 0]])
        assert solve_integer(a, (0, 1)) is None

    @pytest.mark.parametrize("b", [(2.0,), (1.5,), ("2",), (None,)])
    def test_a_right_hand_side_that_is_not_integral_raises(self, b):
        # (2.0,) used to come back as the float solution (1.0,)
        message = re.escape(f"right-hand side {b!r} has an entry that is not an integer")
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_integer(IntegerMatrix.from_rows([[2]]), b)

    def test_a_bool_right_hand_side_is_an_integer(self):
        assert solve_integer(IntegerMatrix.from_rows([[1]]), (True,)) == (1,)

    @settings(max_examples=60, deadline=None)
    @given(
        small_matrices,
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    )
    def test_planted_solutions_are_recovered(self, a, x):
        x = (x * 4)[: a.cols]
        b = a.mat_vec(x)
        solution = solve_integer(a, b)
        assert solution is not None
        assert a.mat_vec(solution) == b


class TestHermiteBasis:
    def test_canonical_two_plane(self):
        rows = hermite_basis([(2, 0, -2), (1, 1, 1)], 3)
        # same lattice regardless of generator order or sign
        again = hermite_basis([(-1, -1, -1), (2, 0, -2), (3, 1, -1)], 3)
        assert rows == again

    def test_pivots_positive_and_reduced(self):
        rows = hermite_basis([(0, 1, 0, 1), (1, -2, 1, 0)], 4)
        assert rows == ((1, 0, 1, 2), (0, 1, 0, 1))


def reference_rational_rank(rows) -> int:
    """Reference rank: Gaussian elimination over Fractions, the method the
    fraction-free elimination replaced."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][c]
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


class TestRationalRank:
    """The rank is the length of the Hermite basis."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(1, 6))
    def test_matches_the_fraction_elimination(self, data, rows, cols):
        entry = st.integers(-(10**30), 10**30) | st.integers(-3, 3)
        matrix: list[list[int]] = []
        for _ in range(rows):
            kind = data.draw(st.sampled_from(["free", "zero", "sum"]))
            if kind == "zero":
                matrix.append([0] * cols)
            elif kind == "sum" and matrix:
                # an integer combination of earlier rows, so the rank does not grow
                factors = data.draw(st.lists(st.integers(-3, 3), min_size=len(matrix), max_size=len(matrix)))
                matrix.append([sum(f * r[j] for f, r in zip(factors, matrix)) for j in range(cols)])
            else:
                matrix.append(data.draw(st.lists(entry, min_size=cols, max_size=cols)))
        rank = len(hermite_basis(matrix, cols))
        assert rank == reference_rational_rank(matrix)
        assert rank <= min(rows, cols)

    def test_bools_read_as_integers(self):
        basis = hermite_basis([(True, 0), (0, 1)], 2)
        assert basis == ((1, 0), (0, 1)) and all(type(x) is int for row in basis for x in row)

    @pytest.mark.parametrize("entry", [1.5, 2.0, Fraction(3, 2), Fraction(4, 2)])
    def test_an_entry_that_is_not_an_integer_raises(self, entry):
        with pytest.raises(ValueError, match="not an integer"):
            hermite_basis([[1, 0], [0, entry]], 2)
