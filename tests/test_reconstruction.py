"""Gale-dual rays, fan reconstruction and round trips."""

import itertools
import random
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cox.cox import cox_data
from toric_cox.errors import (
    DegenerateRay,
    NotAmpleLift,
    NotSmooth,
    NotSurjective,
    UnboundedPolytope,
)
from toric_cox.fans import (
    Fan,
    TorusInvariantDivisor,
    anticanonical,
    class_group,
    is_ample,
)
from toric_cox.lattice import IntegerMatrix, hermite_basis, kernel_basis, solve_integer
from toric_cox.polyhedral import _homogenized_generators, cone_contains, cone_from_generators, polytope_family
from toric_cox.reconstruction import (
    GradingInput,
    _normal_fan,
    grading_from_json,
    reconstruct_fan,
    roundtrip_check,
)


@st.composite
def onto_gradings(draw):
    """An onto grading of rank 1-3 whose kernel rows are nonzero and primitive,
    so that reconstruction reaches its interior test, with a class that is
    interior to, on the boundary of or outside its effective cone.

    [I | m] is onto, and its kernel rows are those of [-m; I] up to a
    unimodular change of basis: nonzero and primitive when m's rows are.  Row
    operations keep the grading onto and its kernel; a column permutation
    permutes the kernel rows.
    """
    rank, extra = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=extra, max_size=extra).filter(lambda r: gcd(*r) == 1)
    rows = [[int(i == j) for j in range(rank)] + draw(row) for i in range(rank)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        if i != j:
            t = draw(st.integers(-2, 2))
            rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(rank + extra)))
    q = IntegerMatrix.from_rows([[r[k] for k in order] for r in rows])
    coefficients = draw(st.lists(st.integers(-1, 2), min_size=rank + extra, max_size=rank + extra))
    return q, q.mat_vec(coefficients)


class TestGaleDualRays:
    def test_projective_plane_grading(self):
        gi = GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), (1,))
        assert reconstruct_fan(gi).rays == ((1, 0), (0, 1), (-1, -1))

    def test_product_grading(self):
        gi = GradingInput(IntegerMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]]), (1, 1))
        assert reconstruct_fan(gi).rays == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_class_vector_length_must_match_the_rows(self):
        with pytest.raises(ValueError, match="must match the matrix row count"):
            GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), (1, 1))

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 4]],
            # full rank, index 2
            [[1, 1, 1], [1, -1, 1]],
            [[1, 1, 1], [0, 0, 0]],
            # more rows than columns
            [[1, 0], [0, 1], [1, 1]],
        ],
    )
    def test_non_surjective_grading_rejected(self, rows):
        gi = GradingInput(IntegerMatrix.from_rows(rows), (1,) * len(rows))
        with pytest.raises(NotSurjective, match="^grading matrix does not surject onto the class lattice$"):
            reconstruct_fan(gi)

    def test_an_onto_grading_passes_the_onto_check(self):
        # (2, 3) is onto Z; its kernel row (-3, 2) is what stops it
        with pytest.raises(NotSmooth, match="^kernel row 0 is not primitive; grading is not smooth toric data$"):
            reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[2, 3]]), (1,)))

    def test_degenerate_ray(self):
        # a variable pinned by the grading has zero kernel row
        gi = GradingInput(IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 1]]), (1, 1))
        with pytest.raises(DegenerateRay):
            reconstruct_fan(gi)
        square = GradingInput(IntegerMatrix.from_rows([[1, 0], [0, 1]]), (1, 1))
        with pytest.raises(DegenerateRay):
            reconstruct_fan(square)

    def test_recovers_grading_up_to_basis_change(self, corpus):
        for name, fan in corpus.items():
            q = class_group(fan).projection
            rebuilt = Fan.make(fan.dim, kernel_basis(q).entries, fan.max_cones)
            q2 = class_group(rebuilt).projection
            assert q2.entries == q.entries, name


class TestReconstructFan:
    def test_projective_plane(self, p2):
        fan = reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), (1,)))
        assert fan == p2

    @pytest.mark.parametrize("ample_class", [(1.5,), (3.0,)])
    def test_class_with_an_entry_that_is_not_an_integer(self, ample_class):
        # the class is read at the boundary, not inside the lift, where (3.0,) would name a normal
        message = re.escape(f"class {ample_class!r} has an entry that is not an integer")
        with pytest.raises(ValueError, match=f"^{message}$"):
            reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), ample_class))

    def test_product_square(self, p1xp1):
        q = IntegerMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
        fan = reconstruct_fan(GradingInput(q, (1, 1)))
        assert fan == p1xp1
        assert len(fan.max_cones) == 4

    def test_hirzebruch_anticanonical_chamber(self, hirzebruch_1):
        q = class_group(hirzebruch_1).projection
        fan = reconstruct_fan(GradingInput(q, (3, 2)))
        assert fan == hirzebruch_1

    def test_non_primitive_grading_rejected(self):
        with pytest.raises(NotSmooth):
            reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 2]]), (1,)))

    def test_boundary_class_rejected(self):
        q = IntegerMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
        with pytest.raises(NotAmpleLift):
            reconstruct_fan(GradingInput(q, (1, 0)))

    def test_exterior_class_rejected(self):
        with pytest.raises(NotAmpleLift):
            reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), (-1,)))

    def test_unbounded_lift_rejected(self):
        # kernel rays sit in a halfplane, so every lift is unbounded
        with pytest.raises(NotAmpleLift):
            reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 1, -1]]), (1,)))

    def test_singular_chamber_rejected(self):
        # grading of the second Hirzebruch surface; (1,1) sits in the other
        # chamber of the effective cone, whose quotient is not smooth
        q = IntegerMatrix.from_rows([[1, 0, 1, 2], [0, 1, 0, 1]])
        with pytest.raises((NotSmooth, NotAmpleLift)):
            reconstruct_fan(GradingInput(q, (1, 1)))

    @pytest.mark.parametrize(
        "class_vector, error, message",
        [
            # one vertex, (-1, -1/2), has denominator 2
            ((1, 1), NotAmpleLift, "some ray is inactive on the lifted polytope"),
            # the vertex (-2, -1) is also cut out by two rays of determinant 2
            ((2, 1), NotSmooth, "normal fan is not smooth and complete"),
        ],
    )
    def test_vertices_with_determinant_two(self, class_vector, error, message):
        q = IntegerMatrix.from_rows([[1, 0, 1, 2], [0, 1, 0, 1]])
        with pytest.raises(error, match=f"^{message}$"):
            reconstruct_fan(GradingInput(q, class_vector))

    def test_lift_translation_invariance(self, p2):
        normals = cox_data(p2).effective_normals
        # two lifts of the class 3 that differ by a principal divisor
        fans = [_normal_fan(p2.rays, normals, (3,), lift) for lift in ((1, 1, 1), (3, 0, 0))]
        assert fans == [p2, p2]

    @settings(max_examples=150, deadline=None)
    @given(onto_gradings())
    def test_interior_verdict_matches_the_cone_of_the_degrees(self, case):
        # the reference builds the whole effective cone; reconstruction reads
        # its facet normals alone
        q, w = case
        effective = cone_from_generators(q.columns(), q.rows)
        interior = cone_contains(effective.facet_normals, q.rows, w, "relative_interior")
        try:
            reconstruct_fan(GradingInput(q, w))
            message = None
        except (NotAmpleLift, NotSmooth) as exc:
            message = str(exc)
        assert (message == "class is not interior to the effective cone") == (not interior)

    def test_grading_json(self):
        gi = grading_from_json('{"Q": [[1, 1, 1]], "w": [2]}')
        assert gi.degree_matrix.entries == ((1, 1, 1),)
        assert gi.ample_class == (2,)

    def test_interior_class_lifts_to_a_full_dimensional_polytope(self):
        # Why reconstruction checks no dimension: by Gale duality the lifted
        # polytope is the grading's fiber over the class cut by the orthant,
        # and an interior class meets the open orthant.
        rng = random.Random(0)
        checked = 0
        for _ in range(600):
            rank, n = rng.randint(1, 3), rng.randint(1, 3)
            q = IntegerMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(rank + n)] for _ in range(rank)]
            )
            # q need not be onto or of full rank: the class below lies in its
            # image, and the fiber has the kernel's dimension
            kernel = kernel_basis(q)
            normals, n = kernel.entries, kernel.cols
            try:
                polytope_family(normals, n)  # the boundedness check
            except UnboundedPolytope:
                continue
            interior_class = q.mat_vec([rng.randint(1, 3) for _ in range(q.cols)])
            vertices = _homogenized_generators(normals, solve_integer(q, interior_class), n)
            assert vertices
            base, base_det = vertices[0]
            diffs = [
                [x * base_det - y * det for x, y in zip(num, base)] for num, det in vertices[1:]
            ]
            assert len(hermite_basis(diffs, n)) == n
            checked += 1
        assert checked >= 100


class TestRoundTrip:
    def test_p2_coordinate_divisor(self, p2):
        assert roundtrip_check(cox_data(p2), TorusInvariantDivisor.make([1, 0, 0]))

    def test_hirzebruch_anticanonical(self, hirzebruch_1):
        assert roundtrip_check(cox_data(hirzebruch_1), anticanonical(hirzebruch_1))

    def test_semiample_divisor_rejected(self, p1xp1):
        with pytest.raises(NotAmpleLift):
            roundtrip_check(cox_data(p1xp1), TorusInvariantDivisor.make([1, 0, 0, 0]))

    def test_a_coefficient_tuple_is_a_type_error(self, p2):
        with pytest.raises(TypeError, match="expected a TorusInvariantDivisor"):
            roundtrip_check(cox_data(p2), (1, 1, 1))

    def test_all_small_ample_divisors_on_corpus(self, corpus):
        for name, fan in corpus.items():
            cd = cox_data(fan)
            ample_found = 0
            for coeffs in itertools.product(range(3), repeat=fan.n_rays):
                divisor = TorusInvariantDivisor(coeffs)
                if is_ample(fan, divisor):
                    ample_found += 1
                    assert roundtrip_check(cd, divisor), (name, coeffs)
            assert ample_found > 0, name

    def test_the_rebuilt_fan_keeps_the_rays(self, corpus_cox):
        # why roundtrip_check compares only the maximal cones
        for name, cd in corpus_cox.items():
            coeffs = next(
                c for c in itertools.product(range(3), repeat=cd.fan.n_rays)
                if is_ample(cd.fan, TorusInvariantDivisor(c))
            )
            target = cd.degree_of_exponent(coeffs)
            rebuilt = _normal_fan(cd.fan.rays, cd.effective_normals, target, cd.class_section.mat_vec(target))
            assert rebuilt.rays == cd.fan.rays, name
