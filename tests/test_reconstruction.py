"""Gale-dual rays, fan reconstruction, round trips and splitting certificates."""

import itertools
import random

import pytest

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
from toric_cox.lattice import IntegerMatrix, rational_rank, solve_integer
from toric_cox import reconstruction as reconstruction_module
from toric_cox.polyhedral import _homogenized_generators, polytope_family
from toric_cox.reconstruction import (
    GradingInput,
    _reconstruct_from_kernel,
    _surjective_kernel,
    gale_dual_rays,
    grading_from_json,
    reconstruct_fan,
    roundtrip_check,
    splitting_certificate,
)


class TestGaleDualRays:
    def test_projective_plane_grading(self):
        gi = GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), (1,))
        rays = gale_dual_rays(gi)
        assert rays.entries == ((1, 0), (0, 1), (-1, -1))

    def test_product_grading(self):
        gi = GradingInput(IntegerMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]]), (1, 1))
        rays = gale_dual_rays(gi)
        assert rays.entries == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_non_primitive_kernel_row_is_primitivized(self):
        gi = GradingInput(IntegerMatrix.from_rows([[1, 2]]), (1,))
        rays = gale_dual_rays(gi)
        # raw kernel rows are (2,) and (-1,); the first is flagged by
        # reconstruct_fan, gale_dual_rays only reports the directions
        assert rays.entries == ((1,), (-1,))

    def test_non_surjective_grading_rejected(self):
        gi = GradingInput(IntegerMatrix.from_rows([[2, 4]]), (2,))
        with pytest.raises(NotSurjective):
            gale_dual_rays(gi)

    def test_degenerate_ray(self):
        # a variable pinned by the grading has zero kernel row
        gi = GradingInput(IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 1]]), (1, 1))
        with pytest.raises(DegenerateRay):
            gale_dual_rays(gi)
        square = GradingInput(IntegerMatrix.from_rows([[1, 0], [0, 1]]), (1, 1))
        with pytest.raises(DegenerateRay):
            gale_dual_rays(square)

    def test_recovers_grading_up_to_basis_change(self, corpus):
        for name, fan in corpus.items():
            _, q = class_group(fan)
            w = q(anticanonical(fan).coefficients)
            gi = GradingInput(q.matrix, w)
            rays = gale_dual_rays(gi)
            rebuilt = Fan.make(fan.dim, rays.entries, fan.max_cones)
            _, q2 = class_group(rebuilt)
            assert q2.matrix.entries == q.matrix.entries, name


class TestReconstructFan:
    def test_projective_plane(self, p2):
        fan = reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 1, 1]]), (1,)))
        assert fan == p2

    def test_product_square(self, p1xp1):
        q = IntegerMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
        fan = reconstruct_fan(GradingInput(q, (1, 1)))
        assert fan == p1xp1
        assert len(fan.max_cones) == 4

    def test_hirzebruch_anticanonical_chamber(self, hirzebruch_1):
        _, q = class_group(hirzebruch_1)
        fan = reconstruct_fan(GradingInput(q.matrix, (3, 2)))
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

    def test_lift_translation_invariance(self, p2, monkeypatch):
        _, q = class_group(p2)
        kernel = p2.ray_matrix()
        # two lifts of the class 3 that differ by a principal divisor
        fans, asked = [], []
        for lift in ((1, 1, 1), (3, 0, 0)):
            monkeypatch.setattr(
                reconstruction_module, "solve_integer", lambda matrix, rhs: asked.append(tuple(rhs)) or lift
            )
            fans.append(_reconstruct_from_kernel(q.matrix, (3,), kernel))
        assert asked == [(3,), (3,)]
        assert fans == [p2, p2]

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
            try:
                kernel = _surjective_kernel(q)
                normals = [kernel.row(i) for i in range(kernel.rows)]
                polytope_family(normals, n)  # the boundedness check
            except (NotSurjective, UnboundedPolytope):
                continue
            interior_class = q.mat_vec([rng.randint(1, 3) for _ in range(rank + n)])
            vertices = _homogenized_generators(normals, solve_integer(q, interior_class), n)
            assert vertices
            base, base_det = vertices[0]
            diffs = [
                [x * base_det - y * det for x, y in zip(num, base)] for num, det in vertices[1:]
            ]
            assert rational_rank(diffs) == n
            checked += 1
        assert checked >= 100


class TestRoundTrip:
    def test_p2_coordinate_divisor(self, p2):
        assert roundtrip_check(p2, TorusInvariantDivisor.make([1, 0, 0]))

    def test_hirzebruch_anticanonical(self, hirzebruch_1):
        assert roundtrip_check(hirzebruch_1, anticanonical(hirzebruch_1))

    def test_semiample_divisor_rejected(self, p1xp1):
        with pytest.raises(NotAmpleLift):
            roundtrip_check(p1xp1, TorusInvariantDivisor.make([1, 0, 0, 0]))

    def test_all_small_ample_divisors_on_corpus(self, corpus):
        for name, fan in corpus.items():
            ample_found = 0
            for coeffs in itertools.product(range(3), repeat=fan.n_rays):
                divisor = TorusInvariantDivisor(coeffs)
                if is_ample(fan, divisor):
                    ample_found += 1
                    assert roundtrip_check(fan, divisor), (name, coeffs)
            assert ample_found > 0, name


class TestSplittingCertificate:
    def test_p2(self, p2):
        certificate = splitting_certificate(p2)
        assert certificate.rank == 3
        assert certificate.degree_multiset == ((1,), (1,), (1,))
        assert certificate.anticanonical_check

    def test_hirzebruch_one(self, hirzebruch_1):
        certificate = splitting_certificate(hirzebruch_1)
        assert certificate.rank == 4
        assert sorted(certificate.degree_multiset) == [(0, 1), (1, 0), (1, 0), (1, 1)]
        assert certificate.anticanonical_check

    def test_delpezzo6(self, corpus):
        certificate = splitting_certificate(corpus["delpezzo6"])
        # six rays in dimension two: rank n + r = 6
        assert certificate.rank == 6
        total = tuple(sum(col) for col in zip(*certificate.degree_multiset))
        _, q = class_group(corpus["delpezzo6"])
        assert total == q(anticanonical(corpus["delpezzo6"]).coefficients)

    def test_whole_corpus(self, corpus):
        for name, fan in corpus.items():
            certificate = splitting_certificate(fan)
            assert certificate.rank == fan.n_rays, name
            assert certificate.anticanonical_check, name
