"""Fan validation, class groups, Cartier data, transitions and ampleness."""

import hashlib
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cox import fans as fans_module
from toric_cox import lattice as lattice_module
from toric_cox.corpus import NON_EXAMPLES, load_fan
from toric_cox.errors import MalformedFan, NotComplete, RaysDontSpan
from toric_cox.fans import (
    Fan,
    FanReport,
    TorusInvariantDivisor,
    anticanonical,
    cartier_data,
    cech_transitions,
    class_group,
    fan_from_json,
    fan_to_json,
    is_ample,
    validate_fan,
)
from toric_cox.lattice import IntegerMatrix, kernel_basis, hermite_basis, primitive_vector
from toric_cox.polyhedral import cone_from_generators, cone_from_inequalities
from toric_cox.verify import run_verification


def unimodular_change_of_basis(q_from: IntegerMatrix, q_to: IntegerMatrix):
    """T with T * q_from = q_to, if one exists; used to compare degree matrices
    computed in different class-lattice bases."""
    from toric_cox.lattice import solve_integer, smith_normal_form

    rows = []
    for i in range(q_to.rows):
        # solve row_i(T) * q_from = row_i(q_to), i.e. q_from^T x = target
        x = solve_integer(q_from.transpose(), q_to.row(i))
        if x is None:
            return None
        rows.append(x)
    t = IntegerMatrix.from_rows(rows)
    _, d, _ = smith_normal_form(t)
    if all(d.entries[i][i] == 1 for i in range(t.rows)):
        return t
    return None


class TestValidateFan:
    def test_projective_plane(self, p2):
        report = validate_fan(p2)
        assert (report.simplicial, report.smooth, report.complete) == (True, True, True)
        assert report == FanReport(True, True, True)
        assert repr(report) == "FanReport(simplicial=True, smooth=True, complete=True)"

    def test_cone_over_a_square_is_not_simplicial(self):
        # four rays in dimension 3: the one validation that sees simplicial=False
        fan = Fan.make(3, [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]], [[0, 1, 2, 3]])
        assert validate_fan(fan) == FanReport(False, False, False)

    def test_make_rejects_entries_that_are_not_integers(self):
        with pytest.raises(ValueError, match="not an integer"):
            Fan.make(2, [[1, 0], [0.5, 1]], [[0, 1]])
        with pytest.raises(ValueError, match="not an integer"):
            Fan.make(2, [[1, 0], [0, 1]], [[0, 1.0]])
        with pytest.raises(ValueError, match="not an integer"):
            TorusInvariantDivisor.make([1, 0.5])
        assert Fan.make(1, [[True], [-1]], [[False], [1]]) == Fan.make(1, [[1], [-1]], [[0], [1]])

    def test_no_charts_without_smoothness(self):
        assert validate_fan(Fan.make(2, [[1, 0], [1, 2]], [[0, 1]])).charts == ()

    @pytest.mark.parametrize("name", NON_EXAMPLES)
    def test_no_wall_forms_unless_smooth_and_complete(self, name):
        assert validate_fan(load_fan(name)).wall_forms == ()

    def test_affine_plane_incomplete(self):
        fan = Fan.make(2, [[1, 0], [0, 1]], [[0, 1]])
        assert validate_fan(fan).complete is False

    def test_singular_cone(self):
        fan = Fan.make(2, [[1, 0], [1, 2]], [[0, 1]])
        report = validate_fan(fan)
        assert report.simplicial and not report.smooth

    def test_every_corpus_fan_is_smooth_complete(self, corpus):
        for name, fan in corpus.items():
            report = validate_fan(fan)
            assert report.smooth and report.complete, name

    @pytest.mark.parametrize(
        "rays, cones, fragment",
        [
            ([[2, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]], "primitive"),
            ([[1, 0], [1, 0], [-1, -1]], [[0, 1], [1, 2], [0, 2]], "coincide"),
            ([[1, 0], [0, 1]], [[0, 5]], "missing ray"),
            ([[1, 0], [0, 1], [-1, -1]], [[0, 1]], "no maximal cone"),
            ([[1, 0], [0, 1]], [[0, 1], [0]], "nested"),
            ([[1, 0], [0, 1]], [[0, 0, 1]], "repeats"),
        ],
    )
    def test_malformed_inputs_cite_the_problem(self, rays, cones, fragment):
        with pytest.raises(MalformedFan, match=fragment):
            validate_fan(Fan.make(2, rays, cones))

    def test_overlapping_cones_rejected(self):
        # two cones overlap in a two-dimensional region but share one ray
        fan = Fan.make(2, [[1, 0], [0, 1], [-1, 2]], [[0, 1], [0, 2]])
        with pytest.raises(MalformedFan, match="intersect"):
            validate_fan(fan)

    # The reported pair is the first overlapping pair in the order of the
    # sorted cones, as recorded from the pairwise double description.
    @pytest.mark.parametrize(
        "dim, rays, cones, pair",
        [
            # a pentagram: the cones wind twice around the origin, each meets
            # its neighbours in one ray, and cones (0, 2) and (1, 3) overlap
            (2, [[1, 0], [1, 2], [-1, 1], [-1, -1], [1, -2]], [[0, 2], [2, 4], [4, 1], [1, 3], [3, 0]], (0, 2)),
            # two 2-cones sharing no ray, the second crossing the first
            (2, [[1, 0], [1, 2], [2, 1], [-1, 1]], [[0, 1], [2, 3]], (0, 1)),
            # ray 3 lies in the relative interior of the facet (0, 1) of cone 0
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [-1, 0, 0]], [[0, 1, 2], [2, 3, 4]], (0, 1)),
            # a 1-cone inside a 2-cone
            (3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1], [2]], (0, 1)),
        ],
        ids=["winding_twice", "no_shared_ray", "ray_in_facet", "ray_in_two_cone"],
    )
    def test_overlap_names_the_first_pair(self, dim, rays, cones, pair):
        with pytest.raises(MalformedFan) as excinfo:
            validate_fan(Fan.make(dim, rays, cones))
        assert str(excinfo.value) == f"cones {pair[0]} and {pair[1]} intersect beyond their shared rays"

    def test_incomplete_fan_of_mixed_dimensions(self):
        # a 3-cone, two 2-cones and a 1-cone meeting in shared faces or at 0
        fan = Fan.make(
            3,
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [[0, 1, 2], [3, 4], [5], [1, 3]],
        )
        assert validate_fan(fan) == FanReport(simplicial=True, smooth=True, complete=False)

    def test_json_round_trip(self, p2):
        assert fan_from_json(fan_to_json(p2)) == p2


def reference_face_intersections(f: Fan) -> None:
    """The pairwise double description: each pair of maximal cones, intersected
    as the cone of both facet-normal lists, against the cone of the shared rays."""
    cones = [cone_from_generators(f.cone_rays(c), f.dim) for c in f.max_cones]
    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        shared = sorted(set(f.max_cones[a]) & set(f.max_cones[b]))
        expected = cone_from_generators([f.rays[i] for i in shared], f.dim)
        actual = cone_from_inequalities(cones[a].facet_normals + cones[b].facet_normals, f.dim)
        if actual.generators != expected.generators:
            raise MalformedFan(f"cones {a} and {b} intersect beyond their shared rays")


def validation_outcome(validate, fan: Fan):
    try:
        report = validate(fan)
    except MalformedFan as exc:
        return str(exc)
    return report, report.charts, report.wall_forms


@st.composite
def small_fans(draw):
    """Fans in dimension 2-4 on up to d + 4 short rays, with one to five drawn
    pairwise incomparable cones of at most d rays each; every ray is used.

    The draws go through a seeded generator: direct integer draws start at
    zero and shrink towards it, which leaves few rays and almost no overlaps.
    """
    rng = draw(st.randoms(use_true_random=False))
    dim = rng.randint(2, 4)
    rays = sorted({
        primitive_vector(v)
        for v in ([rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(dim, dim + 4)))
        if any(v)
    } | {(1,) + (0,) * (dim - 1)})
    cones = {
        frozenset(rng.sample(range(len(rays)), rng.randint(1, min(dim, len(rays)))))
        for _ in range(rng.randint(1, 5))
    }
    cones = [c for c in cones if not any(c < other for other in cones)]
    used = sorted(set().union(*cones))
    index = {r: i for i, r in enumerate(used)}
    return Fan.make(dim, [rays[i] for i in used], [[index[i] for i in c] for c in cones])


@settings(max_examples=150, deadline=None)
@given(small_fans())
def test_separation_agrees_with_pairwise_double_description(fan):
    with mock.patch.object(fans_module, "_check_face_intersections", reference_face_intersections):
        expected = validation_outcome(validate_fan.__wrapped__, fan)
    assert validation_outcome(validate_fan, fan) == expected


def product_fan(*dims: int) -> Fan:
    """P^a x P^b x ...: the rays of each factor in its own block of coordinates,
    one maximal cone per choice of a maximal cone in each factor."""
    total = sum(dims)
    rays, cones, offset = [], [()], 0
    for n in dims:
        base = len(rays)
        for ray in [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]:
            rays.append([0] * offset + ray + [0] * (total - offset - n))
        cones = [c + f for c in cones for f in itertools.combinations(range(base, base + n + 1), n)]
        offset += n
    return Fan.make(total, rays, cones)


@pytest.mark.parametrize(
    "dims, n_cones, walls", [((2, 2, 1), 18, 45), ((1, 1, 1, 1), 16, 32)], ids=["P2xP2xP1", "P1^4"]
)
def test_validation_scales_to_products(dims, n_cones, walls):
    fan = product_fan(*dims)
    start = time.process_time()
    report = validate_fan.__wrapped__(fan)
    elapsed = time.process_time() - start
    assert report.smooth and report.complete
    assert len(fan.max_cones) == n_cones and len(report.wall_forms) == walls
    assert elapsed < 1.0


def test_verify_on_p2_cubed():
    # 27 maximal cones: the Cech check looks up 3 transitions per ordered
    # triple of cones for each of its 5 divisor pairs, 263,250 lookups.
    # The digest is of the report as pinned when each lookup scanned every
    # transition (8.7 s).
    fan = product_fan(2, 2, 2)
    start = time.process_time()
    results = run_verification(fan)
    elapsed = time.process_time() - start
    text = "\n".join(f"{r.name}: {r.passed}: {r.detail}" for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2c492e94f1f390cde9afc46931385b927dc6cee760d97af40bdb93a50da3ea0e"
    )
    assert elapsed < 2.0


class TestClassGroup:
    def test_projective_plane(self, p2):
        pres, q = class_group(p2)
        assert pres.free_rank == 1 and pres.is_free
        assert q.matrix.entries == ((1, 1, 1),)

    def test_p1xp1_degrees(self, p1xp1):
        _, q = class_group(p1xp1)
        assert q.matrix.columns() == ((1, 0), (1, 0), (0, 1), (0, 1))

    def test_hirzebruch_one_degrees(self, hirzebruch_1):
        _, q = class_group(hirzebruch_1)
        # canonical basis here is (fiber class, section class)
        assert q.matrix.columns() == ((1, 0), (0, 1), (1, 0), (1, 1))
        # equivalent, up to a unimodular change of basis, to the presentation
        # with degrees (1,0), (-1,1), (1,0), (0,1)
        other = IntegerMatrix.from_rows([[1, -1, 1, 0], [0, 1, 0, 1]])
        t = unimodular_change_of_basis(q.matrix, other)
        assert t is not None
        assert t.mul(q.matrix).entries == other.entries

    def test_rays_must_span(self):
        fan = Fan.make(2, [[1, 0], [-1, 0]], [[0], [1]])
        with pytest.raises(RaysDontSpan):
            class_group(fan)

    def test_rank_and_exactness_on_corpus(self, corpus):
        for name, fan in corpus.items():
            pres, q = class_group(fan)
            assert pres.is_free, name
            assert pres.free_rank == fan.n_rays - fan.dim, name
            div = fan.ray_matrix()
            assert q.matrix.mul(div).is_zero(), name
            kernel = kernel_basis(q.matrix)
            assert hermite_basis(kernel.columns(), fan.n_rays) == hermite_basis(
                div.columns(), fan.n_rays
            ), name

    def test_principal_divisors_have_degree_zero(self, corpus):
        for fan in corpus.values():
            _, q = class_group(fan)
            for m in range(fan.dim):
                unit = [0] * fan.dim
                unit[m] = 1
                principal = fan.ray_matrix().mat_vec(unit)
                assert not any(q(principal))


class TestCartierData:
    def test_no_smith_form_after_validation(self, corpus, monkeypatch):
        fan = corpus["delpezzo6"]
        validate_fan(fan)
        real = lattice_module.smith_normal_form
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(lattice_module, "smith_normal_form", counted)
        monkeypatch.setattr(fans_module, "smith_normal_form", counted)
        rng = random.Random(5)
        for _ in range(50):
            divisor = TorusInvariantDivisor.make([rng.randint(-3, 3) for _ in range(fan.n_rays)])
            cartier_data(fan, divisor)
            is_ample(fan, divisor)
            cech_transitions(fan, divisor)
        assert calls == []

    def test_projective_plane_coordinate_divisor(self, p2):
        characters = cartier_data(p2, TorusInvariantDivisor.make([1, 0, 0]))
        assert characters[0] == (-1, 0)  # cone on rays 0,1

    def test_zero_divisor(self, p2):
        characters = cartier_data(p2, TorusInvariantDivisor.make([0, 0, 0]))
        assert all(m == (0, 0) for m in characters)

    def test_p1_anticanonical(self, p1):
        assert cartier_data(p1, TorusInvariantDivisor.make([1, 1])) == ((-1,), (1,))

    def test_defining_equations_hold_on_corpus(self, corpus):
        for fan in corpus.values():
            divisor = TorusInvariantDivisor.make(range(fan.n_rays))
            for cone, m in zip(fan.max_cones, cartier_data(fan, divisor)):
                for i in cone:
                    pairing = sum(a * b for a, b in zip(m, fan.rays[i]))
                    assert pairing == -divisor.coefficients[i]


class TestCechTransitions:
    def test_zero_divisor_trivial(self, p2):
        cocycle = cech_transitions(p2, TorusInvariantDivisor.make([0, 0, 0]))
        assert all(v == (0, 0) for _, v in cocycle.transitions)

    def test_projective_plane_value(self, p2):
        cocycle = cech_transitions(p2, TorusInvariantDivisor.make([1, 0, 0]))
        # canonical cone order is (0,1), (0,2), (1,2); the transition from
        # the chart on rays 0,1 to the chart on rays 1,2 is (-1,0) - (0,0)
        assert p2.max_cones == ((0, 1), (0, 2), (1, 2))
        assert cocycle.exponent(0, 2) == (-1, 0)

    def test_additivity(self, hirzebruch_1):
        d1 = TorusInvariantDivisor.make([0, 0, 1, 0])
        d2 = TorusInvariantDivisor.make([0, 0, 0, 1])
        lhs = cech_transitions(hirzebruch_1, d1 + d2)
        rhs = cech_transitions(hirzebruch_1, d1) + cech_transitions(hirzebruch_1, d2)
        assert lhs == rhs

    def test_cocycle_identity_on_corpus(self, corpus):
        for fan in corpus.values():
            divisor = TorusInvariantDivisor.make([1] * fan.n_rays)
            cocycle = cech_transitions(fan, divisor)
            indices = range(len(fan.max_cones))
            for s, t in itertools.permutations(indices, 2):
                assert cocycle.exponent(s, t) == tuple(
                    -x for x in cocycle.exponent(t, s)
                )
            for s, t, u in itertools.permutations(indices, 3):
                summed = tuple(
                    a + b
                    for a, b in zip(cocycle.exponent(s, t), cocycle.exponent(t, u))
                )
                assert summed == cocycle.exponent(s, u)


class TestIsAmple:
    def test_coordinate_divisor_on_p2(self, p2):
        assert is_ample(p2, TorusInvariantDivisor.make([1, 0, 0]))

    def test_zero_divisor_not_ample(self, p2):
        assert not is_ample(p2, TorusInvariantDivisor.make([0, 0, 0]))

    def test_semiample_class_on_hirzebruch(self, hirzebruch_1):
        assert not is_ample(hirzebruch_1, TorusInvariantDivisor.make([0, 0, 0, 1]))

    def test_incomplete_fan_rejected(self):
        fan = Fan.make(2, [[1, 0], [0, 1]], [[0, 1]])
        with pytest.raises(NotComplete):
            is_ample(fan, TorusInvariantDivisor.make([1, 1]))

    def test_wrong_length_rejected(self, p2):
        with pytest.raises(ValueError, match="wrong number of coefficients"):
            is_ample(p2, TorusInvariantDivisor.make([1, 0]))

    def test_anticanonical_ample_exactly_on_fano_corpus(self, corpus):
        fano = {"p1", "p2", "p1xp1", "hirzebruch_0", "hirzebruch_1", "delpezzo6"}
        for name, fan in corpus.items():
            assert is_ample(fan, anticanonical(fan)) == (name in fano), name


class TestAnticanonical:
    def test_p2_class(self, p2):
        _, q = class_group(p2)
        assert q(anticanonical(p2).coefficients) == (3,)

    def test_hirzebruch_one_class(self, hirzebruch_1):
        _, q = class_group(hirzebruch_1)
        # (3, 2) in the canonical (fiber, section) basis; the same class reads
        # (1, 2) in the basis used by test_hirzebruch_one_degrees
        assert q(anticanonical(hirzebruch_1).coefficients) == (3, 2)
        t = IntegerMatrix.from_rows([[1, -1], [0, 1]])
        assert t.mat_vec((3, 2)) == (1, 2)

    def test_p1_class(self, p1):
        _, q = class_group(p1)
        assert q(anticanonical(p1).coefficients) == (2,)

    def test_coefficients_all_one(self, corpus):
        for fan in corpus.values():
            assert anticanonical(fan).coefficients == (1,) * fan.n_rays
