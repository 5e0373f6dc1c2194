"""Fan validation, class groups and ampleness."""

import hashlib
import itertools
import random
import time
from unittest import mock

import pytest
from fan_strategies import (
    NON_PROJECTIVE_THREEFOLD,
    product_fan,
    small_fans,
    smooth_cycles,
    smooth_projective_fans,
)
from hypothesis import given, settings

from toric_cox import fans as fans_module
from toric_cox import lattice as lattice_module
from toric_cox.corpus import NON_EXAMPLES, SMOOTH_COMPLETE, load_fan
from toric_cox.errors import MalformedFan, NotComplete, NotSmooth, RaysDontSpan
from toric_cox.fans import (
    Fan,
    FanReport,
    TorusInvariantDivisor,
    anticanonical,
    class_group,
    fan_from_json,
    fan_to_json,
    is_ample,
    validate_fan,
)
from toric_cox.lattice import (
    IntegerMatrix,
    cokernel,
    hermite_basis,
    kernel_basis,
    smith_normal_form,
)
from toric_cox.polyhedral import cone_from_generators, generators_from_inequalities
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


# A smooth closed walk of 13 rays around the origin, turning one way twice.
CYCLE_13 = [
    [1, 0], [-3, 1], [-1, 0], [-3, -1], [-2, -1], [-3, -2], [-1, -1],
    [-2, -3], [-1, -2], [1, 1], [0, 1], [-1, -3], [0, -1],
]


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

    # Of several repeated rays, the first pair in index order is named
    @pytest.mark.parametrize("pattern, pair", [("ABBA", (0, 3)), ("AABB", (0, 1)), ("BACAB", (0, 4))])
    def test_coinciding_rays_name_the_first_pair(self, pattern, pair):
        rays = [{"A": [1, 0], "B": [0, 1], "C": [-1, -1]}[letter] for letter in pattern]
        with pytest.raises(MalformedFan, match=f"^rays {pair[0]} and {pair[1]} coincide$"):
            validate_fan(Fan.make(2, rays, [list(range(len(rays)))]))

    # Of an equal pair and a nested pair of cones, the least pair in index order is
    # named, whichever kind it is (cones are indexed as Fan.make sorts them)
    @pytest.mark.parametrize(
        "cones, pair",
        [
            # sorted (0, 1), (0, 1), (1,), (1, 2): the equal pair comes first
            ([[0, 1], [0, 1], [1, 2], [1]], (0, 1)),
            # sorted (0, 2), (1,), (1, 2), (1, 2): a nested pair before the equal one
            ([[0, 2], [1, 2], [1, 2], [1]], (1, 2)),
            # sorted (0, 1), (0, 2), (0, 2), (1,), (1, 2): the equal pair (1, 2) comes after (0, 3)
            ([[0, 1], [0, 2], [0, 2], [1, 2], [1]], (0, 3)),
        ],
    )
    def test_nested_cones_name_the_least_pair(self, cones, pair):
        fan = Fan.make(2, [[1, 0], [0, 1], [-1, -1]], cones)
        with pytest.raises(MalformedFan, match=f"^cones {pair[0]} and {pair[1]} are nested;"):
            validate_fan(fan)

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
            # smooth, every facet owned twice, but (1, 2) folds back over
            # (0, 1): the wall certificate fails both checks
            (2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [1, 2], [0, 2]], (0, 1)),
            # a smooth 4-cycle folding back away from cone 0: only the side
            # check of the wall certificate fails
            (2, [[1, 0], [-1, 1], [1, -2], [0, -1]], [[0, 1], [0, 3], [1, 2], [2, 3]], (1, 2)),
            # smooth, every facet owned twice and every consecutive
            # determinant 1, winding twice around the origin: only the
            # degree check of the wall certificate fails
            (2, CYCLE_13, [[i, (i + 1) % 13] for i in range(13)], (0, 9)),
        ],
        ids=[
            "winding_twice", "no_shared_ray", "ray_in_facet", "ray_in_two_cone",
            "smooth_fold", "smooth_fold_away_from_p", "smooth_cycle_13",
        ],
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


class TestFanValue:
    """A fan is an immutable value: equal fields make equal, equally hashed fans."""

    def test_equality_and_hash_are_by_value(self):
        rays, cones = [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [0, 2]]
        a, b = Fan.make(2, rays, cones), Fan.make(2, rays, cones)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != Fan.make(2, rays, cones[:2])
        assert len({a, b}) == 1

    @pytest.mark.parametrize("field", ["dim", "rays", "max_cones"])
    def test_fields_cannot_be_assigned(self, p2, field):
        with pytest.raises(AttributeError):
            setattr(p2, field, getattr(p2, field))

    def test_equal_fans_share_one_validation(self):
        rays, cones = [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]
        first = validate_fan(Fan.make(2, rays, cones))
        before = validate_fan.cache_info()
        second = validate_fan(Fan.make(2, rays, cones))
        after = validate_fan.cache_info()
        assert second is first
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, before.currsize)


class TestDivisorSum:
    def test_divisors_of_different_lengths_do_not_add(self):
        with pytest.raises(ValueError, match="cannot add divisors of 3 and 2 rays"):
            TorusInvariantDivisor.make([1, 0, 0]) + TorusInvariantDivisor.make([1, 0])

    @pytest.mark.parametrize("other", [3, (1, 0, 0), None])
    def test_a_divisor_plus_anything_else_is_a_type_error(self, other):
        with pytest.raises(TypeError):
            TorusInvariantDivisor.make([1, 0, 0]) + other


def reference_face_intersections(f: Fan) -> None:
    """The pairwise double description: each pair of maximal cones, intersected
    as the cone of both facet-normal lists, against the cone of the shared rays."""
    cones = [cone_from_generators(f.cone_rays(c), f.dim) for c in f.max_cones]
    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        shared = sorted(set(f.max_cones[a]) & set(f.max_cones[b]))
        expected = cone_from_generators([f.rays[i] for i in shared], f.dim)
        actual = generators_from_inequalities(cones[a].facet_normals + cones[b].facet_normals, f.dim)
        if actual != expected.generators:
            raise MalformedFan(f"cones {a} and {b} intersect beyond their shared rays")


def validation_outcome(validate, fan: Fan):
    try:
        report = validate(fan)
    except MalformedFan as exc:
        return str(exc)
    return report, report.wall_forms


@settings(max_examples=150, deadline=None)
@given(small_fans())
def test_separation_agrees_with_pairwise_double_description(fan):
    with mock.patch.object(fans_module, "_check_face_intersections", reference_face_intersections):
        expected = validation_outcome(validate_fan.__wrapped__, fan)
    assert validation_outcome(validate_fan, fan) == expected


def reference_validation(fan: Fan):
    """Validation with the pairwise double description run on every
    simplicial fan, certified or not, before the flags are read."""
    fans_module._check_structure(fan)
    if fans_module._charts(fan)[0]:
        reference_face_intersections(fan)
    with mock.patch.object(fans_module, "_check_face_intersections", lambda f: None):
        return validate_fan.__wrapped__(fan)


@settings(max_examples=150, deadline=None)
@given(small_fans() | smooth_cycles() | smooth_projective_fans())
def test_wall_certificate_agrees_with_pairwise_double_description(fan):
    assert validation_outcome(validate_fan, fan) == validation_outcome(reference_validation, fan)


@settings(max_examples=150, deadline=None)
@given(small_fans())
def test_smith_form_decides_simplicial_and_charts(fan):
    # per cone, and for the fan: the Smith-derived flag is the rank test, the
    # cone is unimodular iff every invariant is 1, and then a full-dimensional
    # cone has a chart, its inverse, and a lower-dimensional one has none
    flags, unimodular = [], []
    for cone in fan.max_cones:
        rays = fan.cone_rays(cone)
        simplicial, charts = fans_module._charts(fan._replace(max_cones=(cone,)))
        flags.append(len(hermite_basis(rays, fan.dim)) == len(cone))
        assert simplicial == flags[-1], cone
        if simplicial:
            _, d, _ = smith_normal_form(IntegerMatrix.from_rows(rays))
            unimodular.append(all(d.entries[i][i] == 1 for i in range(len(cone))))
            assert (charts is not None) == unimodular[-1]
            if charts is not None and len(cone) == fan.dim:
                assert IntegerMatrix.from_rows(rays) @ charts[0] == IntegerMatrix.identity(len(cone))
            elif charts is not None:
                assert charts == ()
    simplicial, charts = fans_module._charts(fan)
    assert simplicial == all(flags)
    assert (charts is not None) == (simplicial and all(unimodular))
    try:
        report = validate_fan.__wrapped__(fan)
    except MalformedFan:
        return
    assert report.simplicial == all(flags)


def reference_charts(f: Fan):
    """One Smith form ``U N V = D`` per maximal cone: simplicial iff its k-th
    invariant is nonzero, unimodular iff it is 1, and then a full-dimensional
    cone's chart is ``V U``, the inverse of N; a lower-dimensional cone has none."""
    charts = []
    for cone in f.max_cones:
        u, d, v = smith_normal_form(IntegerMatrix.from_rows(f.cone_rays(cone)))
        k = len(cone)
        last = d.entries[k - 1][k - 1] if k <= f.dim else 0
        if not last:
            return False, None
        if last != 1:
            charts = None
        elif charts is not None and k == f.dim:
            charts.append(v @ u)
    return True, None if charts is None else tuple(charts)


@settings(max_examples=150, deadline=None)
@given(small_fans() | smooth_cycles() | smooth_projective_fans())
def test_charts_agree_with_the_smith_form(fan):
    assert fans_module._charts(fan) == reference_charts(fan)


CLASS_GROUP_PRODUCTS = [(3,), (4,), (2, 2), (3, 2), (1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1)]


def same_presentation(fan: Fan) -> bool:
    ours, reference = class_group(fan), cokernel(fan.ray_matrix())
    return (ours.free_rank, ours.invariant_factors, ours.projection) == (
        reference.free_rank,
        reference.invariant_factors,
        reference.projection,
    )


@pytest.mark.parametrize("name", [*SMOOTH_COMPLETE, *NON_EXAMPLES])
def test_class_group_is_the_cokernel(name):
    assert same_presentation(load_fan(name))


@pytest.mark.parametrize("dims", CLASS_GROUP_PRODUCTS, ids=str)
def test_class_group_of_products_is_the_cokernel(dims):
    assert same_presentation(product_fan(*dims))


@settings(max_examples=60, deadline=None)
@given(smooth_projective_fans())
def test_class_group_of_smooth_projective_fans_is_the_cokernel(fan):
    assert same_presentation(fan)


def test_validation_takes_a_smith_form_only_on_lower_dimensional_cones(corpus, monkeypatch):
    # a full-dimensional cone is inverted by one elimination, a cone of more
    # rays than the dimension is not simplicial, and only a cone of fewer
    # takes a Smith form; a smooth complete fan's class group takes none
    real = lattice_module.smith_normal_form
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(lattice_module, "smith_normal_form", counted)
    monkeypatch.setattr(fans_module, "smith_normal_form", counted)
    for fan in [*corpus.values(), *map(load_fan, NON_EXAMPLES)]:
        validate_fan.__wrapped__(fan)
    assert calls == []
    mixed, _ = UNCERTIFIED["mixed_dimensions"]
    for fan, lower in [(Fan.make(2, [[1, 0]], [[0]]), 1), (mixed, 3)]:
        calls.clear()
        validate_fan.__wrapped__(fan)
        assert len(calls) == lower
    calls.clear()
    for fan in corpus.values():
        class_group(fan)
    assert calls == []


@pytest.mark.parametrize(
    "dims, n_cones, walls",
    [((2, 2, 1), 18, 45), ((1, 1, 1, 1), 16, 32), ((2, 2, 2), 27, 81)],
    ids=["P2xP2xP1", "P1^4", "P2^3"],
)
def test_validation_scales_to_products(dims, n_cones, walls):
    fan = product_fan(*dims)
    start = time.process_time()
    report = validate_fan.__wrapped__(fan)
    elapsed = time.process_time() - start
    assert report.smooth and report.complete
    assert len(fan.max_cones) == n_cones and len(report.wall_forms) == walls
    assert elapsed < 1.0


def count_separations(monkeypatch) -> list:
    real = fans_module.separable
    calls = []
    monkeypatch.setattr(fans_module, "separable", lambda *args: calls.append(args) or real(*args))
    return calls


def test_certified_fans_take_no_separation(corpus, monkeypatch):
    calls = count_separations(monkeypatch)
    products = [product_fan(*dims) for dims in [(3,), (2, 2), (1, 1, 1), (2, 2, 1), (2, 2, 2), (1, 1, 1, 1)]]
    for fan in [*corpus.values(), *products]:
        report = validate_fan.__wrapped__(fan)
        assert report.smooth and report.complete
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(smooth_projective_fans())
def test_smooth_projective_fans_take_no_separation(fan):
    with mock.patch.object(fans_module, "separable", side_effect=AssertionError("separation ran")):
        report = validate_fan.__wrapped__(fan)
    assert report.smooth and report.complete


UNCERTIFIED = {
    # smooth but incomplete: all six pairs are separated
    "mixed_dimensions": (
        Fan.make(
            3,
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [[0, 1, 2], [3, 4], [5], [1, 3]],
        ),
        6,
    ),
    # complete but not smooth, the weighted plane P(1, 1, 2): three pairs
    "weighted_plane": (Fan.make(2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]]), 3),
    # the smooth fold fails its certificate and stops at the first pair
    "smooth_fold": (Fan.make(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [1, 2], [0, 2]]), 1),
}


@pytest.mark.parametrize(
    "fan",
    [NON_PROJECTIVE_THREEFOLD, UNCERTIFIED["mixed_dimensions"][0]],
    ids=["non_projective_threefold", "mixed_dimensions"],
)
def test_class_group_off_the_corpus_is_the_cokernel(fan):
    # the wall forms span the relations on any smooth complete fan, projective
    # or not; a smooth incomplete fan with a full-dimensional cone 0 takes cokernel
    assert same_presentation(fan)


@pytest.mark.parametrize("name", [*NON_EXAMPLES, *UNCERTIFIED])
def test_uncertified_fans_take_the_pairwise_separation(name, monkeypatch):
    # the non-examples have one maximal cone each, so no pair to separate
    fan, separations = UNCERTIFIED.get(name, (None, 0))
    calls = count_separations(monkeypatch)
    try:
        validate_fan.__wrapped__(fan or load_fan(name))
    except MalformedFan:
        pass
    assert len(calls) == separations


def test_verify_on_p2_cubed():
    # 27 maximal cones, so a check that walks the triples of cones (as the
    # Cech line once did, in 8.7 s) shows here; the digest pins the report.
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
        pres = class_group(p2)
        q = pres.projection
        assert pres.free_rank == 1 and not pres.invariant_factors
        assert q.entries == ((1, 1, 1),)

    def test_p1xp1_degrees(self, p1xp1):
        q = class_group(p1xp1).projection
        assert q.columns() == ((1, 0), (1, 0), (0, 1), (0, 1))

    def test_hirzebruch_one_degrees(self, hirzebruch_1):
        q = class_group(hirzebruch_1).projection
        # canonical basis here is (fiber class, section class)
        assert q.columns() == ((1, 0), (0, 1), (1, 0), (1, 1))
        # equivalent, up to a unimodular change of basis, to the presentation
        # with degrees (1,0), (-1,1), (1,0), (0,1)
        other = IntegerMatrix.from_rows([[1, -1, 1, 0], [0, 1, 0, 1]])
        t = unimodular_change_of_basis(q, other)
        assert t is not None
        assert (t @ q).entries == other.entries

    def test_rays_must_span(self):
        fan = Fan.make(2, [[1, 0], [-1, 0]], [[0], [1]])
        with pytest.raises(RaysDontSpan):
            class_group(fan)

    def test_rank_and_exactness_on_corpus(self, corpus):
        for name, fan in corpus.items():
            pres = class_group(fan)
            q = pres.projection
            assert not pres.invariant_factors, name
            assert pres.free_rank == fan.n_rays - fan.dim, name
            div = fan.ray_matrix()
            assert (q @ div).is_zero(), name
            kernel = kernel_basis(q)
            assert hermite_basis(kernel.columns(), fan.n_rays) == hermite_basis(
                div.columns(), fan.n_rays
            ), name

    def test_principal_divisors_have_degree_zero(self, corpus):
        for fan in corpus.values():
            q = class_group(fan).projection
            for m in range(fan.dim):
                unit = [0] * fan.dim
                unit[m] = 1
                principal = fan.ray_matrix().mat_vec(unit)
                assert not any(q.mat_vec(principal))


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

    @pytest.mark.parametrize("divisor", [(1, 1, 1), [1, 1, 1], None])
    def test_a_divisor_of_another_type_is_a_type_error(self, p2, divisor):
        with pytest.raises(TypeError, match="expected a TorusInvariantDivisor"):
            is_ample(p2, divisor)

    def test_singular_fan_rejected(self):
        with pytest.raises(NotSmooth):
            is_ample(load_fan("singular_cone"), TorusInvariantDivisor.make([1, 1]))

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
            is_ample(fan, TorusInvariantDivisor.make([rng.randint(-3, 3) for _ in range(fan.n_rays)]))
        assert calls == []

    @pytest.mark.parametrize("name", ["p1", "p2"])
    def test_picard_rank_one_ample_exactly_in_positive_degree(self, name):
        fan = load_fan(name)
        rng = random.Random(11)
        for _ in range(60):
            divisor = TorusInvariantDivisor.make([rng.randint(-3, 3) for _ in range(fan.n_rays)])
            assert is_ample(fan, divisor) == (sum(divisor.coefficients) > 0), divisor

    def test_ampleness_depends_only_on_the_class(self, corpus):
        # adding the principal divisor of a character m, sum_v <m, v> D_v,
        # keeps the class and so the answer
        rng = random.Random(17)
        for name, fan in corpus.items():
            for _ in range(20):
                coefficients = [rng.randint(-3, 3) for _ in range(fan.n_rays)]
                principal = fan.ray_matrix().mat_vec([rng.randint(-4, 4) for _ in range(fan.dim)])
                moved = [a + b for a, b in zip(coefficients, principal)]
                assert is_ample(fan, TorusInvariantDivisor.make(coefficients)) == is_ample(
                    fan, TorusInvariantDivisor.make(moved)
                ), (name, coefficients, moved)

    def test_ample_divisors_form_a_convex_cone(self, corpus):
        rng = random.Random(19)
        for name, fan in corpus.items():
            draws = [TorusInvariantDivisor.make([rng.randint(-1, 3) for _ in range(fan.n_rays)]) for _ in range(30)]
            ample = [d for d in draws if is_ample(fan, d)]
            assert ample, name
            for d in draws:
                doubled = TorusInvariantDivisor.make([2 * a for a in d.coefficients])
                assert is_ample(fan, doubled) == is_ample(fan, d), (name, d)
            for d1, d2 in itertools.combinations(ample, 2):
                assert is_ample(fan, d1 + d2), (name, d1, d2)

    def test_anticanonical_ample_exactly_on_fano_corpus(self, corpus):
        fano = {"p1", "p2", "p1xp1", "hirzebruch_0", "hirzebruch_1", "delpezzo6"}
        for name, fan in corpus.items():
            assert is_ample(fan, anticanonical(fan)) == (name in fano), name


class TestAnticanonical:
    def test_p2_class(self, p2):
        q = class_group(p2).projection
        assert q.mat_vec(anticanonical(p2).coefficients) == (3,)

    def test_hirzebruch_one_class(self, hirzebruch_1):
        q = class_group(hirzebruch_1).projection
        # (3, 2) in the canonical (fiber, section) basis; the same class reads
        # (1, 2) in the basis used by test_hirzebruch_one_degrees
        assert q.mat_vec(anticanonical(hirzebruch_1).coefficients) == (3, 2)
        t = IntegerMatrix.from_rows([[1, -1], [0, 1]])
        assert t.mat_vec((3, 2)) == (1, 2)

    def test_p1_class(self, p1):
        q = class_group(p1).projection
        assert q.mat_vec(anticanonical(p1).coefficients) == (2,)

    def test_coefficients_all_one(self, corpus):
        for fan in corpus.values():
            assert anticanonical(fan).coefficients == (1,) * fan.n_rays
