"""End-to-end checks on randomly generated smooth complete surfaces.

Starting from the projective plane and repeatedly inserting the sum of two
adjacent rays (a unimodular star subdivision) keeps the fan smooth and
complete, giving a family well beyond the bundled corpus.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fan_strategies import NON_PROJECTIVE_THREEFOLD, smooth_projective_fans
from toric_cox import fans as fans_module
from toric_cox import polyhedral as polyhedral_module
from toric_cox import verify as verify_module
from toric_cox.cli import main
from toric_cox.corpus import SMOOTH_COMPLETE, load_fan
from toric_cox.cox import cox_data, effective_weight_form, graded_dimension
from toric_cox.euler import (
    build_euler_module,
    check_euler_identity,
    derivation,
    euler_contract,
    graded_generation_check,
    monomials_of_weight_at_most,
)
from toric_cox.fans import (
    Fan,
    TorusInvariantDivisor,
    anticanonical,
    class_group,
    fan_to_json,
    is_ample,
    validate_fan,
)
from toric_cox.lattice import IntegerMatrix, cokernel, hermite_basis, smith_normal_form, solve_integer
from toric_cox.polyhedral import (
    RationalCone,
    WeightForm,
    cone_contains,
    cone_from_generators,
    generators_from_inequalities,
)
from toric_cox.reconstruction import roundtrip_check
from toric_cox.verify import (
    CheckResult,
    _certificate_check,
    _first_ample_divisor,
    _nef_cone_divisor,
    _roundtrip_check,
    run_verification,
)


def blow_up(fan: Fan, cone_index: int) -> Fan:
    """Insert the primitive sum of a maximal cone's rays as a new ray."""
    cone = fan.max_cones[cone_index]
    new_ray = tuple(
        a + b for a, b in zip(fan.rays[cone[0]], fan.rays[cone[1]])
    )
    rays = fan.rays + (new_ray,)
    new_index = len(fan.rays)
    cones = [c for i, c in enumerate(fan.max_cones) if i != cone_index]
    cones.append((cone[0], new_index))
    cones.append((cone[1], new_index))
    return Fan.make(fan.dim, rays, cones)


def random_blowup_surface(rng: random.Random, steps: int) -> Fan:
    fan = Fan.make(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    for _ in range(steps):
        fan = blow_up(fan, rng.randrange(len(fan.max_cones)))
    return fan


def blown_up_plane(cones) -> Fan:
    """P^2 blown up at the maximal cones of the given indices, in turn."""
    fan = Fan.make(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    for index in cones:
        fan = blow_up(fan, index)
    return fan


@pytest.mark.parametrize("seed", range(6))
def test_blowup_surfaces_full_pipeline(seed):
    rng = random.Random(seed)
    fan = random_blowup_surface(rng, rng.randint(1, 3))
    report = validate_fan(fan)
    assert report.smooth and report.complete

    presentation = class_group(fan)
    assert not presentation.invariant_factors
    assert presentation.free_rank == fan.n_rays - 2

    cd = cox_data(fan)
    for lam in itertools.product(range(-1, 2), repeat=min(cd.cl_rank, 3)):
        padded = lam + (0,) * (cd.cl_rank - len(lam))
        graded_dimension(cd, padded)  # dual oracles must agree

    em = build_euler_module(cd)
    form = effective_weight_form(cd)
    for e in monomials_of_weight_at_most(cd, 2):
        s = cd.monomial(e)
        image = euler_contract(em, derivation(em, s), form)
        assert image == form(cd.degree_of_exponent(e)) * s

    assert em.rank == fan.n_rays
    total = tuple(sum(col) for col in zip(*em.basis_degrees))
    assert total == cd.degree_of_exponent(anticanonical(fan).coefficients)

    ample = _first_ample_divisor(fan, 4)
    if ample is not None:
        assert roundtrip_check(cd, ample)


@pytest.mark.parametrize(
    "cones, radius, total, nonzero",
    [
        # pinned from the Fraction-based section-polytope oracle it replaced
        ((0, 1, 2), 2, 407, 158),
        ((0, 1, 2, 3), 1, 116, 72),
        ((0, 1, 2, 3, 4), 1, 210, 138),  # rank 6: pinned from the largest-so-far fiber table
        ((0, 1, 2, 3, 4, 5), 1, 290, 258),  # rank 7: pinned from the two-pass cone canonicalisation
    ],
)
def test_graded_dimensions_pinned_on_blowups(cones, radius, total, nonzero):
    cd = cox_data(blown_up_plane(cones))
    assert cd.cl_rank == len(cones) + 1
    window = itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank)
    dims = [graded_dimension(cd, lam) for lam in window]
    assert (sum(dims), sum(1 for d in dims if d)) == (total, nonzero)


# Pinned from the two-pass cone canonicalisation, which tried all C(21, 7)
# subsets of the facet normals for the generators.
RANK_EIGHT_GENERATORS = (
    (-2, 3, -1, 1, -1, 2, 5, 1),
    (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0),
    (3, -5, 2, -2, 1, -3, -8, -1),
)
RANK_EIGHT_FACET_NORMALS = (
    (0, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 2),
    (0, 0, 1, 0, 1, 1, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 1, 0, 0),
    (0, 0, 3, 0, 0, 2, 0, 0),
    (0, 0, 3, 0, 2, 0, 1, 0),
    (0, 0, 4, 0, 0, 0, 1, 0),
    (0, 0, 5, 0, 0, 0, 1, 0),
    (0, 1, 2, 0, 1, 0, 0, 0),
    (0, 1, 3, 0, 0, 0, 0, 0),
    (0, 2, 5, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 2),
    (1, 0, 0, 0, 0, 0, 0, 3),
    (1, 0, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 1, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 0, 0, 0),
    (2, 0, 1, 0, 0, 0, 1, 0),
    (2, 1, 0, 0, 0, 0, 0, 1),
    (3, 0, 0, 0, 0, 0, 1, 1),
)


def test_rank_eight_effective_cone_pinned():
    cd = cox_data(blown_up_plane(range(7)))
    eff = cd.effective_cone
    assert cd.cl_rank == 8 and len(eff.facet_normals) == 21
    assert (eff.generators, eff.facet_normals) == (RANK_EIGHT_GENERATORS, RANK_EIGHT_FACET_NORMALS)
    assert cone_from_generators(eff.generators, 8) == eff
    assert cone_from_generators(eff.facet_normals, 8) == RationalCone(8, eff.facet_normals, eff.generators)


def test_single_blowup_matches_hirzebruch_one():
    fan = Fan.make(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    blown = blow_up(fan, 0)
    assert blown.rays == ((1, 0), (0, 1), (-1, -1), (1, 1))
    assert validate_fan(blown).smooth
    assert class_group(blown).projection.rows == 2


def test_roundtrip_accepts_negative_coefficient_ample_divisor(p2):
    divisor = TorusInvariantDivisor.make([-1, 2, 2])
    assert is_ample(p2, divisor)
    assert roundtrip_check(cox_data(p2), divisor)


def test_anticanonical_not_ample_after_many_blowups():
    # blowing up the same area repeatedly leaves non-convex anticanonical data
    fan = Fan.make(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    for _ in range(3):
        fan = blow_up(fan, 0)
    assert validate_fan(fan).smooth
    assert not is_ample(fan, anticanonical(fan))


def test_class_group_reports_torsion_on_singular_fan():
    fan = Fan.make(2, [[1, 2], [1, -2]], [[0], [1]])
    presentation = class_group(fan)
    assert presentation.free_rank == 0
    assert presentation.invariant_factors == (4,)
    image = presentation.projection.mat_vec(fan.ray_matrix().mat_vec((1, 0)))
    assert image[0] % 4 == 0


def test_smith_normal_form_at_scale():
    rng = random.Random(11)
    a = IntegerMatrix.from_rows(
        [[rng.randint(-30, 30) for _ in range(20)] for _ in range(20)]
    )
    u, d, v = smith_normal_form(a)
    assert (u @ a @ v).entries == d.entries
    diag = [d.entries[i][i] for i in range(20)]
    nonzero = [x for x in diag if x]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    pres = cokernel(a)
    assert pres.free_rank == 20 - len(nonzero)


# Smooth complete surfaces with no ample divisor whose coefficients lie in
# {0, 1, 2}: P^2 blown up four and five times, and the rank-4 surfaces the
# benchmark generator draws for seeds 0, 3 and 7 (seed 6 draws seed 0's).
BOX_WITHOUT_AMPLE = {
    "plane-4": blown_up_plane((0, 1, 2, 3)),
    "plane-5": blown_up_plane((0, 1, 2, 3, 4)),
    "seed-0": Fan.make(
        2,
        [[1, 0], [0, 1], [-1, -1], [-1, 0], [-2, -1], [-3, -2]],
        [[0, 1], [0, 2], [1, 3], [2, 5], [3, 4], [4, 5]],
    ),
    "seed-3": Fan.make(
        2,
        [[1, 0], [0, 1], [-1, -1], [0, -1], [1, -1], [1, -2]],
        [[0, 1], [0, 4], [1, 2], [2, 3], [3, 5], [4, 5]],
    ),
    "seed-7": Fan.make(
        2,
        [[1, 0], [0, 1], [-1, -1], [-1, 0], [-1, 1], [-1, 2]],
        [[0, 1], [0, 2], [1, 5], [2, 3], [3, 4], [4, 5]],
    ),
}


@pytest.mark.parametrize("name", sorted(BOX_WITHOUT_AMPLE))
def test_verify_passes_where_no_small_divisor_is_ample(capsys, tmp_path, name):
    fan = BOX_WITHOUT_AMPLE[name]
    assert _first_ample_divisor(fan) is None
    assert is_ample(fan, _nef_cone_divisor(fan))
    path = tmp_path / f"{name}.json"
    path.write_text(fan_to_json(fan))
    assert main(["verify", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def first_ample_by_scan(fan: Fan, max_coeff: int) -> TorusInvariantDivisor | None:
    """Reference: the first ample vector of the full scan of {0, ..., max_coeff}^n."""
    for coeffs in itertools.product(range(max_coeff + 1), repeat=fan.n_rays):
        if is_ample(fan, TorusInvariantDivisor(coeffs)):
            return TorusInvariantDivisor(coeffs)
    return None


# the corpus and every P^2 blown up three times (class-group rank 4)
SEARCH_FANS = (
    *(load_fan(name) for name in SMOOTH_COMPLETE),
    *(blown_up_plane(cones) for cones in itertools.product(range(3), range(4), range(5))),
)


@pytest.mark.parametrize("max_coeff", [1, 2])
def test_depth_first_search_picks_the_scan_divisor(max_coeff):
    found = [_first_ample_divisor(fan, max_coeff) for fan in SEARCH_FANS]
    assert found == [first_ample_by_scan(fan, max_coeff) for fan in SEARCH_FANS]
    assert None in found and any(found)


def test_the_certificate_line_reads_the_rank_of_every_fan(corpus_cox):
    # printed, not computed: the line names the number of rays, one twist each
    for name, cd in corpus_cox.items():
        assert _certificate_check(cd) == CheckResult(
            "splitting certificate",
            True,
            f"rank {cd.fan.n_rays}; twist classes sum to the anticanonical class: True",
        ), name


def test_empty_nef_interior_is_reported(monkeypatch):
    fan = BOX_WITHOUT_AMPLE["seed-3"]
    monkeypatch.setattr(verify_module, "_nef_cone_divisor", lambda f: anticanonical(f))
    result = _roundtrip_check(cox_data(fan))
    assert (result.passed, result.detail) == (True, "not applicable: complete but not projective")


def test_verify_passes_on_a_non_projective_threefold(capsys, tmp_path):
    fan = NON_PROJECTIVE_THREEFOLD
    report = validate_fan(fan)
    assert report.smooth and report.complete
    nef = generators_from_inequalities(report.wall_forms, fan.n_rays)
    assert len(hermite_basis(nef, fan.n_rays)) < fan.n_rays and not is_ample(fan, _nef_cone_divisor(fan))
    path = tmp_path / "threefold.json"
    path.write_text(fan_to_json(fan))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  round trip                          pass: not applicable: complete but not projective\n" in out
    assert "FAIL" not in out


def blown_up_p3(points: int, seed: int) -> Fan:
    """P^3 blown up at ``points`` torus-fixed points: each step replaces a
    maximal cone drawn by the seeded rng with its star subdivision at the sum
    of its rays."""
    rng = random.Random(seed)
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for _ in range(points):
        a, b, c = cones.pop(rng.randrange(len(cones)))
        rays.append(tuple(map(sum, zip(rays[a], rays[b], rays[c]))))
        new = len(rays) - 1
        cones += [(a, b, new), (a, c, new), (b, c, new)]
    return Fan.make(3, rays, cones)


def test_nef_cone_round_trip_on_p3_blown_up_at_eight_points():
    # 12 rays and 30 walls, with neither the anticanonical divisor nor any
    # divisor of {0, 1, 2}^12 ample.  The divisor was pinned when the nef
    # cone took a subset enumeration on its dual side (96 s).
    fan = blown_up_p3(8, 0)
    assert len(validate_fan(fan).wall_forms) == 30
    assert not is_ample(fan, anticanonical(fan)) and _first_ample_divisor(fan) is None
    cd = cox_data(fan)
    start = time.process_time()
    result = _roundtrip_check(cd)
    elapsed = time.process_time() - start
    assert result.passed and result.detail == (
        "rebuilt from grading with divisor "
        "[32875, 6735, -6700, 36338, 20684, 7735, 6401, 1819, 1026, 15264, -1978, 149]: True"
    )
    assert elapsed < 1.0


def test_nef_cone_divisor_reads_the_generators_alone(monkeypatch):
    # 16 rays and 42 walls: the nef cone has 145 generators, and inserting
    # them back for its 17 facet normals took 0.9 s.  The divisor was
    # pinned when it was read off the whole cone.
    fan = blown_up_p3(12, 0)
    assert len(validate_fan(fan).wall_forms) == 42
    calls = []
    original = polyhedral_module._dual_generators
    monkeypatch.setattr(polyhedral_module, "_dual_generators", lambda *args: calls.append(1) or original(*args))
    start = time.process_time()
    divisor = _nef_cone_divisor(fan)
    elapsed = time.process_time() - start
    assert divisor.coefficients == (
        26867185, 5623590, -2662004, 12217847, 12187840, 12827274, 4195985, 14730903,
        -2231116, 17899732, -4648094, 24362159, -12562546, 37826474, -19015105, 22810744,
    )
    assert len(calls) == 1 and elapsed < 0.3


# The benchmark's rank-8 surface, mixed_blowup(0, 8, 0) of bench/gen.py.
MIXED_RANK_EIGHT = Fan.make(
    2,
    [[0, 1], [-1, -1], [1, 0], [-1, 0], [1, 1], [-2, -1], [1, 2], [2, 3], [3, 4], [2, 1]],
    [[0, 3], [0, 6], [1, 2], [1, 5], [2, 9], [3, 5], [4, 8], [4, 9], [6, 7], [7, 8]],
)


def test_rank_eight_effective_cone_from_its_facet_normals():
    # 17 facet normals in dimension 8: the subset enumeration this replaced
    # tried C(17, 7) = 19,448 subsets and took 6 s
    eff = cox_data(MIXED_RANK_EIGHT).effective_cone
    assert (len(eff.generators), len(eff.facet_normals)) == (10, 17)
    start = time.process_time()
    assert cone_from_generators(eff.facet_normals, 8) == RationalCone(8, eff.facet_normals, eff.generators)
    assert time.process_time() - start < 0.5


# (P^1)^3: rays +-e_i, one maximal cone per choice of sign in each coordinate.
P1_CUBED = Fan.make(
    3,
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)
P3 = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], itertools.combinations(range(4), 3))
# P^2 x P^2: one maximal cone per pair of cones of the two factors.
P2_SQUARED = Fan.make(
    4,
    [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1]],
    [a + b for a in itertools.combinations(range(3), 2) for b in itertools.combinations(range(3, 6), 2)],
)


@pytest.mark.parametrize(
    "fan, walls",
    [(load_fan("delpezzo6"), 6), (P3, 6), (P1_CUBED, 12), (P2_SQUARED, 18)],
    ids=["delpezzo6", "P3", "P1_cubed", "P2_squared"],
)
def test_one_wall_form_per_wall(fan, walls):
    forms = validate_fan(fan).wall_forms
    assert len(forms) == walls == len(fan.max_cones) * fan.dim // 2
    # each form, dense over the rays, is the relation of its wall (s, t) read
    # from the side of s: with rho the ray of t outside s, it is 1 at rho,
    # lives on s and rho, and is positive on the ray of s outside t
    for (s, t), form in zip(fans_module._walls(fan), forms):
        (rho,) = set(fan.max_cones[t]) - set(fan.max_cones[s])
        (out,) = set(fan.max_cones[s]) - set(fan.max_cones[t])
        assert len(form) == fan.n_rays
        assert all(sum(c * ray[k] for c, ray in zip(form, fan.rays)) == 0 for k in range(fan.dim))
        assert form[rho] == 1
        assert {i for i, c in enumerate(form) if c} <= {*fan.max_cones[s], rho}
        assert form[out] > 0


def cone_characters(fan: Fan, divisor: TorusInvariantDivisor) -> list:
    """Per maximal cone s, a Smith solve m_s of <m_s, v_ray> = -a_ray on the rays of s."""
    return [
        solve_integer(IntegerMatrix.from_rows(fan.cone_rays(cone)), [-divisor.coefficients[i] for i in cone])
        for cone in fan.max_cones
    ]


def ample_by_cones(fan: Fan, divisor: TorusInvariantDivisor) -> bool:
    """Reference: <m_s, v_rho> > -a_rho for each maximal cone s and each ray rho outside s."""
    characters = cone_characters(fan, divisor)
    return all(
        sum(m * v for m, v in zip(characters[k], fan.rays[rho])) > -divisor.coefficients[rho]
        for k, cone in enumerate(fan.max_cones)
        for rho in range(fan.n_rays)
        if rho not in cone
    )


AMPLENESS_FANS = (
    *(load_fan(name) for name in SMOOTH_COMPLETE),
    *BOX_WITHOUT_AMPLE.values(),
    *(blown_up_plane(cones) for cones in ((0, 0, 0), (2, 3, 1, 5))),
    P3,
    P2_SQUARED,
    P1_CUBED,
)


@settings(max_examples=100, deadline=None)
@given(fan=st.sampled_from(AMPLENESS_FANS), data=st.data())
def test_wall_forms_decide_ampleness(fan, data):
    # combinations of the nef cone's generators, on its boundary and off
    # it, plus a small perturbation that is often zero; and a plain draw
    generators = generators_from_inequalities(validate_fan(fan).wall_forms, fan.n_rays)
    weights = data.draw(st.lists(st.integers(-1, 2), min_size=len(generators), max_size=len(generators)))
    noise = data.draw(st.lists(st.sampled_from([0, 0, 0, -1, 1]), min_size=fan.n_rays, max_size=fan.n_rays))
    combination = [sum(w * g[i] for w, g in zip(weights, generators)) + noise[i] for i in range(fan.n_rays)]
    plain = data.draw(st.lists(st.integers(-3, 4), min_size=fan.n_rays, max_size=fan.n_rays))
    for coefficients in (combination, plain):
        divisor = TorusInvariantDivisor.make(coefficients)
        assert is_ample(fan, divisor) == ample_by_cones(fan, divisor)


@settings(max_examples=60, deadline=None)
@given(fan=st.sampled_from(AMPLENESS_FANS), data=st.data())
def test_cone_characters_solve_the_local_equations(fan, data):
    # the reference's characters: <m_s, v> = -a_v on the rays of s, so on a
    # ray v shared by s and t the transition m_s - m_t pairs to zero
    coefficients = data.draw(st.lists(st.integers(-9, 9), min_size=fan.n_rays, max_size=fan.n_rays))
    characters = cone_characters(fan, TorusInvariantDivisor.make(coefficients))
    for cone, m in zip(fan.max_cones, characters):
        assert [sum(a * b for a, b in zip(m, fan.rays[i])) for i in cone] == [-coefficients[i] for i in cone]
    for (s, m_s), (t, m_t) in itertools.combinations(zip(fan.max_cones, characters), 2):
        for i in set(s) & set(t):
            assert sum((a - b) * v for a, b, v in zip(m_s, m_t, fan.rays[i])) == 0, (s, t, i)


def test_verify_identity_checks_reach_the_lightest_variable():
    # P^2 blown up seven times: every variable weighs at least 5, above the
    # default bound of 4, at which only the constant monomial was checked
    fan = Fan.make(
        2,
        [[1, 0], [0, 1], [-1, -1], [-1, 0], [1, 1], [1, 2], [-2, -1], [2, 3], [-3, -2], [0, -1]],
        [[0, 4], [0, 9], [1, 3], [1, 5], [2, 8], [2, 9], [3, 6], [4, 7], [5, 7], [6, 8]],
    )
    results = {r.name: r for r in run_verification(fan, window_radius=0)}
    assert results["euler identity"].detail == "3 monomials of weight <= 5; failures: 0"
    assert results["graded generation"].detail == (
        "candidates span all weighted pieces up to weight 5: True"
    )
    assert all(r.passed for r in results.values())


def test_verify_counts_a_wrong_contraction_on_both_euler_lines(monkeypatch):
    # twice the contraction breaks the identity at every nonconstant monomial,
    # and with it the witness image / w(lam), which no longer recovers s
    monkeypatch.setattr(verify_module, "euler_contract", lambda em, ds, form: 2 * euler_contract(em, ds, form))
    results = {r.name: r for r in run_verification(load_fan("p2"), window_radius=0)}
    assert results["euler identity"].detail == "35 monomials of weight <= 4; failures: 34"
    assert results["contraction image and surjectivity"].detail == (
        "constant terms vanish and witnesses recover monomials; failures: 34"
    )
    assert [r.name for r in results.values() if not r.passed] == [
        "euler identity", "contraction image and surjectivity"
    ]


def test_verify_counts_a_constant_term_on_the_contraction_line(monkeypatch):
    # only the constant monomial's image is zero, so only it gains a constant
    def with_constant(em, ds, form):
        image = euler_contract(em, ds, form)
        return image if image.terms else image + em.cox.one()

    monkeypatch.setattr(verify_module, "euler_contract", with_constant)
    results = {r.name: r for r in run_verification(load_fan("p2"), window_radius=0)}
    assert results["euler identity"].detail == "35 monomials of weight <= 4; failures: 1"
    assert results["contraction image and surjectivity"].detail == (
        "constant terms vanish and witnesses recover monomials; failures: 1"
    )
    assert [r.name for r in results.values() if not r.passed] == [
        "euler identity", "contraction image and surjectivity"
    ]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IntegerMatrix.from_rows([[1, 2]]) @ IntegerMatrix.from_rows([[1, 2]]),
         "dimension mismatch in matrix product"),
        (lambda: hermite_basis([(1, 2), (1,)], 2), "row width mismatch"),
        (lambda: solve_integer(IntegerMatrix.from_rows([[1, 1]]), (1, 2)), "right-hand side has the wrong length"),
        (lambda: WeightForm((1, 1))((1,)), "length mismatch"),
        (lambda: graded_generation_check((1, 0), [], 1), "variable weights must be positive"),
        (lambda: graded_generation_check((1, 1), [(1,)], 1), "candidate exponent length mismatch"),
        (lambda: cone_contains([(1,)], 1, (1,), "interior"), "unknown mode 'interior'"),
    ],
    ids=["matmul", "hermite-row-width", "solve-rhs-length", "weight-form-length",
         "generation-weight", "generation-length", "cone-contains-mode"],
)
def test_a_wrong_shape_or_weight_from_outside_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@settings(max_examples=30, deadline=None)
@given(smooth_projective_fans())
def test_smooth_projective_fans_pass_every_check(fan):
    # the facts that let cox_data, reconstruction and verify skip their own checks
    presentation = class_group(fan)
    assert not presentation.invariant_factors and presentation.free_rank == fan.n_rays - fan.dim
    results = run_verification(fan, window_radius=1)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    cd = cox_data(fan)
    assert check_euler_identity(build_euler_module(cd), cd.weight_form).ok
