"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (integer or rational equality); the randomized
criteria use a fixed seed.  Windows follow the stated contract: class
coordinates up to 4 for the dual-oracle check, weight up to 6 for the
Euler-identity, surjectivity and generation checks, divisor coefficients
up to 2 for the round trip.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from toric_cox.cli import main
from toric_cox.corpus import corpus_path
from toric_cox.cox import (
    cox_data,
    effective_weight_form,
    graded_dimension,
    monomial_basis,
)
from toric_cox.errors import NotAmpleLift, NotSmooth
from toric_cox.euler import (
    basis_element,
    build_euler_module,
    derivation,
    euler_contract,
    graded_generation_check,
    monomials_of_weight_at_most,
)
from toric_cox.fans import (
    TorusInvariantDivisor,
    anticanonical,
    class_group,
    is_ample,
)
from toric_cox.lattice import IntegerMatrix, hermite_basis, kernel_basis
from toric_cox.reconstruction import (
    GradingInput,
    reconstruct_fan,
    roundtrip_check,
)

EULER_WEIGHT_BOUND = 6
ORACLE_RADIUS = 4
LEIBNIZ_PAIRS = 100


def report(criterion: int, label: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} ({label}): PASS")


def class_window(rank: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


def random_homogeneous(cd, rng, max_weight=3):
    pool = sorted(
        {cd.degree_of_exponent(e) for e in monomials_of_weight_at_most(cd, max_weight)}
    )
    lam = pool[rng.randrange(len(pool))]
    poly = cd.zero()
    for e in monomial_basis(cd, lam):
        poly = poly + cd.monomial(e, Fraction(rng.randint(-3, 3)))
    return poly


def test_criterion_01_class_group_exactness(corpus):
    for name, fan in corpus.items():
        presentation = class_group(fan)
        div = fan.ray_matrix()
        assert (presentation.projection @ div).is_zero(), name
        kernel = kernel_basis(presentation.projection)
        assert hermite_basis(kernel.columns(), fan.n_rays) == hermite_basis(
            div.columns(), fan.n_rays
        ), name
        assert not presentation.invariant_factors, name
        assert presentation.free_rank == fan.n_rays - fan.dim, name
    report(1, "exactness of the divisor sequence")


def test_criterion_02_dual_oracle_dimensions(corpus):
    for name, fan in corpus.items():
        cd = cox_data(fan)
        for lam in class_window(cd.cl_rank, ORACLE_RADIUS):
            graded_dimension(cd, lam)  # OracleMismatch on any disagreement
    cd = cox_data(corpus["p2"])
    for d in range(5):
        assert graded_dimension(cd, (d,)) == (d + 1) * (d + 2) // 2
    report(2, "dual-oracle graded dimensions")


def test_criterion_03_euler_identity(corpus):
    for name, fan in corpus.items():
        cd = cox_data(fan)
        em = build_euler_module(cd)
        form = effective_weight_form(cd)
        for e in monomials_of_weight_at_most(cd, EULER_WEIGHT_BOUND):
            s = cd.monomial(e)
            image = euler_contract(em, derivation(em, s), form)
            assert image == form(cd.degree_of_exponent(e)) * s, (name, e)
    report(3, "weighted Euler identity")


def test_criterion_04_leibniz_rule(corpus):
    rng = random.Random(41)
    for name, fan in corpus.items():
        cd = cox_data(fan)
        em = build_euler_module(cd)
        for _ in range(LEIBNIZ_PAIRS):
            s = random_homogeneous(cd, rng)
            t = random_homogeneous(cd, rng)
            assert derivation(em, s * t) == s * derivation(em, t) + t * derivation(em, s), name
    report(4, "Leibniz rule")


def test_criterion_05_contraction_image_and_surjectivity(corpus):
    for name, fan in corpus.items():
        cd = cox_data(fan)
        em = build_euler_module(cd)
        form = effective_weight_form(cd)
        for e in monomials_of_weight_at_most(cd, EULER_WEIGHT_BOUND):
            s = cd.monomial(e)
            image = euler_contract(em, derivation(em, s), form)
            assert image.constant_term() == 0, (name, e)
            if any(e):
                weight = form(cd.degree_of_exponent(e))
                preimage = derivation(em, s) * Fraction(1, weight)
                assert euler_contract(em, preimage, form) == s, (name, e)
    report(5, "contraction image and surjectivity witnesses")


def test_criterion_06_generation_transfer(corpus):
    for name, fan in corpus.items():
        cd = cox_data(fan)
        em = build_euler_module(cd)
        form = effective_weight_form(cd)
        images = [
            euler_contract(em, basis_element(em, i), form) for i in range(em.rank)
        ]
        for i, image in enumerate(images):
            assert image == form(em.basis_degrees[i]) * cd.variable(i), name
        weights = [form(d) for d in cd.variable_degrees()]
        variables = [
            tuple(1 if j == i else 0 for j in range(cd.num_vars))
            for i in range(cd.num_vars)
        ]
        assert graded_generation_check(weights, variables, EULER_WEIGHT_BOUND), name
    assert not graded_generation_check([1, 1], [(2, 0), (0, 1)], 3)
    report(6, "generation transfer")


def test_criterion_07_splitting_certificate(corpus):
    for name, fan in corpus.items():
        cd = cox_data(fan)
        em = build_euler_module(cd)
        assert em.rank == fan.n_rays == fan.dim + (fan.n_rays - fan.dim), name
        total = tuple(sum(col) for col in zip(*em.basis_degrees))
        assert total == cd.degree_of_exponent(anticanonical(fan).coefficients), name
    p2_degrees = sorted(build_euler_module(cox_data(corpus["p2"])).basis_degrees)
    assert p2_degrees == [(1,), (1,), (1,)]
    assert sum(d[0] for d in p2_degrees) == 3
    report(7, "splitting certificate")


def test_criterion_08_round_trip(corpus):
    for name, fan in corpus.items():
        cd = cox_data(fan)
        ample = 0
        for coeffs in itertools.product(range(3), repeat=fan.n_rays):
            divisor = TorusInvariantDivisor(coeffs)
            if is_ample(fan, divisor):
                ample += 1
                assert roundtrip_check(cd, divisor), (name, coeffs)
        assert ample > 0, name
    with pytest.raises(NotSmooth):
        reconstruct_fan(GradingInput(IntegerMatrix.from_rows([[1, 2]]), (1,)))
    with pytest.raises(NotAmpleLift):
        reconstruct_fan(
            GradingInput(IntegerMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]]), (1, 0))
        )
    report(8, "round trip and designated rejections")


# Criterion 09, the Cech cocycle identity and additivity, holds by construction
# (see verify._cech_check); its verify line is pinned by tests/test_golden.py.


def test_criterion_10_verify_determinism(capsys):
    path = str(corpus_path("p2"))
    assert main(["verify", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["status"] == {"ok": True}
    report(10, "byte-identical verification reports")
