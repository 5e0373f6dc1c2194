"""The section module of the Euler extension: derivation, weighted Euler
contraction, generation transfer and the section-dimension bookkeeping."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cox.cox import effective_weight_form, monomial_basis
from toric_cox.errors import InhomogeneousInput
from toric_cox.euler import (
    EulerModuleElement,
    basis_element,
    build_euler_module,
    check_euler_identity,
    derivation,
    euler_contract,
    graded_generation_check,
    graded_piece_dim,
    induced_algebra_generators,
    monomials_of_weight_at_most,
    section_dimension_report,
)
from toric_cox.polyhedral import WeightForm


@pytest.fixture(scope="module")
def modules(corpus_cox):
    return {name: build_euler_module(cd) for name, cd in corpus_cox.items()}


class TestBuildEulerModule:
    def test_p2_splits_into_three_line_twists(self, modules):
        em = modules["p2"]
        assert em.rank == 3
        assert em.basis_degrees == ((1,), (1,), (1,))

    def test_hirzebruch_one_degrees(self, modules):
        assert modules["hirzebruch_1"].basis_degrees == (
            (1, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        )

    def test_p1(self, modules):
        em = modules["p1"]
        assert em.rank == 2 and em.basis_degrees == ((1,), (1,))

    def test_rank_and_anticanonical_sum(self, modules, corpus_cox):
        for name, em in modules.items():
            cd = corpus_cox[name]
            assert em.rank == cd.fan.dim + cd.cl_rank
            total = tuple(sum(col) for col in zip(*em.basis_degrees))
            assert total == cd.degree_map((1,) * cd.num_vars)


class TestGradedPieceDim:
    def test_p2_values(self, modules):
        em = modules["p2"]
        assert graded_piece_dim(em, (1,)) == 3
        assert graded_piece_dim(em, (0,)) == 0
        assert graded_piece_dim(em, (2,)) == 9

    def test_matches_summed_ring_pieces(self, modules, corpus_cox):
        em = modules["hirzebruch_1"]
        cd = corpus_cox["hirzebruch_1"]
        lam = (1, 1)
        expected = sum(
            len(monomial_basis(cd, tuple(a - b for a, b in zip(lam, d))))
            for d in em.basis_degrees
        )
        assert graded_piece_dim(em, lam) == expected == 5


class TestDerivation:
    def test_single_variable(self, modules, corpus_cox):
        em = modules["p2"]
        cd = corpus_cox["p2"]
        ds = derivation(em, cd.variable(0))
        assert ds.components[0] == cd.one()
        assert ds.components[1].is_zero() and ds.components[2].is_zero()

    def test_formal_partials(self, modules, corpus_cox):
        em = modules["p2"]
        cd = corpus_cox["p2"]
        ds = derivation(em, cd.monomial((1, 2, 0)))
        assert ds.components[0] == cd.monomial((0, 2, 0))
        assert ds.components[1] == cd.monomial((1, 1, 0), 2)
        assert ds.components[2].is_zero()

    def test_constants_map_to_zero(self, modules, corpus_cox):
        em = modules["p2"]
        assert derivation(em, corpus_cox["p2"].one()).is_zero()

    def test_rejects_inhomogeneous(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        with pytest.raises(InhomogeneousInput):
            derivation(modules["p2"], cd.one() + cd.variable(0))

    def test_degree_of_image(self, modules, corpus_cox):
        cd = corpus_cox["hirzebruch_1"]
        s = cd.monomial((0, 1, 0, 1))
        ds = derivation(modules["hirzebruch_1"], s)
        assert ds.degree == s.degree == (1, 2)

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_leibniz_rule(self, modules, corpus_cox, rng):
        cd = corpus_cox["hirzebruch_1"]
        em = modules["hirzebruch_1"]
        classes = sorted({cd.degree_of_exponent(e) for e in monomials_of_weight_at_most(cd, 3)})

        def random_homogeneous():
            lam = classes[rng.randrange(len(classes))]
            poly = cd.zero()
            for e in monomial_basis(cd, lam):
                poly = poly + cd.monomial(e, Fraction(rng.randint(-2, 2)))
            return poly

        s, t = random_homogeneous(), random_homogeneous()
        lhs = derivation(em, s * t)
        rhs = s * derivation(em, t) + t * derivation(em, s)
        assert lhs == rhs


class TestEulerContraction:
    def test_weighted_euler_identity_p2(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        em = modules["p2"]
        form = effective_weight_form(cd)
        s = cd.monomial((1, 2, 0))
        assert euler_contract(em, derivation(em, s), form) == 3 * s

    def test_basis_element_maps_to_weighted_variable(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        em = modules["p2"]
        form = effective_weight_form(cd)
        image = euler_contract(em, basis_element(em, 0), form)
        assert image == form(em.basis_degrees[0]) * cd.variable(0) == cd.variable(0)

    def test_hirzebruch_mixed_monomial(self, modules, corpus_cox):
        # the two variable weights sum to 3, matching the weight of the class
        cd = corpus_cox["hirzebruch_1"]
        em = modules["hirzebruch_1"]
        form = effective_weight_form(cd)
        s = cd.monomial((0, 1, 0, 1))
        assert form(s.degree) == 3
        assert euler_contract(em, derivation(em, s), form) == 3 * s

    def test_zero_element(self, modules, corpus_cox):
        form = effective_weight_form(corpus_cox["p2"])
        em = modules["p2"]
        zero = EulerModuleElement(em, tuple(em.cox.zero() for _ in range(em.rank)))
        assert euler_contract(em, zero, form).is_zero()

    def test_identity_exhaustively_small_weights(self, modules, corpus_cox):
        for name in ("p1", "p2", "p1xp1", "hirzebruch_1"):
            cd = corpus_cox[name]
            em = modules[name]
            form = effective_weight_form(cd)
            for e in monomials_of_weight_at_most(cd, 4):
                s = cd.monomial(e)
                image = euler_contract(em, derivation(em, s), form)
                assert image == form(cd.degree_of_exponent(e)) * s

    def test_identity_on_all_twenty_low_degree_monomials_of_p2(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        em = modules["p2"]
        form = effective_weight_form(cd)
        monomials = monomials_of_weight_at_most(cd, 3)
        assert len(monomials) == 20  # 1 + 3 + 6 + 10 monomials of degree <= 3
        for e in monomials:
            s = cd.monomial(e)
            degree = cd.degree_of_exponent(e)
            assert euler_contract(em, derivation(em, s), form) == sum(e) * s
            assert form(degree) == sum(e)

    def test_identity_factor_three_on_mixed_class(self, modules, corpus_cox):
        # the class (2,1) on the first Hirzebruch surface has weight 3
        cd = corpus_cox["hirzebruch_1"]
        em = modules["hirzebruch_1"]
        form = effective_weight_form(cd)
        basis = monomial_basis(cd, (2, 1))
        assert len(basis) == 5 and form((2, 1)) == 3
        for e in basis:
            s = cd.monomial(e)
            assert euler_contract(em, derivation(em, s), form) == 3 * s

    def test_image_has_zero_constant_term(self, modules, corpus_cox):
        for name in ("p2", "hirzebruch_2"):
            cd = corpus_cox[name]
            em = modules[name]
            form = effective_weight_form(cd)
            for e in monomials_of_weight_at_most(cd, 3):
                image = euler_contract(em, derivation(em, cd.monomial(e)), form)
                assert image.constant_term() == 0

    def test_report_runner(self, modules, corpus_cox):
        form = effective_weight_form(corpus_cox["p1xp1"])
        report = check_euler_identity(modules["p1xp1"], form, trials=30)
        assert report.ok and report.checked == 30

    def test_rejects_inhomogeneous_element(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        em = modules["p2"]
        form = effective_weight_form(cd)
        mixed = basis_element(em, 0) + cd.variable(0) * basis_element(em, 1)
        with pytest.raises(InhomogeneousInput):
            euler_contract(em, mixed, form)


class TestGenerationTransfer:
    def test_p2_variables(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        form = effective_weight_form(cd)
        images = induced_algebra_generators(modules["p2"], form)
        assert list(images) == [cd.variable(i) for i in range(3)]

    def test_hirzebruch_scalars(self, modules, corpus_cox):
        cd = corpus_cox["hirzebruch_1"]
        form = effective_weight_form(cd)
        images = induced_algebra_generators(modules["hirzebruch_1"], form)
        scalars = [form(d) for d in cd.variable_degrees()]
        assert scalars == [1, 1, 1, 2]
        assert list(images) == [s * cd.variable(i) for i, s in enumerate(scalars)]

    def test_p1(self, modules, corpus_cox):
        cd = corpus_cox["p1"]
        images = induced_algebra_generators(modules["p1"], effective_weight_form(cd))
        assert list(images) == [cd.variable(0), cd.variable(1)]

    def test_generates_up_to_weight_six(self, modules, corpus_cox):
        for name, em in modules.items():
            cd = corpus_cox[name]
            form = effective_weight_form(cd)
            induced_algebra_generators(em, form)
            weights = [form(d) for d in cd.variable_degrees()]
            variables = [
                tuple(1 if j == i else 0 for j in range(cd.num_vars))
                for i in range(cd.num_vars)
            ]
            assert graded_generation_check(weights, variables, 6), name


class TestGradedGenerationCheck:
    def test_two_variables(self):
        assert graded_generation_check([1, 1], [(1, 0), (0, 1)], 5)

    def test_missing_linear_generator(self):
        assert not graded_generation_check([1, 1], [(2, 0), (0, 1)], 3)

    def test_missing_variable(self):
        assert not graded_generation_check([1, 1], [(1, 0), (0, 2), (0, 3)], 6)

    def test_weighted_variables(self):
        assert graded_generation_check([1, 2], [(1, 0), (0, 1)], 6)
        assert not graded_generation_check([1, 2], [(1, 0), (2, 1)], 4)

    def test_rejects_weight_zero_candidate(self):
        with pytest.raises(ValueError):
            graded_generation_check([1, 1], [(0, 0)], 2)


class TestWeightFormFreedom:
    def test_conclusions_invariant_under_rescaled_form(self, modules, corpus_cox):
        # a second valid form changes contraction values by positive scalars
        # per variable but none of the qualitative conclusions
        cd = corpus_cox["hirzebruch_1"]
        em = modules["hirzebruch_1"]
        base = effective_weight_form(cd)
        doubled = WeightForm(tuple(2 * c for c in base.coefficients))
        for e in monomials_of_weight_at_most(cd, 3):
            if not any(e):
                continue
            s = cd.monomial(e)
            lam = cd.degree_of_exponent(e)
            for form in (base, doubled):
                image = euler_contract(em, derivation(em, s), form)
                assert image == form(lam) * s
                assert image.constant_term() == 0
                witness = image * Fraction(1, form(lam))
                assert witness == s
        for form in (base, doubled):
            weights = [form(d) for d in cd.variable_degrees()]
            variables = [
                tuple(1 if j == i else 0 for j in range(cd.num_vars))
                for i in range(cd.num_vars)
            ]
            assert graded_generation_check(weights, variables, 4)


class TestSectionDimensionReport:
    def test_p2_twists(self, modules):
        report = section_dimension_report(modules["p2"], window=[(0,), (1,), (2,)])
        by_class = {r.class_vector: r for r in report.records}
        assert report.rank_identity
        # no global differential forms
        assert by_class[(0,)].differential_sections == 0
        # classical Euler sequence bookkeeping: 3 = 0 + 3
        assert by_class[(1,)].module_dim == 3
        assert by_class[(1,)].differential_sections == 0
        assert by_class[(1,)].right_exact
        # twist by two: 9 = 3 + 6
        assert by_class[(2,)].differential_sections == 3

    def test_p1_twist_two(self, modules):
        report = section_dimension_report(modules["p1"], window=[(2,)])
        record = report.records[0]
        assert record.module_dim == 4
        assert record.ring_dim == 3
        assert record.differential_sections == 1  # sections of O(-2+2) = O

    def test_nonnegative_residuals_on_window(self, modules):
        for name in ("p1", "p2", "p1xp1", "hirzebruch_1"):
            report = section_dimension_report(modules[name])
            assert report.ok, name
            for record in report.records:
                assert record.module_dim == record.differential_sections + record.projection_rank

    def test_projection_not_always_surjective(self, modules):
        # the mixed class (1,0) on p1xp1 has a rank-two projection into a
        # four-dimensional target; the naive difference formula would go
        # negative here, the kernel computation stays correct
        report = section_dimension_report(modules["p1xp1"], window=[(1, 0)])
        record = report.records[0]
        assert record.module_dim == 2
        assert record.ring_dim == 2
        assert record.projection_rank == 2
        assert not record.right_exact
        assert record.differential_sections == 0

    def test_rank_four_grading_window(self, modules):
        import itertools

        window = list(itertools.product(range(-1, 2), repeat=4))
        report = section_dimension_report(modules["delpezzo6"], window=window)
        assert report.ok
        by_class = {r.class_vector: r for r in report.records}
        assert by_class[(0, 0, 0, 0)].differential_sections == 0
        # the anticanonical-like all-ones class
        assert by_class[(1, 1, 1, 1)].module_dim == (
            by_class[(1, 1, 1, 1)].differential_sections
            + by_class[(1, 1, 1, 1)].projection_rank
        )
