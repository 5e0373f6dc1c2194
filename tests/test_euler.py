"""The section module of the Euler extension: derivation, weighted Euler
contraction, generation transfer and the section-dimension bookkeeping."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cox import cox as cox_module
from toric_cox import euler as euler_module
from toric_cox.corpus import SMOOTH_COMPLETE, load_fan
from toric_cox.cox import (
    CoxData,
    GradedPolynomial,
    _exponents_up_to_weight,
    cox_data,
    effective_weight_form,
    make_polynomial,
    monomial_basis,
)
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
from toric_cox.lattice import IntegerMatrix
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
            assert total == cd.degree_of_exponent((1,) * cd.num_vars)


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

    def test_fiber_tables_are_built_once_at_the_widest_class(self, monkeypatch):
        # (3, 3, 3, 3) minus the basis degrees reaches radius 3 first and 4
        # later, so queries in basis order would rebuild the tables at each
        em = build_euler_module(cox_data(load_fan("delpezzo6")))
        real = cox_module._fiber_tables
        radii = []
        monkeypatch.setattr(cox_module, "_fiber_tables", lambda cd, r: radii.append(r) or real(cd, r))
        assert graded_piece_dim(em, (3, 3, 3, 3)) == 78
        assert radii == [0, 4]

    def test_a_wide_shifted_class_outside_the_effective_cone_sets_no_reach(self, monkeypatch):
        # on F_3, (2, 0) minus the basis degrees is (1, 0), (2, -1), (1, 0), (-1, -1):
        # the widest, (2, -1), has weight 1 but no monomial, so it is answered 0
        # and the tables are built at the reach of (1, 0)
        em = build_euler_module(cox_data(load_fan("hirzebruch_3")))
        real = cox_module._fiber_tables
        radii = []
        monkeypatch.setattr(cox_module, "_fiber_tables", lambda cd, r: radii.append(r) or real(cd, r))
        assert graded_piece_dim(em, (2, 0)) == 4
        assert radii == [0, 1] and em.cox._fiber[0] == 1

    def test_a_piece_whose_shifted_classes_all_have_negative_weight_builds_no_table(self, monkeypatch):
        # each (0,) - (1,) on P^2 is answered 0 off its weight, before the tables are read
        em = build_euler_module(cox_data(load_fan("p2")))
        monkeypatch.setattr(cox_module, "_fiber_tables", lambda cd, r: pytest.fail("fiber tables built"))
        assert graded_piece_dim(em, (0,)) == 0

    @pytest.mark.parametrize("name", SMOOTH_COMPLETE)
    def test_widened_tables_answer_every_shifted_class_without_a_rebuild(self, name, corpus_cox, monkeypatch):
        # twice the anticanonical class: each lam - d_i is queried once the
        # tables are wide enough for all, and counts its monomials
        em = build_euler_module(cox_data(load_fan(name)))
        lam = tuple(2 * x for x in em.cox.degree_of_exponent((1,) * em.cox.num_vars))
        expected = sum(
            len(monomial_basis(corpus_cox[name], tuple(a - b for a, b in zip(lam, d)))) for d in em.basis_degrees
        )
        real = cox_module._fiber_tables
        radii = []
        monkeypatch.setattr(cox_module, "_fiber_tables", lambda cd, r: radii.append(r) or real(cd, r))
        assert graded_piece_dim(em, lam) == expected
        assert len(radii) <= 2, radii


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

    def test_rejects_a_polynomial_of_another_ring(self, modules, corpus_cox):
        # a P^1 x P^1 polynomial must not come back as a 3-component element over P^2
        s = corpus_cox["p1xp1"].monomial((1, 0, 1, 0))
        with pytest.raises(ValueError, match="another Cox ring"):
            derivation(modules["p2"], s)
        with pytest.raises(ValueError, match="another Cox ring"):
            derivation(modules["p2"], s + corpus_cox["p1xp1"].monomial((0, 1, 0, 1)))

    def test_constants_map_to_zero(self, modules, corpus_cox):
        em = modules["p2"]
        assert derivation(em, corpus_cox["p2"].one()).is_zero()

    def test_rejects_inhomogeneous(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        with pytest.raises(InhomogeneousInput):
            derivation(modules["p2"], cd.one() + cd.variable(0))

    def test_rejects_two_terms_of_different_classes(self, modules, corpus_cox):
        # x0 + x0*x1 on P^2 blown up once: one term per class, two classes
        cd = corpus_cox["hirzebruch_1"]
        s = cd.variable(0) + cd.monomial((1, 1, 0, 0))
        assert len(s.terms) == 2
        with pytest.raises(InhomogeneousInput):
            derivation(modules["hirzebruch_1"], s)

    def test_elements_compare_by_value_and_are_unhashable(self, modules, corpus_cox):
        em, cd = modules["p2"], corpus_cox["p2"]
        s = cd.monomial((1, 2, 0))
        assert derivation(em, s) == derivation(em, cd.monomial((1, 2, 0)))
        assert derivation(em, s) != derivation(em, cd.monomial((2, 1, 0)))
        assert basis_element(em, 0) == EulerModuleElement(em, (cd.one(), cd.zero(), cd.zero()))
        assert basis_element(em, 0) == EulerModuleElement(em, [cd.one(), cd.zero(), cd.zero()])
        with pytest.raises(TypeError):
            hash(derivation(em, s))

    def test_adding_a_number_is_a_type_error(self, modules, corpus_cox):
        element = derivation(modules["p2"], corpus_cox["p2"].monomial((1, 2, 0)))
        for bad in (lambda: element + 1, lambda: element - 1, lambda: element + corpus_cox["p2"].one()):
            with pytest.raises(TypeError):
                bad()

    def test_subtracting_a_number_names_the_minus(self, modules, corpus_cox):
        element = derivation(modules["p2"], corpus_cox["p2"].monomial((1, 2, 0)))
        with pytest.raises(TypeError, match=r"for -: 'EulerModuleElement' and 'int'$"):
            element - 1

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


class TestSparseElements:
    """An element stores only its nonzero terms, so no zero component is left
    to raise on another module, another ring or a bad factor."""

    @pytest.mark.parametrize("index", [-1, 3])
    def test_basis_element_rejects_an_index_out_of_range(self, modules, index):
        # -1 is not read from the end, and 3 gets the message too
        with pytest.raises(IndexError, match=f"^basis index {index} out of range for rank 3$"):
            basis_element(modules["p2"], index)

    def test_sums_and_differences_check_the_module(self, modules):
        # nonzero at index 0 on P^2 and at index 1 on P^1 x P^1: no pair of components meets
        a, b = basis_element(modules["p2"], 0), basis_element(modules["p1xp1"], 1)
        for bad in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
            with pytest.raises(ValueError):
                bad()

    def test_a_zero_element_checks_its_factor(self, modules, corpus_cox):
        zero = 0 * basis_element(modules["p2"], 0)
        assert zero.is_zero()
        with pytest.raises(ValueError):
            zero * corpus_cox["p1xp1"].variable(0)
        for bad in (lambda: zero * 1.5, lambda: 1.5 * zero):
            with pytest.raises(TypeError):
                bad()

    def test_a_product_of_two_elements_is_a_type_error(self, modules):
        b0 = basis_element(modules["p2"], 0)
        with pytest.raises(TypeError, match=r"for \*: 'EulerModuleElement' and 'EulerModuleElement'$"):
            b0 * b0

    def test_a_sum_that_cancels_is_the_zero_element(self, modules, corpus_cox):
        em, cd = modules["p2"], corpus_cox["p2"]
        zeros = EulerModuleElement(em, [cd.zero()] * 3)
        ds = derivation(em, cd.monomial((1, 2, 0)))
        b0, b1 = basis_element(em, 0), basis_element(em, 1)
        for cancelled in (ds - ds, ds + (-1) * ds, b1 + (-1) * b1):
            assert cancelled == zeros and cancelled.is_zero()
            assert cancelled.components == (cd.zero(),) * 3
        assert (b0 + b1) - b1 == b0 and (b0 + b1) - b1 != b0 + b1


def reference_contract(em, element, form):
    """The contraction that tests homogeneity component by component first."""
    if not element.is_homogeneous():
        raise InhomogeneousInput("contraction requires a homogeneous element")
    total = {}
    for i, (component, degree) in enumerate(zip(element.components, em.basis_degrees)):
        for e, c in component.terms.items():
            raised = e[:i] + (e[i] + 1,) + e[i + 1:]
            total[raised] = total.get(raised, 0) + form(degree) * c
    return GradedPolynomial(em.cox, total)


def reference_samples(cd, trials, max_weight, rng):
    """The spot check's random polynomials, each class's monomials listed by monomial_basis."""
    bound = max(max_weight, min(cd.variable_weights))
    pool = [e for e in monomials_of_weight_at_most(cd, bound) if any(e)]
    classes = sorted({cd.degree_of_exponent(e) for e in pool})
    samples = []
    for _ in range(trials):
        lam = classes[rng.randrange(len(classes))]
        samples.append({e: rng.randint(-3, 3) for e in monomial_basis(cd, lam)})
    return samples


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

    def test_own_form_reads_the_cached_weights(self, modules, corpus_cox, monkeypatch):
        # the fan's own form is never called; an equal copy of it takes the
        # general path, one call per nonzero component, and gives the same image
        cd = corpus_cox["hirzebruch_1"]
        em = modules["hirzebruch_1"]
        assert min(cd.variable_weights) >= 1  # cached before calls are counted
        copy = WeightForm(cd.weight_form.coefficients)
        real = WeightForm.__call__
        calls = []
        monkeypatch.setattr(WeightForm, "__call__", lambda form, v: calls.append(form) or real(form, v))
        for e in monomials_of_weight_at_most(cd, 4):
            element = derivation(em, cd.monomial(e))
            own = euler_contract(em, element, cd.weight_form)
            assert calls == []
            assert euler_contract(em, element, copy) == own
            assert len(calls) == sum(not c.is_zero() for c in element.components)
            calls.clear()

    def test_rejects_an_element_of_another_module(self, modules, corpus_cox):
        # a P^1 x P^1 element must not come back as a P^2 polynomial with a
        # four-entry exponent, nor a P^2 element lose its last component
        s = corpus_cox["p1xp1"].monomial((1, 2, 0, 1))
        t = corpus_cox["p2"].monomial((1, 2, 0))
        for em, element in ((modules["p2"], derivation(modules["p1xp1"], s)),
                            (modules["p1xp1"], derivation(modules["p2"], t))):
            with pytest.raises(ValueError, match="another Euler module"):
                euler_contract(em, element, effective_weight_form(em.cox))

    def test_the_constructor_rejects_components_of_another_ring(self, modules, corpus_cox):
        # unchecked, P^1 x P^1 components on P^2 contracted to a polynomial
        # with the four-entry exponent (2, 0, 0, 0)
        em, other = modules["p2"], corpus_cox["p1xp1"]
        x = other.variable(0)
        for components in ((x, other.zero(), other.zero()), (em.cox.one(), em.cox.zero(), 1)):
            with pytest.raises(ValueError, match="not a polynomial of the module's Cox ring"):
                EulerModuleElement(em, components)

    def test_the_constructor_rejects_the_wrong_number_of_components(self, modules, corpus_cox):
        # unchecked, two components on P^2 contracted as if the third were zero
        em = modules["p2"]
        x = corpus_cox["p2"].variable(0)
        for components in ((x, x), (x, x, x, x), ()):
            with pytest.raises(ValueError, match=f"^{len(components)} components for a module of rank 3$"):
                EulerModuleElement(em, components)

    def test_an_equal_module_built_again_is_the_same_module(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        again = build_euler_module(cox_data(load_fan("p2")))
        assert again is not modules["p2"] and again == modules["p2"]
        s = cd.monomial((1, 2, 0))
        assert euler_contract(again, derivation(modules["p2"], s), cd.weight_form) == 3 * s

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

    def test_bound_below_every_variable_weight(self, modules, corpus_cox):
        # no nonconstant monomial has weight 0, so the classes come from the
        # lightest variables instead
        form = effective_weight_form(corpus_cox["p2"])
        report = check_euler_identity(modules["p2"], form, trials=5, max_weight=0)
        assert report.ok and report.checked == 5

    def test_rejects_inhomogeneous_element(self, modules, corpus_cox):
        cd = corpus_cox["p2"]
        em = modules["p2"]
        form = effective_weight_form(cd)
        mixed = basis_element(em, 0) + cd.variable(0) * basis_element(em, 1)
        with pytest.raises(InhomogeneousInput):
            euler_contract(em, mixed, form)

    def test_terms_that_cancel_still_count_for_homogeneity(self, modules, corpus_cox):
        # x1 e0 - x0 e1 contracts to x0 x1 - x0 x1 = 0, but its twist 2 differs
        # from the twist 1 of e0, so the element is not homogeneous
        cd = corpus_cox["p2"]
        em = modules["p2"]
        form = effective_weight_form(cd)
        cancelling = cd.variable(1) * basis_element(em, 0) - cd.variable(0) * basis_element(em, 1)
        assert euler_contract(em, cancelling, form).is_zero()
        with pytest.raises(InhomogeneousInput):
            euler_contract(em, cancelling + basis_element(em, 0), form)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_homogeneity_on_products_matches_the_componentwise_rule(
        self, modules, corpus_cox, data
    ):
        name = data.draw(st.sampled_from(sorted(corpus_cox)))
        cd = corpus_cox[name]
        em = modules[name]
        form = effective_weight_form(cd)
        pool = monomials_of_weight_at_most(cd, 3)
        summands = data.draw(st.integers(0, 4))
        element = EulerModuleElement(em, tuple(cd.zero() for _ in range(em.rank)))
        if data.draw(st.booleans()):
            # homogeneous: every summand x^e b_i with x_i x^e of the class of f
            f = data.draw(st.sampled_from([e for e in pool if any(e)]))
            lam = cd.degree_of_exponent(f)
            for _ in range(summands):
                i = data.draw(st.sampled_from([i for i, a in enumerate(f) if a]))
                shifted = tuple(a - b for a, b in zip(lam, em.basis_degrees[i]))
                e = data.draw(st.sampled_from(monomial_basis(cd, shifted)))
                c = data.draw(st.integers(-2, 2))
                element = element + cd.monomial(e, c) * basis_element(em, i)
        else:
            for _ in range(summands):
                i = data.draw(st.integers(0, em.rank - 1))
                e = data.draw(st.sampled_from(pool))
                c = data.draw(st.integers(-2, 2))
                element = element + cd.monomial(e, c) * basis_element(em, i)
        if element.is_homogeneous():
            assert euler_contract(em, element, form) == reference_contract(em, element, form)
        else:
            with pytest.raises(InhomogeneousInput):
                euler_contract(em, element, form)


COEFFICIENTS = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)


def _pool(cd):
    return monomials_of_weight_at_most(cd, 3)


def _homogeneous(data, cd):
    """Some monomials of one class, with int or Fraction coefficients (possibly all 0)."""
    lam = cd.degree_of_exponent(data.draw(st.sampled_from(_pool(cd))))
    chosen = data.draw(st.lists(st.sampled_from(monomial_basis(cd, lam)), min_size=1, max_size=4))
    return make_polynomial(cd, {e: data.draw(COEFFICIENTS) for e in chosen})


def _any_polynomial(data, cd):
    """A sum of up to four monomials of the pool, homogeneous or not."""
    chosen = data.draw(st.lists(st.sampled_from(_pool(cd)), max_size=4))
    return make_polynomial(cd, {e: data.draw(COEFFICIENTS) for e in chosen})


def _element(data, em, depth=2):
    """An element built by one of the ways the package and its callers build them."""
    cd = em.cox
    kinds = ["derivation", "direct"] + (["scalar", "sum", "product"] if depth else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "derivation":
        return derivation(em, _homogeneous(data, cd))
    if kind == "direct":
        if data.draw(st.booleans()):
            return EulerModuleElement(em, tuple(_any_polynomial(data, cd) for _ in range(em.rank)))
        # homogeneous by construction: component i from the monomials of class twist - deg x_i
        twist = cd.degree_of_exponent(data.draw(st.sampled_from(_pool(cd))))
        components = []
        for degree in em.basis_degrees:
            basis = monomial_basis(cd, tuple(a - b for a, b in zip(twist, degree)))
            chosen = data.draw(st.lists(st.sampled_from(basis), max_size=3)) if basis else []
            components.append(make_polynomial(cd, {e: data.draw(COEFFICIENTS) for e in chosen}))
        return EulerModuleElement(em, tuple(components))
    inner = _element(data, em, depth - 1)
    if kind == "scalar":
        factor = data.draw(st.sampled_from([0, Fraction(0)]) | COEFFICIENTS)
        return factor * inner if data.draw(st.booleans()) else inner * factor
    if kind == "sum":
        other = _element(data, em, depth - 1)
        return inner + other if data.draw(st.booleans()) else inner - other
    f = _homogeneous(data, cd) if data.draw(st.booleans()) else _any_polynomial(data, cd)
    return f * inner if data.draw(st.booleans()) else inner * f


def _count_classes(monkeypatch, cd):
    """Count the calls of ``cd.degree_of_exponent`` from now on."""
    calls = []
    original = cd.degree_of_exponent

    def counted(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(cd, "degree_of_exponent", counted)
    return calls


class TestClassLookups:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_derivation_raises_exactly_on_two_classes(self, modules, corpus_cox, name, data):
        cd, em = corpus_cox[name], modules[name]
        s = _homogeneous(data, cd) if data.draw(st.booleans()) else _any_polynomial(data, cd)
        if len({cd.degree_of_exponent(e) for e in s.terms}) > 1:
            with pytest.raises(InhomogeneousInput):
                derivation(em, s)
            return
        ds = derivation(em, s)
        # the derivation lies in the twist of the class of s
        assert ds.is_zero() or ds.degree == s.degree

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_contraction_matches_the_reference_on_every_kind_of_element(
        self, modules, corpus_cox, name, data
    ):
        cd, em = corpus_cox[name], modules[name]
        form = effective_weight_form(cd)
        element = _element(data, em)
        if element.is_homogeneous():
            assert euler_contract(em, element, form) == reference_contract(em, element, form)
        else:
            with pytest.raises(InhomogeneousInput):
                euler_contract(em, element, form)

    def test_sums_and_polynomial_products_are_checked_in_full(self, modules, corpus_cox):
        cd, em = corpus_cox["hirzebruch_1"], modules["hirzebruch_1"]
        form = effective_weight_form(cd)
        x = [cd.variable(i) for i in range(cd.num_vars)]
        # x0 + x2 has class (1, 0) and x1 x2 + x3 has class (1, 1)
        ds, dt = derivation(em, x[0] + x[2]), derivation(em, x[1] * x[2] + x[3])
        for mixed in (ds + dt, ds - dt, ds * (cd.one() + x[0])):
            assert not mixed.is_homogeneous()
            with pytest.raises(InhomogeneousInput):
                euler_contract(em, mixed, form)
        for unknown in (x[1] * ds, ds + ds, EulerModuleElement(em, ds.components)):
            assert unknown.is_homogeneous()
            assert euler_contract(em, unknown, form) == reference_contract(em, unknown, form)

    @pytest.mark.parametrize("name", SMOOTH_COMPLETE)
    def test_two_raised_exponents_of_two_classes_are_rejected(self, modules, corpus_cox, name):
        # b_0 + x_0 b_0 sums to two exponents, x_0 and x_0^2, of different classes
        cd, em = corpus_cox[name], modules[name]
        element = basis_element(em, 0) + cd.variable(0) * basis_element(em, 0)
        with pytest.raises(InhomogeneousInput):
            euler_contract(em, element, effective_weight_form(cd))

    def test_one_key_case_on_every_monomial_of_weight_at_most_four(self, modules, corpus_cox, monkeypatch):
        for name, cd in corpus_cox.items():
            em, form = modules[name], effective_weight_form(cd)
            for e in monomials_of_weight_at_most(cd, 4):
                s, lam = cd.monomial(e), cd.degree_of_exponent(e)
                with monkeypatch.context() as patch:
                    calls = _count_classes(patch, cd)
                    image = euler_contract(em, derivation(em, s), form)
                # every partial raises back to x^e: one key, and no class is looked up
                assert calls == [], (name, e)
                assert image == form(lam) * s, (name, e)

    def test_a_caller_s_polynomial_is_checked_in_full(self, modules, corpus_cox, monkeypatch):
        cd, em = corpus_cox["delpezzo6"], modules["delpezzo6"]
        form = effective_weight_form(cd)
        s = make_polynomial(cd, {e: 1 for e in monomial_basis(cd, (1, 1, 1, 1))})
        assert len(s.terms) > 2
        calls = _count_classes(monkeypatch, cd)
        ds = derivation(em, s)
        assert len(calls) == len(s.terms)
        # every x_i * d(x^e)/dx_i is a multiple of x^e: the sum's distinct
        # exponents are those of s, one class each
        euler_contract(em, ds, form)
        assert len(calls) == 2 * len(s.terms)
        euler_contract(em, ds * Fraction(1, 3), form)
        assert len(calls) == 3 * len(s.terms)
        monomial = cd.monomial((1, 0, 2, 0, 0, 1))
        euler_contract(em, derivation(em, monomial) * 2, form)
        assert len(calls) == 3 * len(s.terms)

    def test_the_identity_check_finds_no_class_per_sample(self, modules, corpus_cox, monkeypatch):
        cd, em = corpus_cox["delpezzo6"], modules["delpezzo6"]
        form = effective_weight_form(cd)
        calls = _count_classes(monkeypatch, cd)
        check_euler_identity(em, form, trials=0)
        pool = len(calls)
        assert check_euler_identity(em, form, trials=30).ok
        assert len(calls) == 2 * pool


class TestIdentitySpotCheckPool:
    @pytest.mark.parametrize("bound", range(7))
    def test_pool_grouped_by_class_is_the_monomial_basis(self, corpus_cox, bound):
        for name, cd in corpus_cox.items():
            grouped = {}
            for e in monomials_of_weight_at_most(cd, bound):
                grouped.setdefault(cd.degree_of_exponent(e), []).append(e)
            for lam, monomials in grouped.items():
                assert tuple(monomials) == monomial_basis(cd, lam), (name, lam)
            # the check's own grouping, by packed keys, bar the constant
            assert euler_module._pool_by_class(cd, bound) == reference_pool(cd, bound), name

    @pytest.mark.parametrize("max_weight", [0, 2, 4])
    def test_draws_match_the_monomial_basis_loop(
        self, modules, corpus_cox, monkeypatch, max_weight
    ):
        samples = []
        original = euler_module._partials

        def recording_partials(s):
            samples.append(dict(s.terms))
            return original(s)

        monkeypatch.setattr(euler_module, "_partials", recording_partials)
        for name, em in modules.items():
            cd = corpus_cox[name]
            rng, reference = random.Random(name), random.Random(name)
            samples.clear()
            report = check_euler_identity(
                em, effective_weight_form(cd), trials=20, max_weight=max_weight, rng=rng
            )
            assert report.ok and report.checked == 20
            # a reference draw lists all of basis[lam]; the sample drops the zero coefficients
            expected = [
                {e: c for e, c in draw.items() if c} for draw in reference_samples(cd, 20, max_weight, reference)
            ]
            assert samples == expected, name
            assert rng.getstate() == reference.getstate(), name

    def test_classes_are_drawn_uniformly_not_by_size(self, modules, corpus_cox, monkeypatch):
        # at bound 4, hirzebruch_1's pool has 14 classes of 1 to 7 monomials, 45 in all:
        # a draw by size would give a one-monomial class 1/45 of the samples, not 1/14
        cd, em = corpus_cox["hirzebruch_1"], modules["hirzebruch_1"]
        pool = reference_pool(cd, 4)
        assert len(pool) == 14 and sum(map(len, pool.values())) == 45
        assert {len(group) for group in pool.values()} == set(range(1, 8))
        drawn = dict.fromkeys(pool, 0)
        original = euler_module._partials

        def recording_partials(s):
            # a zero sample shows no class: at most 1 in 7, for a class of one monomial
            if s.terms:
                drawn[cd.degree_of_exponent(next(iter(s.terms)))] += 1
            return original(s)

        monkeypatch.setattr(euler_module, "_partials", recording_partials)
        trials = 2800
        report = check_euler_identity(em, cd.weight_form, trials=trials, max_weight=4, rng=random.Random(46))
        assert report.ok and report.checked == trials
        # uniform: 200 draws per class, 171 of them nonzero for a class of one
        # monomial; by size: 62 for a class of one monomial, 436 for one of seven
        assert all(120 <= count <= 280 for count in drawn.values()), drawn


def canonical_terms(element):
    """Every key of the flat term map is (basis index, exponent) and every
    coefficient is nonzero, an int when integral."""
    rank, n = element.module.rank, element.module.cox.num_vars
    return all(
        0 <= i < rank and len(e) == n and min(e, default=0) >= 0
        and c != 0 and (type(c) is int or type(c) is Fraction and c.denominator > 1)
        for (i, e), c in element._terms.items()
    )


def reference_degree(element):
    """The twist found component by component, as from the dense components."""
    degrees = {i: p.degree for i, p in enumerate(element.components) if not p.is_zero()}
    if None in degrees.values():
        return None
    twists = {tuple(a + b for a, b in zip(d, element.module.basis_degrees[i])) for i, d in degrees.items()}
    return twists.pop() if len(twists) == 1 else None


def regraded(cd, change):
    """The Cox data of the same fan with the class group read in another basis:
    the degree matrix multiplied on the left by the unimodular ``change``."""
    return CoxData(cd.fan, IntegerMatrix(tuple(map(tuple, change))) @ cd.degree_matrix)


def reference_pool(cd, bound):
    """The pool bar the constant, grouped by the class of each monomial."""
    grouped = {}
    for e in monomials_of_weight_at_most(cd, bound)[1:]:
        grouped.setdefault(cd.degree_of_exponent(e), []).append(e)
    return grouped


@st.composite
def unimodular(draw, rank):
    """A product of elementary integer matrices: an invertible change of class basis."""
    change = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(draw(st.integers(0, 3)) if rank > 1 else 0):
        i, j = draw(st.permutations(range(rank)))[:2]
        k = draw(st.integers(-3, 3))
        change[i] = [a + k * b for a, b in zip(change[i], change[j])]
    if draw(st.booleans()):
        change[0] = [-a for a in change[0]]
    return change


class TestFlatTermMap:
    """An element is one flat map from (basis index, exponent) to a coefficient;
    it agrees with the arithmetic of its dense components."""

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_the_components_rebuild_the_element(self, modules, name, data):
        x = _element(data, modules[name])
        assert canonical_terms(x)
        assert EulerModuleElement(modules[name], x.components) == x

    @pytest.mark.parametrize("name", SMOOTH_COMPLETE)
    def test_each_basis_element_round_trips_through_its_components(self, modules, name):
        em = modules[name]
        for i in range(em.rank):
            b = basis_element(em, i)
            assert b._terms == {(i, (0,) * em.cox.num_vars): 1}
            assert EulerModuleElement(em, b.components) == b

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_arithmetic_agrees_with_componentwise_polynomials(self, modules, corpus_cox, name, data):
        em, cd = modules[name], corpus_cox[name]
        x, y = _element(data, em), _element(data, em)
        k = data.draw(st.sampled_from([0, Fraction(0), 2, Fraction(2)]) | COEFFICIENTS)
        f = _homogeneous(data, cd) if data.draw(st.booleans()) else _any_polynomial(data, cd)
        cases = (
            (x + y, [a + b for a, b in zip(x.components, y.components)]),
            (x - y, [a - b for a, b in zip(x.components, y.components)]),
            (k * x, [k * a for a in x.components]),
            (x * k, [a * k for a in x.components]),
            (f * x, [f * a for a in x.components]),
            (x * f, [a * f for a in x.components]),
        )
        for result, components in cases:
            assert canonical_terms(result)
            assert result.components == tuple(components)
            assert result == EulerModuleElement(em, components)
            assert result.degree == reference_degree(result)
        assert x.degree == reference_degree(x)

    def test_a_polynomial_product_that_cancels_stores_no_zero(self, modules, corpus_cox):
        # (x0 - x1) b0 times x0 + x1: the two x0 x1 b0 terms cancel
        em, cd = modules["p2"], corpus_cox["p2"]
        b0 = basis_element(em, 0)
        product = (cd.variable(0) * b0 - cd.variable(1) * b0) * (cd.variable(0) + cd.variable(1))
        assert product._terms == {(0, (2, 0, 0)): 1, (0, (0, 2, 0)): -1}

    def test_a_scalar_product_stores_an_integral_fraction_as_an_int(self, modules):
        half = Fraction(1, 2) * basis_element(modules["p2"], 1)
        assert half._terms == {(1, (0, 0, 0)): Fraction(1, 2)}
        for whole in (half * 2, 2 * half, half * Fraction(2), half + half):
            assert canonical_terms(whole) and type(whole._terms[1, (0, 0, 0)]) is int

    def test_the_derivation_stores_the_partials_map(self, modules, corpus_cox):
        em, cd = modules["p2"], corpus_cox["p2"]
        ds = derivation(em, make_polynomial(cd, {(1, 2, 0): Fraction(1, 2), (0, 3, 0): 1}))
        assert ds._terms == {(0, (0, 2, 0)): Fraction(1, 2), (1, (1, 1, 0)): 1, (1, (0, 2, 0)): 3}
        assert [p.terms for p in ds.components] == [{(0, 2, 0): Fraction(1, 2)}, {(1, 1, 0): 1, (0, 2, 0): 3}, {}]


class TestPackedPool:
    """The identity check's pool is grouped by one packed integer per monomial."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data(), bound=st.integers(0, 5))
    def test_packed_groups_hold_in_any_class_basis(self, corpus_cox, name, data, bound):
        cd = regraded(corpus_cox[name], data.draw(unimodular(corpus_cox[name].cl_rank)))
        assert euler_module._pool_by_class(cd, bound) == reference_pool(cd, bound)

    @pytest.mark.parametrize("bound", range(1, 5))
    def test_entries_that_reach_the_field_bound(self, corpus_cox, bound):
        # F_3 read in the basis where x1 has class (-3, 1): the largest |d| is 3, and x1^bound
        # has entry -3 * bound, the field's reach; at bound 1 a field one bit narrower
        # gives (1, 0) and (-3, 1) one key
        cd = regraded(corpus_cox["hirzebruch_3"], [[1, -3], [0, 1]])
        assert cd.variable_degrees() == ((1, 0), (-3, 1), (1, 0), (0, 1))
        pool = euler_module._pool_by_class(cd, bound)
        assert pool == reference_pool(cd, bound)
        assert (-3 * bound, bound) in pool and (1, 0) in pool and (-3, 1) in pool
        assert check_euler_identity(build_euler_module(cd), cd.weight_form, trials=20, max_weight=bound).ok

    def test_wrong_form_counterexamples_are_pinned(self, corpus_cox):
        # an affine form breaks the identity off total degree 1, and each counterexample prints the
        # drawn polynomial: the digest, taken before the pool was packed, pins every draw
        lines = []
        for name, seed in (("p2", 4401), ("hirzebruch_3", 4402), ("delpezzo6", 4403)):
            cd = corpus_cox[name]
            report = check_euler_identity(
                build_euler_module(cd), lambda v, cd=cd: cd.weight_form(v) + 1, trials=20, max_weight=5,
                rng=random.Random(seed),
            )
            assert report.checked == 20
            lines += report.counterexamples
        assert len(lines) == 45
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "f1c01f2137aa725aba13080cb8943201e104a0e17744ce4846e01f6439104599"
        )

    @pytest.mark.parametrize("trials", [-1, -50])
    def test_a_negative_trial_count_is_refused(self, modules, corpus_cox, trials):
        with pytest.raises(ValueError, match=f"^trials must be >= 0, not {trials}$"):
            check_euler_identity(modules["p2"], corpus_cox["p2"].weight_form, trials=trials)

    def test_trials_are_read_as_an_integer(self, modules, corpus_cox):
        em, form = modules["p2"], corpus_cox["p2"].weight_form
        assert check_euler_identity(em, form, trials=0) == (0, ())
        assert check_euler_identity(em, form, trials=True).checked == 1
        with pytest.raises(TypeError):
            check_euler_identity(em, form, trials=2.0)


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


def reference_generation_check(weights, candidates, bound):
    """The dynamic program the closed form replaced, on valid input: every product
    of candidates up to the bound, compared weight by weight with the monomials."""
    n = len(weights)

    def weight_of(e):
        return sum(a * b for a, b in zip(weights, e))

    reachable = {0: {(0,) * n}}
    for w in range(1, bound + 1):
        layer = set()
        for c in candidates:
            wc = weight_of(c)
            if wc <= w:
                for base in reachable.get(w - wc, ()):
                    layer.add(tuple(a + b for a, b in zip(base, c)))
        reachable[w] = layer
        if layer != set(_exponents_up_to_weight(weights, w, exact=True)):
            return False
    return True


@st.composite
def generation_cases(draw):
    """Weights, a bound and a mix of candidates: units, nonnegative non-units,
    vectors with a negative entry, duplicates and candidates above the bound."""
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = len(weights)
    bound = draw(st.integers(-1, 8))

    def weight_of(e):
        return sum(a * b for a, b in zip(weights, e))

    def raised(e, j, least):
        """e with entry j raised just enough for a weight of at least ``least``."""
        short = least - weight_of(e)
        return e if short <= 0 else e[:j] + (e[j] - (-short // weights[j]),) + e[j + 1:]

    def with_negative(e, i, j):
        # entry i negative, entry j != i raised to a positive weight
        e = e[:i] + (-1 - e[i] % 2,) + e[i + 1:]
        return raised(e, j + (j >= i), 1)

    unit = st.integers(0, n - 1).map(lambda i: tuple(int(i == j) for j in range(n)))
    vector = st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(tuple)
    index = st.integers(0, n - 1)
    kinds = [
        unit,
        st.tuples(vector.map(lambda e: tuple(map(abs, e))), index)
        .map(lambda t: raised(*t, 1))
        .filter(lambda e: sorted(e) != [0] * (n - 1) + [1]),
        st.tuples(vector, index).map(lambda t: raised(*t, max(bound, 0) + 1)),
    ]
    if n > 1:
        kinds.append(st.tuples(vector, index, st.integers(0, n - 2)).map(lambda t: with_negative(*t)))
    candidates = draw(st.lists(st.one_of(kinds), max_size=8))
    if candidates:
        candidates += draw(st.lists(st.sampled_from(candidates), max_size=3))
    return weights, draw(st.permutations(candidates)), bound


class TestGradedGenerationCheck:
    @settings(max_examples=400, deadline=None)
    @given(case=generation_cases())
    def test_closed_form_matches_the_dynamic_program(self, case):
        weights, candidates, bound = case
        assert graded_generation_check(weights, candidates, bound) == reference_generation_check(
            weights, candidates, bound
        )

    @pytest.mark.parametrize(
        "weights, candidates, bound, expected",
        [
            # (2, -1) has weight 1, so x0^2 / x1 would lie in the weight-1 piece
            ([1, 1], [(1, 0), (0, 1), (2, -1)], 1, False),
            ([1, 1], [(1, 0), (0, 1), (2, -1)], 0, True),
            # (3, -1) has weight 2: above the bound 1 it takes no part
            ([1, 1], [(1, 0), (0, 1), (3, -1)], 1, True),
            ([1, 1], [(1, 0), (0, 1), (3, -1)], 2, False),
            # a variable heavier than the bound need not be a candidate
            ([1, 3], [(1, 0)], 2, True),
            ([1, 3], [(1, 0)], 3, False),
            ([2, 3], [], 1, True),
            ([2, 3], [], 2, False),
            # the dynamic program built every product here, about bound^4 / 24 of them
            ([1] * 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 30, True),
            ([1] * 4, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 30, False),
        ],
    )
    def test_pinned_cases(self, weights, candidates, bound, expected):
        assert graded_generation_check(weights, candidates, bound) is expected

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

    @pytest.mark.parametrize("weights, candidates", [([1.9], [(1,)]), ([1], [(1.7,)])])
    def test_rejects_entries_that_are_not_integers(self, weights, candidates):
        # read with int(), each would be truncated to the generating [1], [(1,)]
        with pytest.raises(ValueError, match="not an integer"):
            graded_generation_check(weights, candidates, 3)

    def test_bools_are_integers(self):
        assert graded_generation_check([True], [(True,)], 3)
        assert graded_generation_check([1], [(1,)], True)


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

    def test_rejects_a_class_that_is_not_integral(self, modules):
        # read with int(), (0.5,) would be the class (0,)
        with pytest.raises(ValueError, match="not an integer"):
            section_dimension_report(modules["p2"], window=[(0.5,)])

    def test_bool_class_is_the_integer_class(self, modules):
        by_bool = section_dimension_report(modules["p2"], window=[(True,)])
        assert by_bool == section_dimension_report(modules["p2"], window=[(1,)])

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
