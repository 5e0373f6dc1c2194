"""Graded dimensions (dual oracle), monomial bases, effective cone, weight
form, irrelevant ideal and the shift identity."""

import importlib
import itertools
import pkgutil
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cox.corpus import SMOOTH_COMPLETE, load_fan
from toric_cox.cox import (
    cox_data,
    divisor_in_class,
    effective_weight_form,
    graded_dimension,
    irrelevant_ideal,
    make_polynomial,
    monomial_basis,
)
import toric_cox
from toric_cox import cox as cox_module
from toric_cox import fans as fans_module
from toric_cox import polyhedral as polyhedral_module
from toric_cox.euler import (
    EulerModuleElement,
    build_euler_module,
    derivation,
    euler_contract,
    graded_piece_dim,
)
from toric_cox.errors import NotComplete, NotSmooth, OracleMismatch
from toric_cox.fans import Fan, TorusInvariantDivisor
from toric_cox.polyhedral import (
    RationalPolytope,
    WeightForm,
    cone_contains,
    polytope_family,
    polytope_lattice_points,
)

# P^2 blown up three and four times (the surfaces of test_pipeline's pinned blow-ups)
BLOWUP_R4 = Fan.make(
    2,
    [[1, 0], [0, 1], [-1, -1], [1, 1], [2, 1], [-1, 0]],
    [[0, 2], [0, 4], [1, 3], [1, 5], [2, 5], [3, 4]],
)
BLOWUP_R5 = Fan.make(
    2,
    [[1, 0], [0, 1], [-1, -1], [1, 1], [2, 1], [-1, 0], [-1, 1]],
    [[0, 2], [0, 4], [1, 3], [1, 6], [2, 5], [3, 4], [5, 6]],
)


class TestCoxData:
    def test_variable_count_is_dim_plus_rank(self, corpus_cox):
        for name, cd in corpus_cox.items():
            assert cd.num_vars == cd.fan.dim + cd.cl_rank, name

    def test_rejects_incomplete_fan(self):
        with pytest.raises(NotComplete):
            cox_data(Fan.make(2, [[1, 0], [0, 1]], [[0, 1]]))

    def test_rejects_singular_fan(self):
        with pytest.raises(NotSmooth):
            cox_data(Fan.make(2, [[1, 0], [1, 2]], [[0, 1]]))

    def test_variable_names(self, p2):
        cd = cox_data(p2)
        assert str(cd.monomial((1, 2, 0))) == "x0*x1^2"

    def test_str_of_zero_constants_and_coefficients(self, p2):
        cd = cox_data(p2)
        assert str(cd.zero()) == "0"
        assert str(cd.one() * 3) == "3"
        assert str(-cd.variable(0)) == "-x0"
        assert str(cd.monomial((1, 2, 0), Fraction(1, 2))) == "1/2*x0*x1^2"
        assert str(cd.one() - cd.variable(2)) == "1 - x2"
        assert str(cd.variable(1) - cd.monomial((1, 0, 0), 3)) == "x1 - 3*x0"
        assert str(cd.monomial((0, 1, 0), -3) + cd.variable(0)) == "-3*x1 + x0"


class TestGradedDimension:
    def test_p2_degree_two(self, corpus_cox):
        assert graded_dimension(corpus_cox["p2"], (2,)) == 6

    def test_constants(self, corpus_cox):
        for cd in corpus_cox.values():
            assert graded_dimension(cd, (0,) * cd.cl_rank) == 1

    def test_hirzebruch_fiber_class(self, corpus_cox):
        cd = corpus_cox["hirzebruch_1"]
        # two monomials in the fiber class (the two fiber variables)
        assert graded_dimension(cd, (1, 0)) == 2

    def test_binomial_series_on_p2(self, corpus_cox):
        cd = corpus_cox["p2"]
        for d in range(7):
            assert graded_dimension(cd, (d,)) == (d + 1) * (d + 2) // 2

    def test_oracles_agree_on_window(self, corpus_cox):
        for name in ("p1", "p2", "p1xp1", "hirzebruch_2"):
            cd = corpus_cox[name]
            for lam in itertools.product(range(-3, 4), repeat=cd.cl_rank):
                graded_dimension(cd, lam)  # raises OracleMismatch on any bug

    def test_class_section_lifts_like_divisor_in_class(self, corpus_cox):
        for name, cd in corpus_cox.items():
            for lam in itertools.product(range(-2, 3), repeat=cd.cl_rank):
                assert cd.class_section.mat_vec(lam) == divisor_in_class(cd, lam).coefficients, (name, lam)

    @pytest.mark.parametrize("rank, index", [(r, i) for r in range(2, 7) for i in range(2)] + [(8, 0)])
    def test_class_section_columns_are_the_unit_lifts(self, rank, index):
        # blow-ups of P^2 up to rank 8 (seven blow-ups): the section read off one
        # Smith form has exactly the columns solve_integer gives the unit classes,
        # so the lift an OracleMismatch reports is unchanged
        cd = cox_data(mixed_blowup(rank, index))
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        assert cd.class_section.columns() == tuple(divisor_in_class(cd, e).coefficients for e in units)
        rng = random.Random(f"section-{rank}-{index}")
        for _ in range(20):
            lam = tuple(rng.randint(-9, 9) for _ in range(rank))
            assert cd.class_section.mat_vec(lam) == divisor_in_class(cd, lam).coefficients, lam

    def test_mismatch_is_caught_and_reports_the_lift(self, corpus_cox, monkeypatch):
        cd = corpus_cox["hirzebruch_1"]
        real = cox_module._fiber_dimension
        monkeypatch.setattr(cox_module, "_fiber_dimension", lambda cd, lam: real(cd, lam) + 1)
        lift = divisor_in_class(cd, (1, 0)).coefficients
        with pytest.raises(OracleMismatch) as caught:
            graded_dimension(cd, (1, 0))
        assert str(caught.value) == (
            f"fiber count 3 != polytope count 2 at (1, 0) (lifted divisor {lift})"
        )
        mismatch = caught.value
        assert (mismatch.class_vector, mismatch.by_fiber, mismatch.by_polytope) == ((1, 0), 3, 2)
        assert mismatch.lift == lift


# Images of (e1, e2) under the lattice automorphisms of the fan of P^2.
P2_SYMMETRIES = tuple(itertools.permutations(((1, 0), (0, 1), (-1, -1)), 2))


def mixed_blowup(rank: int, index: int) -> Fan:
    """P^2 blown up rank - 1 times at seeded maximal cones, under a seeded symmetry of P^2."""
    rng = random.Random(f"mix-{rank}-{index}")
    rays, cones = [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]
    for _ in range(rank - 1):
        a, b = cones.pop(rng.randrange(len(cones)))
        rays.append(tuple(x + y for x, y in zip(rays[a], rays[b])))
        cones += [(a, len(rays) - 1), (b, len(rays) - 1)]
    e1, e2 = rng.choice(P2_SYMMETRIES)
    return Fan.make(2, [[x * p + y * q for p, q in zip(e1, e2)] for x, y in rays], cones)


class TestOracleIndependence:
    """The elimination tables and the fiber levels answer without each other."""

    def fans(self, corpus):
        return dict(corpus, **{f"mix_{r}_{i}": mixed_blowup(r, i) for r in range(2, 6) for i in range(2)})

    def test_level_zero_cuts_out_the_effective_cone(self, corpus):
        # Gale duality: the rational section polytope of a lift of lam is
        # non-empty exactly when lam is in the effective cone
        for name, fan in self.fans(corpus).items():
            cd = cox_data(fan)
            level_zero = cd.section_tables.level_zero
            radius = 2 if cd.cl_rank <= 4 else 1
            for lam in itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank):
                feasible = all(sum(map(mul, f, lam)) >= 0 for f in level_zero)
                assert feasible == cone_contains(cd.effective_cone, lam), (name, lam)

    def windows(self, corpus):
        for name, fan in self.fans(corpus).items():
            cd = cox_data(fan)
            radius = 2 if cd.cl_rank <= 2 else 1
            window = list(itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank))
            yield name, fan, {lam: graded_dimension(cd, lam) for lam in window}

    def test_fiber_dimension_without_the_tables(self, corpus, monkeypatch):
        expected = list(self.windows(corpus))

        def refuse(*args):
            raise AssertionError("elimination tables used")

        monkeypatch.setattr(polyhedral_module, "_eliminate", refuse)
        monkeypatch.setattr(polyhedral_module.PolytopeFamily, "lattice_points", refuse)
        monkeypatch.setattr(polyhedral_module.PolytopeFamily, "count_lattice_points", refuse)
        for name, fan, dims in expected:
            cd = cox_data(fan)
            with pytest.raises(AssertionError):
                graded_dimension(cd, (0,) * cd.cl_rank)
            assert {lam: cox_module._fiber_dimension(cd, lam) for lam in dims} == dims, name

    def test_polytope_dimension_without_the_fiber_levels(self, corpus, monkeypatch):
        expected = list(self.windows(corpus))

        def refuse(*args):
            raise AssertionError("fiber levels used")

        monkeypatch.setattr(cox_module, "_fiber_level", refuse)
        for name, fan, dims in expected:
            cd = cox_data(fan)
            with pytest.raises(AssertionError):
                graded_dimension(cd, (0,) * cd.cl_rank)
            assert {lam: cox_module._polytope_dimension(cd, lam) for lam in dims} == dims, name


def test_a_class_outside_the_effective_cone_builds_no_level(corpus):
    # on F_3, (5, -1) has weight 4 and lies in the box of its level
    # (5 <= 4 * 3), but the facet normal (0, 1) is negative on it
    cd = cox_data(corpus["hirzebruch_3"])
    assert cd.weight_form.coefficients == (1, 1) and cd.fiber_box == 3
    assert (0, 1) in cd.effective_normals
    assert len(cd.fiber_levels[-1]) == 1
    assert cox_module._fiber_dimension(cd, (5, -1)) == 0
    assert len(cd.fiber_levels[-1]) == 1
    assert cox_module._fiber_dimension(cd, (4, 1)) == len(monomial_basis(cd, (4, 1))) > 0
    assert len(cd.fiber_levels[-1]) == 6


class TestPolytopeCount:
    """The polytope oracle counts in class coordinates, with tables composed once per fan."""

    def test_count_equals_the_listed_points_of_the_lift(self):
        for rank in range(2, 6):
            for index in range(2):
                cd = cox_data(mixed_blowup(rank, index))
                family = polytope_family(cd.fan.rays, cd.fan.dim)
                radius = 2 if rank <= 4 else 1
                for lam in itertools.product(range(-radius, radius + 1), repeat=rank):
                    listed = len(family.lattice_points(cd.class_section.mat_vec(lam)))
                    assert cox_module._polytope_dimension(cd, lam) == listed, (rank, index, lam)

    def test_no_lift_and_no_point_list_after_the_first_query(self, monkeypatch):
        cd = cox_data(mixed_blowup(4, 0))
        window = list(itertools.product(range(-2, 3), repeat=4))
        expected = [graded_dimension(cd, lam) for lam in window]

        def refuse(*args):
            raise AssertionError("lift or point list used")

        monkeypatch.setattr(cox_module.IntegerMatrix, "mat_vec", refuse)
        monkeypatch.setattr(polyhedral_module.PolytopeFamily, "lattice_points", refuse)
        assert [cox_module._polytope_dimension(cd, lam) for lam in window] == expected


class TestMonomialBasis:
    def test_p2_linear_forms(self, corpus_cox):
        assert monomial_basis(corpus_cox["p2"], (1,)) == (
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        )

    def test_outside_effective_cone(self, corpus_cox):
        assert monomial_basis(corpus_cox["hirzebruch_1"], (-1, 0)) == ()

    def test_p1xp1_bidegree_one_one(self, corpus_cox):
        basis = monomial_basis(corpus_cox["p1xp1"], (1, 1))
        assert len(basis) == 4

    def test_length_matches_dimension(self, corpus_cox):
        for name in ("p2", "hirzebruch_1", "delpezzo6"):
            cd = corpus_cox[name]
            for lam in itertools.product(range(0, 2), repeat=cd.cl_rank):
                assert len(monomial_basis(cd, lam)) == graded_dimension(cd, lam)

    def test_every_monomial_has_the_right_class(self, corpus_cox):
        cd = corpus_cox["delpezzo6"]
        lam = (1, 1, 1, 1)
        for e in monomial_basis(cd, lam):
            assert cd.degree_of_exponent(e) == lam


    @pytest.mark.parametrize("weights", [(), (2,), (1, 2, 3)])
    def test_enumerator_matches_a_box_scan(self, weights):
        box = list(itertools.product(range(7), repeat=len(weights)))

        def weight(e):
            return sum(w * x for w, x in zip(weights, e))

        for budget in range(-2, 7):
            assert cox_module._exponents_up_to_weight(weights, budget) == [
                e for e in box if weight(e) <= budget
            ]
            assert cox_module._exponents_up_to_weight(weights, budget, exact=True) == [
                e for e in box if weight(e) == budget
            ]

    def test_matches_a_box_scan_by_class(self, corpus_cox):
        cd = corpus_cox["hirzebruch_2"]
        box = list(itertools.product(range(4), repeat=cd.num_vars))
        for lam in itertools.product(range(-1, 3), repeat=cd.cl_rank):
            expected = tuple(e for e in box if cd.degree_of_exponent(e) == lam)
            assert monomial_basis(cd, lam) == expected, lam


KEYED_FANS = dict({name: load_fan(name) for name in SMOOTH_COMPLETE}, blowup_r4=BLOWUP_R4)


@st.composite
def fan_and_classes(draw):
    """A fan and a few small classes of it, in the order they will be queried."""
    name = draw(st.sampled_from(sorted(KEYED_FANS)))
    rank = len(KEYED_FANS[name].rays) - KEYED_FANS[name].dim
    coordinate = st.integers(-2, 3) if rank <= 2 else st.integers(-1, 2)
    classes = draw(st.lists(st.tuples(*[coordinate] * rank), min_size=1, max_size=6))
    return name, classes


class TestFiberKeys:
    """The fiber tables key each class by one packed integer."""

    @pytest.mark.parametrize("entry", [1.5, 2.7, 2.0, Fraction(3, 2), Fraction(4, 2)])
    def test_an_entry_that_is_not_an_integer_raises(self, corpus_cox, entry):
        cd = corpus_cox["p2"]
        em = build_euler_module(cd)
        for query in (graded_dimension, monomial_basis):
            with pytest.raises(ValueError, match="not an integer"):
                query(cd, (entry,))
        with pytest.raises(ValueError, match="not an integer"):
            graded_piece_dim(em, (entry,))
        cd = corpus_cox["hirzebruch_1"]
        with pytest.raises(ValueError, match="not an integer"):
            graded_dimension(cd, (1, entry))

    def test_a_class_of_the_wrong_length_raises(self, corpus_cox):
        # checked once, in graded_dimension: the fiber side reads the weight
        # form's coefficients without a length check of its own
        cd = corpus_cox["hirzebruch_1"]
        with pytest.raises(ValueError, match=r"^class vector length 3 != rank 2$"):
            graded_dimension(cd, (1, 0, 0))
        with pytest.raises(ValueError, match=r"^class vector length 1 != rank 2$"):
            graded_dimension(cd, (1,))

    def test_a_class_sharing_a_key_and_a_weight_has_no_monomials(self):
        cd = cox_data(BLOWUP_R4)
        assert cd.cl_rank >= 3
        mu = cd.degree_of_exponent((1,) * cd.num_vars)
        assert graded_dimension(cd, mu) > 0
        # (M, -1, 0, ...) and (0, M, -1, ...) have key 0; combine them to weight 0
        radix = cd.fiber_places[1]
        a = (radix, -1) + (0,) * (cd.cl_rank - 2)
        b = (0, radix, -1) + (0,) * (cd.cl_rank - 3)
        wa, wb = cd.weight_form(a), cd.weight_form(b)
        delta = tuple(wb * x - wa * y for x, y in zip(a, b))
        assert any(delta) and cd.weight_form(delta) == 0
        lam = tuple(x + y for x, y in zip(mu, delta))
        assert sum(map(mul, lam, cd.fiber_places)) == sum(map(mul, mu, cd.fiber_places))
        assert graded_dimension(cd, lam) == 0
        assert monomial_basis(cd, lam) == ()

    @settings(max_examples=100, deadline=None)
    @given(fan_and_classes())
    def test_fiber_dimension_counts_the_enumerated_monomials(self, drawn):
        # monomial_basis enumerates exponents directly, without the fiber tables
        name, classes = drawn
        cd = cox_data(KEYED_FANS[name])
        for lam in classes:
            assert cox_module._fiber_dimension(cd, lam) == len(monomial_basis(cd, lam)), (name, lam)


class TestFanContext:
    """Derived data of a fan is computed once and lives on its CoxData."""

    def test_cone_and_form_are_computed_once_per_cox_data(self, p2, monkeypatch):
        calls = []
        original = cox_module.strictly_positive_form
        monkeypatch.setattr(
            cox_module,
            "strictly_positive_form",
            lambda *args: calls.append(args) or original(*args),
        )
        first, second = cox_data(p2), cox_data(p2)
        assert first == second
        for cd in (first, first, second):
            assert effective_weight_form(cd) is cd.weight_form
            graded_dimension(cd, (2,))
        assert len(calls) == 2

    def test_fiber_levels_live_on_the_instance(self, p2):
        cd = cox_data(p2)
        levels = cd.fiber_levels
        # a fresh instance holds level 0 only: the constant monomial, per variable
        assert levels == ([{0: 1}],) * 3
        graded_dimension(cd, (3,))
        assert cd.fiber_levels is levels
        assert [len(own) for own in levels] == [4, 4, 4] and levels[-1][3] == {3: 10}
        kept = [list(own) for own in levels]
        contents = [[dict(level) for level in own] for own in levels]

        # a lighter class is a lookup: no level is added or changed
        graded_dimension(cd, (1,))
        assert [[dict(level) for level in own] for own in levels] == contents
        assert all(a is b for own, old in zip(levels, kept) for a, b in zip(own, old))

        # a heavier class appends levels and keeps the existing level dicts
        graded_dimension(cd, (5,))
        assert [len(own) for own in levels] == [6, 6, 6] and levels[-1][5] == {5: 21}
        assert all(a is b for own, old in zip(levels, kept) for a, b in zip(own, old))
        assert [[dict(level) for level in own[:4]] for own in levels] == contents
        assert [len(own) for own in cox_data(p2).fiber_levels] == [1, 1, 1]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_fiber_dimension_does_not_depend_on_query_order(self, corpus, order):
        # monomial_basis enumerates exponents directly, without the fiber levels
        fans = dict(corpus, blowup_r4=BLOWUP_R4, blowup_r5=BLOWUP_R5)
        for name, fan in fans.items():
            cd = cox_data(fan)
            radius = 2 if cd.cl_rank <= 2 else 1
            window = sorted(
                itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank),
                key=lambda lam: (cd.weight_form(lam), lam),
            )
            if order == "descending":
                window.reverse()
            elif order == "shuffled":
                random.Random(name).shuffle(window)
            for lam in window:
                expected = len(monomial_basis(cd, lam))
                assert cox_module._fiber_dimension(cd, lam) == expected, (name, lam)

    def test_no_module_level_caches(self):
        # derived data lives on CoxData; the one module-level cache left is
        # validate_fan's, whose hits the benchmark harness counts
        assert not hasattr(cox_module, "_FIBER_TABLES")
        modules = [toric_cox] + [
            importlib.import_module(f"toric_cox.{info.name}") for info in pkgutil.iter_modules(toric_cox.__path__)
        ]
        for module in modules:
            for name, value in vars(module).items():
                if hasattr(value, "cache_info"):
                    assert value is fans_module.validate_fan, (module.__name__, name)


class TestEffectiveCone:
    def test_p2(self, corpus_cox):
        assert corpus_cox["p2"].effective_cone.generators == ((1,),)

    def test_hirzebruch_one(self, corpus_cox):
        # quadrant in the (fiber, section) basis; the interior degree (1,1)
        # of the fourth variable is not extremal
        eff = corpus_cox["hirzebruch_1"].effective_cone
        assert eff.generators == ((0, 1), (1, 0))

    def test_p1xp1_quadrant(self, corpus_cox):
        assert corpus_cox["p1xp1"].effective_cone.generators == ((0, 1), (1, 0))

    @pytest.mark.parametrize("name", SMOOTH_COMPLETE)
    def test_built_from_the_cached_normals_as_from_the_generators(self, name, monkeypatch):
        # two dual steps in all: one for the cached normals and one for the
        # generators, where cone_from_generators would take two more
        calls = []
        original = polyhedral_module._dual_generators

        def counted(vectors, dim):
            calls.append(dim)
            return original(vectors, dim)

        cd = cox_data(load_fan(name))
        monkeypatch.setattr(polyhedral_module, "_dual_generators", counted)
        monkeypatch.setattr(cox_module, "_dual_generators", counted)
        eff = cd.effective_cone
        assert eff.facet_normals is cd.effective_normals
        assert len(calls) == 2
        monkeypatch.undo()
        assert eff == polyhedral_module.cone_from_generators(cd.variable_degrees(), cd.cl_rank)

    def test_positive_dimensions_only_inside(self, corpus_cox):
        for name in ("p2", "p1xp1", "hirzebruch_3"):
            cd = corpus_cox[name]
            eff = cd.effective_cone
            for lam in itertools.product(range(-3, 4), repeat=cd.cl_rank):
                if graded_dimension(cd, lam) > 0:
                    assert cone_contains(eff, lam)

    def test_lattice_points_of_cone_are_realized_on_corpus(self, corpus_cox):
        # the converse direction, checked empirically on a bounded window
        for name, cd in corpus_cox.items():
            eff = cd.effective_cone
            radius = 2 if cd.cl_rank <= 2 else 1
            for lam in itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank):
                if cone_contains(eff, lam):
                    assert graded_dimension(cd, lam) > 0 or not any(lam), (name, lam)


class TestWeightForm:
    def test_p2(self, corpus_cox):
        assert effective_weight_form(corpus_cox["p2"]).coefficients == (1,)

    def test_hirzebruch_one(self, corpus_cox):
        form = effective_weight_form(corpus_cox["hirzebruch_1"])
        assert form.coefficients == (1, 1)
        # reads (1, 2) in the alternative basis used in test_fans; the values
        # on the variable degrees are basis independent
        cd = corpus_cox["hirzebruch_1"]
        assert [form(d) for d in cd.variable_degrees()] == [1, 1, 1, 2]

    def test_p1xp1(self, corpus_cox):
        assert effective_weight_form(corpus_cox["p1xp1"]).coefficients == (1, 1)

    def test_at_least_one_on_variable_degrees(self, corpus_cox):
        for cd in corpus_cox.values():
            form = effective_weight_form(cd)
            assert all(form(d) >= 1 for d in cd.variable_degrees())

    def test_linearity_on_monomials(self, corpus_cox):
        cd = corpus_cox["hirzebruch_2"]
        form = effective_weight_form(cd)
        weights = [form(d) for d in cd.variable_degrees()]
        for e in monomial_basis(cd, (2, 1)):
            weight = sum(a * b for a, b in zip(weights, e))
            assert weight == form(cd.degree_of_exponent(e))


class TestIrrelevantIdeal:
    def test_p2_is_the_maximal_ideal(self, corpus_cox):
        # complements of the three maximal cones are the single rays
        assert irrelevant_ideal(corpus_cox["p2"]) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_p1(self, corpus_cox):
        assert irrelevant_ideal(corpus_cox["p1"]) == ((0, 1), (1, 0))

    def test_p1xp1_quadratic_monomials(self, corpus_cox):
        # one product x_i * x_j per maximal cone complement: exactly the
        # pairs mixing the two rulings
        assert irrelevant_ideal(corpus_cox["p1xp1"]) == (
            (0, 1, 0, 1),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (1, 0, 1, 0),
        )

    def test_generators_pairwise_incomparable(self, corpus_cox):
        for cd in corpus_cox.values():
            gens = irrelevant_ideal(cd)
            for a, b in itertools.permutations(gens, 2):
                assert not all(x >= y for x, y in zip(a, b))


class TestShiftModuleDegree:
    def test_zero_divisor(self, corpus_cox):
        cd = corpus_cox["p2"]
        assert cd.degree_of_exponent(TorusInvariantDivisor.make([0, 0, 0]).coefficients) == (0,)

    def test_p2_two_lines(self, corpus_cox):
        cd = corpus_cox["p2"]
        assert cd.degree_of_exponent(TorusInvariantDivisor.make([1, 1, 0]).coefficients) == (2,)

    def test_hirzebruch_one_section_ray(self, corpus_cox):
        cd = corpus_cox["hirzebruch_1"]
        divisor = TorusInvariantDivisor.make([0, 1, 0, 0])
        assert cd.degree_of_exponent(divisor.coefficients) == (0, 1)

    def test_sections_match_shifted_ring_pieces(self, corpus_cox):
        # dim H^0(O(D + D_mu)) computed from the translated polytope equals
        # the ring piece in class mu + shift, for a window of mu
        cd = corpus_cox["hirzebruch_1"]
        divisor = TorusInvariantDivisor.make([1, 0, 2, 1])
        shift = cd.degree_of_exponent(divisor.coefficients)
        for mu in itertools.product(range(-2, 3), repeat=2):
            twisted = divisor + divisor_in_class(cd, mu)
            # the characters m with div(m) + D >= 0
            polytope = RationalPolytope.from_inequalities(zip(cd.fan.rays, twisted.coefficients), cd.fan.dim)
            sections = len(polytope_lattice_points(polytope))
            target = tuple(a + b for a, b in zip(mu, shift))
            assert sections == graded_dimension(cd, target)


class TestGradedPolynomialArithmetic:
    def test_degree_and_homogeneity(self, corpus_cox):
        cd = corpus_cox["p2"]
        p = cd.monomial((1, 1, 0)) + cd.monomial((0, 0, 2))
        assert p.degree == (2,)
        q = p + cd.monomial((1, 0, 0))
        assert q.degree is None and not q.is_homogeneous()

    def test_product_rule_for_classes(self, corpus_cox):
        cd = corpus_cox["hirzebruch_1"]
        a = cd.monomial((1, 0, 0, 0))
        b = cd.monomial((0, 0, 0, 1), Fraction(1, 2))
        assert (a * b).degree == (2, 1)

    def test_partial_derivative(self, corpus_cox):
        cd = corpus_cox["p2"]
        p = cd.monomial((1, 2, 0))
        assert p.partial(1) == cd.monomial((1, 1, 0), 2)
        assert p.partial(2).is_zero()

    @pytest.mark.parametrize("index", [-1, 3, -4])
    def test_partial_rejects_an_index_outside_the_variables(self, corpus_cox, index):
        # a negative index must not slice e[index + 1:] from the start into a 6-entry exponent
        p = corpus_cox["p2"].monomial((1, 0, 1))
        with pytest.raises(IndexError, match=f"^variable index {index} out of range for 3 variables$"):
            p.partial(index)

    @pytest.mark.parametrize("index", [-1, 3, -4])
    def test_variable_rejects_an_index_outside_the_variables(self, corpus_cox, index):
        # a negative index used to count from the end: variable(-1) was x2 on P^2
        with pytest.raises(IndexError, match=f"^variable index {index} out of range for 3 variables$"):
            corpus_cox["p2"].variable(index)

    def test_adding_a_number_is_a_type_error(self, corpus_cox):
        one = corpus_cox["p2"].one()
        for bad in (lambda: one + 1, lambda: one - 1, lambda: 1 + one, lambda: one + Fraction(1, 2)):
            with pytest.raises(TypeError):
                bad()

    def test_subtracting_a_number_names_the_minus(self, corpus_cox):
        one = corpus_cox["p2"].one()
        with pytest.raises(TypeError, match=r"for -: 'GradedPolynomial' and 'int'$"):
            one - 1

    def test_polynomials_of_two_rings_do_not_mix(self, corpus_cox, p2):
        x, y = corpus_cox["p2"].variable(0), corpus_cox["p1xp1"].variable(0)
        with pytest.raises(ValueError, match="two different Cox rings"):
            x + y
        with pytest.raises(ValueError, match="two different Cox rings"):
            x - y
        with pytest.raises(ValueError, match="two different Cox rings"):
            x * y
        # an equal ring built again is the same ring
        again = cox_data(p2).variable(1)
        assert (x + again) * again == corpus_cox["p2"].monomial((1, 1, 0)) + corpus_cox["p2"].monomial((0, 2, 0))

    # non-integral entries used to be truncated: (1.5, 0, 0) read as x0
    @pytest.mark.parametrize("bad", [(1, 0), (1, 0, 0, 0), (1, -1, 0), (1.5, 0, 0), (True, 0, 0.9)])
    def test_boundary_rejects_bad_exponent_vectors(self, corpus_cox, bad):
        cd = corpus_cox["p2"]
        with pytest.raises(ValueError):
            make_polynomial(cd, {bad: 1})
        with pytest.raises(ValueError):
            make_polynomial(cd, {(1, 0, 0): 1, bad: 0})
        with pytest.raises(ValueError):
            cd.monomial(bad)

    def test_arithmetic_and_contraction_bypass_the_boundary(self, corpus_cox, monkeypatch):
        cd = corpus_cox["hirzebruch_1"]
        em = build_euler_module(cd)
        s = cd.monomial((1, 2, 0, 1), Fraction(1, 2)) + cd.monomial((1, 0, 0, 1))
        t = cd.monomial((0, 1, 1, 0), 3)

        def refuse(*args):
            raise AssertionError("make_polynomial reached from an internal path")

        monkeypatch.setattr(cox_module, "make_polynomial", refuse)
        assert _valid((s + t - s * t * 2).partial(1))
        form = cd.weight_form
        assert euler_contract(em, derivation(em, t), form) == form(t.degree) * t

    def test_coefficients_enter_in_canonical_form(self, corpus_cox):
        cd = corpus_cox["p2"]
        cases = [(Fraction(4, 2), 2), (True, 1), (0.5, Fraction(1, 2)), (7, 7), (Fraction(-2, 6), Fraction(-1, 3))]
        for given_coefficient, stored in cases:
            (c,) = make_polynomial(cd, {(1, 0, 0): given_coefficient}).terms.values()
            assert c == stored and type(c) is type(stored)

    def test_products_with_a_fraction_return_to_ints(self, corpus_cox):
        cd = corpus_cox["hirzebruch_1"]
        p = cd.monomial((1, 2, 0, 1), 3) + cd.monomial((0, 1, 1, 0), -4)
        half = p * Fraction(1, 2)
        assert type(half.terms[(1, 2, 0, 1)]) is Fraction and type(half.terms[(0, 1, 1, 0)]) is int
        doubled = half * 2
        assert doubled == p and all(type(c) is int for c in doubled.terms.values())

    def test_integral_fraction_and_int_build_the_same_monomial(self, corpus_cox):
        cd = corpus_cox["p2"]
        e = (1, 0, 2)
        assert cd.monomial(e, Fraction(2)) == cd.monomial(e, 2)
        assert cd.monomial(e, Fraction(2)).terms == cd.monomial(e, 2).terms == {e: 2}
        assert cd.monomial(e).constant_term() == 0 and type(cd.one().constant_term()) is int

    def test_equality_is_by_value_and_polynomials_are_unhashable(self, p2):
        first, second = cox_data(p2), cox_data(p2)
        e = (1, 0, 2)
        p = first.monomial(e, 3) + first.variable(1)
        assert p == second.variable(1) + second.monomial(e, 3)
        assert p != first.monomial(e, 3) and p != first.zero()
        with pytest.raises(TypeError):
            hash(p)


def _valid(p) -> bool:
    """The term invariant: valid exponent vectors with nonzero coefficients in canonical
    form, an ``int`` when integral and a ``Fraction`` only with a denominator above 1."""
    return all(
        len(e) == p.cox.num_vars and min(e) >= 0 and c
        and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
        for e, c in p.terms.items()
    )


def _polynomial(data, cd, max_terms=4):
    """A random polynomial, assembled from ``cd.monomial`` with possibly zero coefficients."""
    exponent = st.tuples(*[st.integers(0, 2)] * cd.num_vars)
    coefficient = st.fractions(-3, 3, max_denominator=3)
    p = cd.zero()
    for e, c in data.draw(st.lists(st.tuples(exponent, coefficient), max_size=max_terms)):
        p = p + cd.monomial(e, c)
    return p


class TestPolynomialProperties:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_ring_laws_keep_the_invariant(self, corpus_cox, name, data):
        cd = corpus_cox[name]
        p, q, r = (_polynomial(data, cd) for _ in range(3))
        assert (p - p).terms == {}
        assert p * (q + r) == p * q + p * r
        for result in (p + q, p - q, p * q, -p, p * Fraction(2, 3), 0 * p, p.partial(0)):
            assert _valid(result)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_homogeneity_matches_the_classes_of_the_terms(self, corpus_cox, name, data):
        cd = corpus_cox[name]
        if data.draw(st.booleans()):
            # terms of one class, so homogeneous by construction
            lam = cd.degree_of_exponent(data.draw(st.tuples(*[st.integers(0, 2)] * cd.num_vars)))
            basis = monomial_basis(cd, lam)
            chosen = data.draw(st.lists(st.sampled_from(basis), max_size=4))
            p = make_polynomial(cd, {e: data.draw(st.integers(-2, 2)) for e in chosen})
        else:
            p = _polynomial(data, cd)
        reference = len({cd.degree_of_exponent(e) for e in p.terms}) <= 1
        assert p.is_homogeneous() == reference

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_leibniz_rule_for_partial(self, corpus_cox, name, data):
        cd = corpus_cox[name]
        p, q = _polynomial(data, cd), _polynomial(data, cd)
        for i in range(cd.num_vars):
            assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_contraction_matches_the_product_formula(self, corpus_cox, name, data):
        cd = corpus_cox[name]
        em = build_euler_module(cd)
        twist = cd.degree_of_exponent(data.draw(st.tuples(*[st.integers(0, 2)] * cd.num_vars)))
        components = []
        for degree in em.basis_degrees:
            basis = monomial_basis(cd, tuple(a - b for a, b in zip(twist, degree)))
            coefficients = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
            components.append(make_polynomial(cd, dict(zip(basis, data.draw(coefficients)))))
        element = EulerModuleElement(em, tuple(components))
        # the fan's weight form, or any integral form (zero or negative weights included)
        form = data.draw(
            st.just(cd.weight_form)
            | st.builds(WeightForm, st.tuples(*[st.integers(-2, 2)] * cd.cl_rank))
        )
        expected = cd.zero()
        for i, (component, degree) in enumerate(zip(components, em.basis_degrees)):
            expected = expected + form(degree) * cd.variable(i) * component
        actual = euler_contract(em, element, form)
        assert actual == expected and _valid(actual)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_derivation_is_the_formal_partials(self, corpus_cox, name, data):
        # derivation builds every partial in one pass; partial is the reference
        cd = corpus_cox[name]
        em = build_euler_module(cd)
        if data.draw(st.booleans()):
            lam = cd.degree_of_exponent(data.draw(st.tuples(*[st.integers(0, 2)] * cd.num_vars)))
            chosen = data.draw(st.lists(st.sampled_from(monomial_basis(cd, lam)), max_size=4))
            coefficient = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
            p = make_polynomial(cd, {e: data.draw(coefficient) for e in chosen})
        else:
            p = _polynomial(data, cd)
        if not p.is_homogeneous():
            return
        components = derivation(em, p).components
        assert components == tuple(p.partial(i) for i in range(cd.num_vars))
        assert all(_valid(c) for c in components)

    def test_an_integral_partial_of_a_fraction_is_an_int(self, corpus_cox):
        cd = corpus_cox["p2"]
        p = cd.monomial((2, 0, 0), Fraction(1, 2))
        for d in (p.partial(0), derivation(build_euler_module(cd), p).components[0]):
            assert d.terms == {(1, 0, 0): 1} and type(d.terms[(1, 0, 0)]) is int
