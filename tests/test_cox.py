"""Graded dimensions (dual oracle), monomial bases, effective cone, weight
form, irrelevant ideal and the shift identity."""

import ast
import builtins
import importlib
import itertools
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path

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
from toric_cox.lattice import solve_integer
from toric_cox.polyhedral import (
    WeightForm,
    cone_contains,
    polytope_family,
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

    def test_class_section_lifts_like_solve_integer(self, corpus_cox):
        for name, cd in corpus_cox.items():
            for lam in itertools.product(range(-2, 3), repeat=cd.cl_rank):
                assert divisor_in_class(cd, lam).coefficients == solve_integer(cd.degree_matrix, lam), (name, lam)

    @pytest.mark.parametrize("rank, index", [(r, i) for r in range(2, 7) for i in range(2)] + [(8, 0)])
    def test_class_section_columns_are_the_unit_lifts(self, rank, index):
        # blow-ups of P^2 up to rank 8 (seven blow-ups): the section read off one
        # Smith form has exactly the columns solve_integer gives the unit classes,
        # so the lift an OracleMismatch reports is unchanged
        cd = cox_data(mixed_blowup(rank, index))
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        assert cd.class_section.columns() == tuple(solve_integer(cd.degree_matrix, e) for e in units)
        rng = random.Random(f"section-{rank}-{index}")
        for _ in range(20):
            lam = tuple(rng.randint(-9, 9) for _ in range(rank))
            assert divisor_in_class(cd, lam).coefficients == solve_integer(cd.degree_matrix, lam), lam

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
                assert feasible == cone_contains(cd.effective_cone.facet_normals, cd.cl_rank, lam), (name, lam)

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

        monkeypatch.setattr(cox_module, "_fiber_tables", refuse)
        for name, fan, dims in expected:
            cd = cox_data(fan)
            with pytest.raises(AssertionError):
                graded_dimension(cd, (0,) * cd.cl_rank)
            assert {lam: cox_module._polytope_dimension(cd, lam) for lam in dims} == dims, name


class _Reach:
    """The package functions that one function can run, read off the modules' ASTs.

    A bare name is a local, a module-level definition (followed through the
    package's relative imports), a stdlib import or a builtin; any other is
    a LookupError.  An attribute is looked up in its value's class where
    the annotations give one: a parameter's (``cd: CoxData``), ``self``'s,
    a class named directly, and a property's or a call's return annotation.
    So ``cd.x`` is CoxData's property or method x, and a member the class
    lacks is a LookupError.  An attribute of a value of unknown class
    stands for every package method of that name.  Calling an instance
    reaches its class's ``__call__``, ``@`` its ``__matmul__``, and calling a
    class its ``__init__``.  Only functions and methods enter the set.
    """

    def __init__(self, sources: dict[str, str]) -> None:
        self.trees = {module: ast.parse(text) for module, text in sources.items()}
        self.functions = {}  # qualified name -> (node, module, qualified name of its class or None)
        self.members = {}  # qualified class name -> {member name: its function, or None for data}
        for module, tree in self.trees.items():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions[f"{module}.{node.name}"] = node, module, None
                elif isinstance(node, ast.ClassDef):
                    cls = f"{module}.{node.name}"
                    members = self.members[cls] = {}
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            members[item.name] = item
                            self.functions[f"{cls}.{item.name}"] = item, module, cls
                        elif isinstance(item, ast.AnnAssign):
                            members[item.target.id] = None
                    for item in ast.walk(members.get("__init__", ast.Pass())):
                        if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store):
                            members.setdefault(item.attr, None)

    def lookup(self, module: str, name: str) -> tuple[str, str | None]:
        """A module-level name as ("function" or "class", qualified name), ("stdlib", None) or ("value", None)."""
        for node in self.trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                return "function" if isinstance(node, ast.FunctionDef) else "class", f"{module}.{name}"
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id == name for n in ast.walk(node)
            ):
                return "value", None
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if (alias.asname or alias.name).partition(".")[0] == name:
                        if isinstance(node, ast.ImportFrom) and node.level:
                            return self.lookup(node.module, alias.name)
                        return "stdlib", None
        if hasattr(builtins, name):
            return "stdlib", None
        raise LookupError(f"{module} has no name {name!r}")

    def class_of(self, annotation: ast.expr | None, module: str) -> str | None:
        """The package class that an annotation names, or None."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        if isinstance(annotation, ast.Name):
            kind, name = self.lookup(module, annotation.id)
            return name if kind == "class" else None
        return None

    def reach(self, start: str) -> set[str]:
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(self.calls(name))
        return seen

    def calls(self, qualname: str) -> set[str]:
        """The functions and methods that the body of one names."""
        function, module, cls = self.functions[qualname]
        local = {n.arg for n in ast.walk(function) if isinstance(n, ast.arg)}
        for n in ast.walk(function):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                local.add(n.id)
            elif isinstance(n, (ast.FunctionDef, ast.ExceptHandler)) and n.name:
                local.add(n.name)
        types = {a.arg: self.class_of(a.annotation, module) for a in function.args.args}
        if cls and function.args.args and "staticmethod" not in map(ast.unparse, function.decorator_list):
            types[function.args.args[0].arg] = cls
        found = set()

        def member(owner: str, attr: str) -> tuple[str, str | None]:
            if attr not in self.members[owner]:
                raise LookupError(f"{qualname}: {owner} has no member {attr!r}")
            node = self.members[owner][attr]
            if node is None:
                return "value", None
            found.add(f"{owner}.{attr}")
            returns = self.class_of(node.returns, self.functions[f"{owner}.{attr}"][1])
            decorators = set(map(ast.unparse, node.decorator_list))
            return "value" if decorators & {"property", "functools.cached_property"} else "function", returns

        def evaluate(node: ast.expr) -> tuple[str, str | None]:
            """The expression's kind ("value", "class", "function" or "stdlib") and its class, or
            for a function the class it returns."""
            if isinstance(node, ast.Name):
                if node.id in local:
                    return "value", types.get(node.id)
                kind, name = self.lookup(module, node.id)
                if kind == "function":
                    found.add(name)
                    return kind, self.class_of(self.functions[name][0].returns, self.functions[name][1])
                return kind, name
            if isinstance(node, ast.Attribute):
                kind, owner = evaluate(node.value)
                if kind in ("value", "class") and owner:
                    return member(owner, node.attr)
                if kind != "stdlib":
                    found.update(f"{c}.{node.attr}" for c, members in self.members.items() if members.get(node.attr))
                return kind if kind == "stdlib" else "value", None
            if isinstance(node, ast.Call):
                kind, owner = evaluate(node.func)
                for argument in node.args + node.keywords:
                    visit(argument)
                if kind == "class" and "__init__" in self.members[owner]:
                    found.add(f"{owner}.__init__")
                elif kind == "value" and owner:
                    return "value", member(owner, "__call__")[1]
                return "value", owner if kind in ("class", "function") else None
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                _, owner = evaluate(node.left)
                visit(node.right)
                return "value", member(owner, "__matmul__")[1] if owner else None
            for child in ast.iter_child_nodes(node):
                visit(child)
            return "value", None

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.expr):
                evaluate(node)
            else:
                for child in ast.iter_child_nodes(node):
                    visit(child)

        for statement in function.body:
            visit(statement)
        return found


# What both oracles may run, each with the reason it carries no geometry of either side.
SHARED_BY_BOTH_ORACLES = {
    "lattice._add_row": "a row operation: the fiber side's Hermite forms and the section's Smith form both use it",
    "lattice._scale_row": "a row operation, shared like _add_row",
    "lattice._swap_rows": "a row operation, shared like _add_row",
    "lattice.IntegerMatrix.rows": "an accessor of the degree matrix and its section: it reads, computes nothing",
    "lattice.IntegerMatrix.cols": "an accessor, like rows",
    "lattice.IntegerMatrix.column": "an accessor, like rows",
    "lattice.IntegerMatrix.columns": "an accessor, like rows",
    "cox.integral_class": "it reads the class once, before graded_dimension asks either side",
}


def _package_reach() -> _Reach:
    return _Reach({path.stem: path.read_text() for path in Path(toric_cox.__file__).parent.glob("*.py")})


def test_the_two_oracles_share_only_the_allowlisted_code():
    # TestOracleIndependence checks at run time that each side answers without
    # the other's tables; this checks that no helper is shared, whether or not it is patched
    reach = _package_reach()
    fiber, polytope = reach.reach("cox._fiber_dimension"), reach.reach("cox._polytope_dimension")
    assert {"cox._fiber_tables", "cox.CoxData.effective_normals", "polyhedral._dual_generators"} <= fiber
    assert {"cox.CoxData.section_tables", "polyhedral._walk", "lattice.smith_normal_form"} <= polytope
    shared = (fiber & polytope) - SHARED_BY_BOTH_ORACLES.keys()
    assert not shared, sorted(shared)


@pytest.mark.parametrize(
    "source, message",
    [
        ("def f():\n    return g()\n", "m has no name 'g'"),
        ("class CoxData:\n    pass\n\ndef f(cd: CoxData):\n    return cd.weight\n", "m.CoxData has no member 'weight'"),
    ],
)
def test_the_reach_fails_on_a_name_it_cannot_resolve(source, message):
    with pytest.raises(LookupError, match=message):
        _Reach({"m": source}).reach("m.f")


def test_a_class_outside_the_effective_cone_builds_no_level(corpus):
    # on F_3, (5, -1) has weight 4 and lies outside the cube of the fresh
    # tables (radius 0), but the facet normal (0, 1) is negative on it
    cd = cox_data(corpus["hirzebruch_3"])
    assert cd.weight_form.coefficients == (1, 1)
    assert (0, 1) in cd.effective_normals
    tables = cd._fiber
    assert tables[0] == 0 and len(tables[-1][-1]) == 1
    assert cox_module._fiber_dimension(cd, (5, -1)) == 0
    assert cd._fiber is tables and len(tables[-1][-1]) == 1
    assert cox_module._fiber_dimension(cd, (4, 1)) == len(monomial_basis(cd, (4, 1))) > 0
    tables = cd._fiber
    assert tables[0] == 4 and len(tables[-1][-1]) == 6
    # heavier and wider, but outside the cone: neither rebuilt nor grown
    assert cox_module._fiber_dimension(cd, (9, -1)) == 0
    assert cd._fiber is tables and len(tables[-1][-1]) == 6


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


def _box_scan(weights, budget, exact=False):
    """The exponent vectors of weight at most (or exactly) the budget, read off
    the box of per-coordinate bounds in lexicographic order."""
    if budget < 0:
        return []
    ranges = [range(budget // w + 1) for w in weights]
    steps = [range(0, budget + 1, w) for w in weights]
    return [
        e for e, parts in zip(itertools.product(*ranges), itertools.product(*steps))
        if (sum(parts) == budget if exact else sum(parts) <= budget)
    ]


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

    @pytest.mark.parametrize(
        "weights",
        [(), (2,), (1, 2, 3), (1, 1, 1, 1), (2, 1, 3, 1, 1), (1,) * 6, (7, 4, 1, 1, 1, 1)],
    )
    def test_enumerator_matches_a_box_scan(self, weights):
        # from four weights on, the prefix half and the tail half both hold
        # two or more variables
        for budget in range(-2, 7):
            assert cox_module._exponents_up_to_weight(weights, budget) == _box_scan(weights, budget)
            assert cox_module._exponents_up_to_weight(weights, budget, exact=True) == _box_scan(
                weights, budget, exact=True
            )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 5), max_size=6), st.integers(-2, 12), st.booleans())
    def test_enumerator_matches_a_box_scan_on_drawn_weights(self, weights, budget, exact):
        found = cox_module._exponents_up_to_weight(weights, budget, exact=exact)
        assert found == _box_scan(weights, budget, exact=exact)

    def test_enumerator_work_follows_the_listing_not_the_budget(self):
        # 1,001 vectors of weight 10**6: what is built must not grow with the budget
        tracemalloc.start()
        try:
            found = cox_module._exponents_up_to_weight((1000, 1), 10**6, exact=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == [(a, 10**6 - 1000 * a) for a in range(1001)]
        assert peak < 4 << 20

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


@st.composite
def widening_queries(draw):
    """A blow-up of P^2 of rank 2 to 6 and classes whose largest entry first grows, then shrinks.

    Each class is the degree of a drawn exponent vector plus a unit step, so
    most lie in the effective cone and grow the fiber tables: a class past
    their cube rebuilds them, and the later, smaller classes read them.
    """
    rank = draw(st.integers(2, 6))
    cd = cox_data(mixed_blowup(rank, draw(st.integers(0, 1))))
    top = {2: 6, 3: 4, 4: 3}.get(rank, 2)
    sizes = sorted(draw(st.lists(st.integers(0, top), min_size=1, max_size=4)))
    sizes += sorted(draw(st.lists(st.integers(0, top), max_size=3)), reverse=True)
    classes = []
    for size in sizes:
        exponents = [0] * cd.num_vars
        for _ in range(size):
            exponents[draw(st.integers(0, cd.num_vars - 1))] += 1
        step = draw(st.tuples(*[st.integers(-1, 1)] * rank))
        classes.append(tuple(x + y for x, y in zip(cd.degree_of_exponent(exponents), step)))
    return cd, classes


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

    @pytest.mark.parametrize("entry", [1.5, 2.0, Fraction(3, 2), "1"])
    def test_divisor_in_class_reads_its_class(self, corpus_cox, entry):
        # (1.5,) used to come back as the divisor (1.5, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^class vector \(.*\) has an entry that is not an integer$"):
            divisor_in_class(corpus_cox["p2"], (entry,))
        with pytest.raises(ValueError, match=r"^class vector length 2 != rank 1$"):
            divisor_in_class(corpus_cox["p2"], (1, 0))
        assert divisor_in_class(corpus_cox["p2"], (True,)) == divisor_in_class(corpus_cox["p2"], (1,))

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
        radius, base, places = cd._fiber[:3]
        # (p_1, -p_0, 0, ...) and (0, p_2, -p_1, ...) add 0 to a key; combine them to weight 0
        a = (places[1], -places[0]) + (0,) * (cd.cl_rank - 2)
        b = (0, places[2], -places[1]) + (0,) * (cd.cl_rank - 3)
        wa, wb = cd.weight_form(a), cd.weight_form(b)
        delta = tuple(wb * x - wa * y for x, y in zip(a, b))
        assert any(delta) and cd.weight_form(delta) == 0
        lam = tuple(x + y for x, y in zip(mu, delta))
        assert sum(map(mul, lam, places), base) == sum(map(mul, mu, places), base)
        # the shared key is outside the cube of the tables, so it is never looked up there
        assert max(map(abs, lam)) > radius
        assert graded_dimension(cd, lam) == 0
        assert monomial_basis(cd, lam) == ()

    @pytest.mark.parametrize("name", sorted(KEYED_FANS))
    def test_keys_pack_the_facet_values_into_separate_fields(self, name):
        cd = cox_data(KEYED_FANS[name])
        normals = cd.effective_normals
        for radius in range(4 if cd.cl_rank <= 2 else 3):
            _, base, places, guard, shifts, _ = cox_module._fiber_tables(cd, radius)
            width = (guard & -guard).bit_length()  # the guard is the top bit of each field

            def fields(key):
                assert key >= 0 and not key >> len(normals) * width
                return [key >> j * width & (1 << width) - 1 for j in range(len(normals))]

            # a shift adds the facet values of its variable degree, each below the guard bit
            for d, shift in zip(cd.variable_degrees(), shifts):
                assert fields(shift) == [sum(map(mul, n, d)) for n in normals] and not shift & guard, radius
            # every class of the cube has a key of its own, with no guard bit set
            cube = list(itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank))
            keys = {sum(map(mul, lam, places), base) for lam in cube}
            assert len(keys) == len(cube), radius
            for key in keys:
                assert fields(key) and not key & guard, (radius, key)

    @settings(max_examples=100, deadline=None)
    @given(fan_and_classes())
    def test_fiber_dimension_counts_the_enumerated_monomials(self, drawn):
        # monomial_basis enumerates exponents directly, without the fiber tables
        name, classes = drawn
        cd = cox_data(KEYED_FANS[name])
        for lam in classes:
            assert cox_module._fiber_dimension(cd, lam) == len(monomial_basis(cd, lam)), (name, lam)

    @settings(max_examples=60, deadline=None)
    @given(widening_queries())
    def test_fiber_dimension_counts_the_monomials_as_the_cube_widens_and_shrinks(self, drawn):
        # monomial_basis enumerates exponents directly, without the fiber tables
        cd, classes = drawn
        for lam in classes:
            assert cox_module._fiber_dimension(cd, lam) == len(monomial_basis(cd, lam)), lam


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

    def test_fiber_levels_live_on_the_instance(self, corpus):
        cd = cox_data(corpus["p1xp1"])
        tables = cd._fiber
        # a fresh instance holds level 0 of radius 0 only: the constant monomial, per variable
        assert tables[0] == 0 and tables[-1] == ([{tables[1]: 1}],) * 4
        graded_dimension(cd, (3, 0))
        assert cd._fiber is not tables
        tables = cd._fiber
        radius, base, places, _, _, levels = tables

        def key(lam):
            return sum(map(mul, lam, places), base)

        assert radius == 3 and [len(own) for own in levels] == [4, 4, 4, 4]
        assert levels[-1][3] == {key((3, 0)): 4, key((2, 1)): 6, key((1, 2)): 6, key((0, 3)): 4}
        kept = [list(own) for own in levels]
        contents = [[dict(level) for level in own] for own in levels]

        # a lighter class is a lookup: no level is added or changed
        graded_dimension(cd, (1, 1))
        assert cd._fiber is tables
        assert [[dict(level) for level in own] for own in levels] == contents
        assert all(a is b for own, old in zip(levels, kept) for a, b in zip(own, old))

        # a heavier class of the same cube appends levels and keeps the existing level dicts
        graded_dimension(cd, (3, 3))
        assert cd._fiber is tables
        assert [len(own) for own in levels] == [7, 7, 7, 7] and levels[-1][6] == {key((3, 3)): 16}
        assert all(a is b for own, old in zip(levels, kept) for a, b in zip(own, old))
        assert [[dict(level) for level in own[:4]] for own in levels] == contents

        # a class outside the cube rebuilds the tables at its own reach, up to its own weight
        assert graded_dimension(cd, (4, 0)) == 5
        assert cd._fiber[0] == 4 and [len(own) for own in cd._fiber[-1]] == [5, 5, 5, 5]
        assert cox_data(corpus["p1xp1"])._fiber[0] == 0

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
                    assert cone_contains(eff.facet_normals, cd.cl_rank, lam)

    def test_lattice_points_of_cone_are_realized_on_corpus(self, corpus_cox):
        # the converse direction, checked empirically on a bounded window
        for name, cd in corpus_cox.items():
            eff = cd.effective_cone
            radius = 2 if cd.cl_rank <= 2 else 1
            for lam in itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank):
                if cone_contains(eff.facet_normals, cd.cl_rank, lam):
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
        family = polytope_family(cd.fan.rays, cd.fan.dim)
        for mu in itertools.product(range(-2, 3), repeat=2):
            twisted = divisor + divisor_in_class(cd, mu)
            # the characters m with div(m) + D >= 0
            sections = len(family.lattice_points(twisted.coefficients))
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
        # zeros of every accepted type are dropped as they are read
        assert make_polynomial(cd, {(1, 0, 0): 0, (0, 1, 0): Fraction(0), (0, 0, 1): 0.0, (1, 1, 0): False}).terms == {}
        # two keys that read as one exponent: the last coefficient holds, a zero included
        assert make_polynomial(cd, {(1, 0, 0): 5, b"\x01\x00\x00": 0}).is_zero()
        assert make_polynomial(cd, {(1, 0, 0): 0, b"\x01\x00\x00": 5}).terms == {(1, 0, 0): 5}

    # Fraction parses text, so "1/2" used to be stored as Fraction(1, 2), and inf escaped as OverflowError
    @pytest.mark.parametrize(
        "bad, error",
        [("1/2", TypeError), ("3", TypeError), (" 2 ", TypeError), (None, TypeError), ([1], TypeError),
         (float("inf"), ValueError), (float("-inf"), ValueError), (float("nan"), ValueError)],
    )
    def test_coefficients_other_than_exact_or_finite_numbers_are_refused(self, corpus_cox, bad, error):
        cd = corpus_cox["p2"]
        with pytest.raises(error):
            cd.monomial((1, 0, 0), bad)
        with pytest.raises(error):
            make_polynomial(cd, {(0, 1, 0): 1, (1, 0, 0): bad})

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


def _reference_partial(p, index):
    """The formal partial in ``x_index``, term by term from tuple slices: the reference
    that ``GradedPolynomial.partial`` and ``derivation`` are checked against."""
    return make_polynomial(p.cox, {
        e[:index] + (e[index] - 1,) + e[index + 1:]: c * e[index] for e, c in p.terms.items() if e[index]
    })


class TestPolynomialProperties:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(SMOOTH_COMPLETE), data=st.data())
    def test_ring_laws_keep_the_invariant(self, corpus_cox, name, data):
        cd = corpus_cox[name]
        p, q, r = (_polynomial(data, cd) for _ in range(3))
        assert (p - p).terms == {}
        assert p * (q + r) == p * q + p * r
        for result in (p + q, p - q, p * q, -p, p * Fraction(2, 3), 0 * p, 2 * p, p * 6, True * p, p.partial(0)):
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
        # derivation and partial read one routine; the tuple-slice splice is the reference
        cd = corpus_cox[name]
        em = build_euler_module(cd)
        if data.draw(st.booleans()):
            lam = cd.degree_of_exponent(data.draw(st.tuples(*[st.integers(0, 2)] * cd.num_vars)))
            chosen = data.draw(st.lists(st.sampled_from(monomial_basis(cd, lam)), max_size=4))
            coefficient = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
            p = make_polynomial(cd, {e: data.draw(coefficient) for e in chosen})
        else:
            p = _polynomial(data, cd)
        reference = tuple(_reference_partial(p, i) for i in range(cd.num_vars))
        assert tuple(p.partial(i) for i in range(cd.num_vars)) == reference
        if not p.is_homogeneous():
            return
        components = derivation(em, p).components
        assert components == tuple(p.partial(i) for i in range(cd.num_vars))
        assert components == reference
        assert all(_valid(c) for c in components)

    def test_an_integral_partial_of_a_fraction_is_an_int(self, corpus_cox):
        cd = corpus_cox["p2"]
        p = cd.monomial((2, 0, 0), Fraction(1, 2))
        for d in (p.partial(0), derivation(build_euler_module(cd), p).components[0], _reference_partial(p, 0)):
            assert d.terms == {(1, 0, 0): 1} and type(d.terms[(1, 0, 0)]) is int
