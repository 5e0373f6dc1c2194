"""Cone duality, membership and lattice points."""

import itertools
import random
import re
import time
from fractions import Fraction
from math import comb, gcd, prod
from operator import mul

import pytest
from fan_strategies import product_fan
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_cox import polyhedral as polyhedral_module
from toric_cox.errors import UnboundedPolytope
from toric_cox.lattice import (
    IntegerMatrix,
    hermite_basis,
    kernel_basis,
    primitive_vector,
)
from toric_cox.polyhedral import (
    RationalCone,
    _homogenized_generators,
    cone_contains,
    cone_from_generators,
    generators_from_inequalities,
    polytope_family,
    separable,
)


class TestDualCone:
    """The dual of a cone is the cone of its facet normals; in canonical form it
    is the same pair with its two fields swapped, so dualizing twice gives the
    cone back."""

    def test_orthant_self_dual(self):
        c = cone_from_generators([(1, 0), (0, 1)], 2)
        assert cone_from_generators(c.facet_normals, 2) == RationalCone(2, ((0, 1), (1, 0)), c.generators)

    def test_obtuse_cone(self):
        c = cone_from_generators([(1, 0), (-1, 1)], 2)
        assert cone_from_generators(c.facet_normals, 2) == RationalCone(2, ((0, 1), (1, 1)), c.generators)

    def test_full_space_dualizes_to_origin(self):
        c = cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
        assert cone_from_generators(c.facet_normals, 2) == RationalCone(2, (), c.generators)

    def test_ray_dualizes_to_halfplane(self):
        c = cone_from_generators([(1, 0)], 2)
        d = cone_from_generators(c.facet_normals, 2)
        assert d == RationalCone(2, ((0, -1), (0, 1), (1, 0)), ((1, 0),))
        assert cone_from_generators(d.facet_normals, 2) == c

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1,
            max_size=5,
        )
    )
    def test_double_dual_is_identity_on_canonical_form(self, gens):
        c = cone_from_generators(gens, 3)
        d = cone_from_generators(c.facet_normals, 3)
        assert d == RationalCone(3, c.facet_normals, c.generators)
        assert cone_from_generators(d.facet_normals, 3) == c

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    )
    def test_dual_pairing_nonnegative(self, gens, point):
        c = cone_from_generators(gens, 2)
        d = cone_from_generators(c.facet_normals, 2)
        if cone_contains(c.facet_normals, 2, point):
            assert all(sum(a * b for a, b in zip(y, point)) >= 0 for y in d.generators)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-2, 2),
                st.integers(-2, 2),
                st.integers(-2, 2),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_double_dual_in_dimension_four(self, gens):
        c = cone_from_generators(gens, 4)
        assert cone_from_generators(c.facet_normals, 4) == RationalCone(4, c.facet_normals, c.generators)
        for g in c.generators:
            assert cone_contains(c.facet_normals, 4, g)


def reference_dual_generators(vectors, dim):
    """Minimal generators of {y : <g, y> >= 0 for all g in vectors}, by brute force.

    Every (rank - 1)-subset of the vectors is tried, so canonicalising one
    side of a cone this way takes two full subset enumerations; the
    constructors under test take none.
    """
    rows = sorted({primitive_vector(v) for v in vectors if any(v)})
    if not rows:
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return tuple(sorted(units + [tuple(-x for x in e) for e in units]))
    lineality = kernel_basis(IntegerMatrix.from_rows(rows)).columns()
    out = set()
    for basis_vec in lineality:
        p = primitive_vector(basis_vec)
        out.add(p)
        out.add(tuple(-x for x in p))
    for subset in itertools.combinations(rows, len(hermite_basis(rows, dim)) - 1):
        stacked = list(subset) + [list(l) for l in lineality]
        if stacked:
            candidates = kernel_basis(IntegerMatrix.from_rows(stacked))
        else:
            candidates = IntegerMatrix.identity(dim)
        if candidates.cols != 1:
            continue
        y = candidates.column(0)
        products = [sum(a * b for a, b in zip(g, y)) for g in rows]
        if all(p >= 0 for p in products):
            out.add(primitive_vector(y))
        elif all(p <= 0 for p in products):
            out.add(primitive_vector(tuple(-x for x in y)))
    return tuple(sorted(out))


@st.composite
def vector_lists(draw):
    """A dimension 1-4 and a list of vectors, possibly empty, with zero vectors,
    lines and lower-dimensional spans mixed in."""
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=6))
    if vectors and draw(st.booleans()):
        vectors.append(tuple(-x for x in vectors[0]))
    if draw(st.booleans()):
        k = draw(st.integers(0, dim - 1))
        vectors = [v[:k] + (0,) + v[k + 1:] for v in vectors]
    if draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))), (0,) * dim)
    return dim, vectors


@st.composite
def five_dimensional_vectors(draw):
    """Up to 9 vectors in dimension 5, up to two of them the negatives of
    others, so that the cone has lineality."""
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 5), max_size=7))
    lines = draw(st.integers(0, min(2, len(vectors))))
    return vectors + [tuple(-x for x in v) for v in vectors[:lines]]


# Explicit cases: the empty list, including in dimension 0, a zero vector, a
# line and a lower-dimensional span.
EDGE_CASES = [(0, []), (2, []), (3, [(0, 0, 0)]), (2, [(1, 1), (-1, -1)]), (3, [(1, 0, 0), (0, 1, 0)])]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


class TestAgainstTwoPassReference:
    @settings(max_examples=150, deadline=None)
    @given(vector_lists())
    @with_edge_cases
    def test_cone_from_generators(self, case):
        dim, vectors = case
        normals = reference_dual_generators(vectors, dim)
        expected = RationalCone(dim, reference_dual_generators(normals, dim), normals)
        assert cone_from_generators(vectors, dim) == expected

    @settings(max_examples=150, deadline=None)
    @given(vector_lists())
    @with_edge_cases
    def test_generators_from_inequalities(self, case):
        dim, vectors = case
        generators = reference_dual_generators(vectors, dim)
        assert generators_from_inequalities(vectors, dim) == generators
        expected = RationalCone(dim, generators, reference_dual_generators(generators, dim))
        assert cone_from_generators(generators, dim) == expected

    @settings(max_examples=40, deadline=None)
    @given(five_dimensional_vectors())
    def test_dimension_five_with_lines(self, vectors):
        normals = reference_dual_generators(vectors, 5)
        generators = reference_dual_generators(normals, 5)
        assert cone_from_generators(vectors, 5) == RationalCone(5, generators, normals)
        assert generators_from_inequalities(vectors, 5) == normals

    def test_no_subset_enumeration_and_no_kernel_for_pointed_full_cones(self, monkeypatch):
        calls = []
        monkeypatch.setattr(polyhedral_module, "kernel_basis", lambda a: calls.append(a))
        monkeypatch.setattr(polyhedral_module, "itertools", None, raising=False)
        c = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
        assert c.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1))
        assert cone_from_generators(c.facet_normals, 3) == RationalCone(3, c.facet_normals, c.generators)
        assert generators_from_inequalities(c.generators, 3) == c.facet_normals
        assert calls == []

    @pytest.mark.parametrize("construct", [cone_from_generators, generators_from_inequalities])
    @pytest.mark.parametrize("vectors", [[(1, 0, 0)], [(1, 0), (0, 1, 1)], [()]])
    def test_vector_length_must_match_dimension(self, construct, vectors):
        with pytest.raises(ValueError):
            construct(vectors, 2)

    @pytest.mark.parametrize("construct", [cone_from_generators, generators_from_inequalities])
    def test_entries_must_be_integers(self, construct):
        # a float entry raises instead of being truncated; bools read as 0 and 1
        with pytest.raises(ValueError, match="not an integer"):
            construct([(1.5, 0), (0, 1)], 2)
        assert construct([(True, False), (0, 1)], 2) == construct([(1, 0), (0, 1)], 2)


class TestConeContains:
    def test_interior_point_of_obtuse_cone(self):
        c = cone_from_generators([(1, 0), (-1, 1)], 2)
        assert cone_contains(c.facet_normals, 2, (0, 1), "relative_interior")

    def test_origin_is_never_interior_unless_zero_cone(self):
        c = cone_from_generators([(1, 0), (-1, 1)], 2)
        assert not cone_contains(c.facet_normals, 2, (0, 0), "relative_interior")
        zero = cone_from_generators([], 2)
        assert cone_contains(zero.facet_normals, 2, (0, 0), "relative_interior")

    def test_boundary_ray(self):
        c = cone_from_generators([(1, 0), (0, 1)], 2)
        assert cone_contains(c.facet_normals, 2, (1, 0), "closure")
        assert not cone_contains(c.facet_normals, 2, (1, 0), "relative_interior")

    def test_dimension_mismatch(self):
        c = cone_from_generators([(1, 0)], 2)
        with pytest.raises(ValueError):
            cone_contains(c.facet_normals, 2, (1, 0, 0))

    def test_lower_dimensional_cone_relative_interior(self):
        ray = cone_from_generators([(1, 1)], 2)
        assert cone_contains(ray.facet_normals, 2, (2, 2), "relative_interior")
        assert not cone_contains(ray.facet_normals, 2, (1, 0), "closure")

    def test_relative_interior_needs_every_equation(self):
        ray = cone_from_generators([(1, 1)], 2)
        # positive on the facet normal (1, 1), but off the line x = y
        assert not cone_contains(ray.facet_normals, 2, (1, 2), "relative_interior")


class TestSeparable:
    @pytest.mark.parametrize(
        "positive, negative, vanishing, dim, expected",
        [
            ([(1, 0)], [(-1, 0)], [], 2, True),
            ([(1, 0)], [(0, 1)], [], 2, True),
            # the only forms vanishing on (0, 1) are multiples of x_0
            ([(1, 0)], [(1, 1)], [(0, 1)], 2, False),
            ([(1, 0)], [(-1, 1)], [(0, 1)], 2, True),
            # (1, 1) lies in the cone of the positive side
            ([(1, 0), (0, 1)], [(1, 1)], [], 2, False),
            # one vector on both sides
            ([(1, 2)], [(1, 2)], [], 2, False),
            ([(1, 0, 0), (0, 1, 0)], [(1, 1, 1)], [(0, 0, 1)], 3, False),
            ([(1, 0, 0), (0, 1, 0)], [(-1, -1, 1)], [(0, 0, 1)], 3, True),
            # a strict side inside the span of the vanishing set
            ([(1, 1, 0)], [(0, 0, 1)], [(1, 0, 0), (0, 1, 0)], 3, False),
        ],
    )
    def test_cases(self, positive, negative, vanishing, dim, expected):
        assert separable(positive, negative, vanishing, dim) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda d: st.tuples(
        st.just(d),
        *(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=3) for _ in range(3)),
    )))
    def test_against_forms_in_a_box(self, case):
        # A feasible system <x, l> >= 1, <+-z, l> >= 0 has a solution cut out
        # by a nonsingular subsystem of at most two rows; by Cramer's rule
        # |det| times it is integral, with entries at most 4 in absolute
        # value when d <= 2 and the vectors have entries in [-2, 2].
        dim, positive, negative, vanishing = case

        def pairing(x, form):
            return sum(a * b for a, b in zip(x, form))

        found = any(
            all(pairing(x, form) > 0 for x in positive)
            and all(pairing(x, form) < 0 for x in negative)
            and all(pairing(z, form) == 0 for z in vanishing)
            for form in itertools.product(range(-4, 5), repeat=dim)
        )
        assert separable(positive, negative, vanishing, dim) == found


def satisfies(rows, point) -> bool:
    """Whether the point meets every inequality <normal, m> >= -offset of the
    (normal, offset) rows; the reference membership test."""
    return all(sum(a * b for a, b in zip(normal, point)) >= -offset for normal, offset in rows)


def brute_force_points(rows, dim) -> tuple:
    """Independent oracle: test every point of the fixed box [-2, 2]^d.

    Every polytope passed here lies inside that box, and the scan shares no
    code with the vertex or lattice-point machinery under test.
    """
    return tuple(pt for pt in itertools.product(range(-2, 3), repeat=dim) if satisfies(rows, pt))


def solve_rational(rows, rhs) -> tuple | None:
    """Reference solver: the unique solution of a square system by Gauss-Jordan
    elimination over Fractions, or None if the system is singular."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return None
        mat[c], mat[pivot] = mat[pivot], mat[c]
        inv = mat[c][c]
        mat[c] = [x / inv for x in mat[c]]
        for i in range(n):
            if i != c and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return tuple(row[n] for row in mat)


def rational_vertices(rows, dim) -> tuple:
    """Reference vertex set: a Fraction solve for every dimension-sized subset of the rows."""
    seen = set()
    for subset in itertools.combinations(rows, dim):
        solution = solve_rational([n for n, _ in subset], [-a for _, a in subset])
        if solution is not None and satisfies(rows, solution):
            seen.add(solution)
    return tuple(sorted(seen))


def vertex_box_points(normals, offsets, dim) -> tuple:
    """Reference lattice points through the vertices, the enumerator the elimination
    tables replaced: scan the integer bounding box of the vertices and keep the
    points that satisfy every inequality."""
    vertices = _homogenized_generators(normals, offsets, dim)
    if not vertices:
        return ()
    box = [
        range(min(-(-num[c] // det) for num, det in vertices), max(num[c] // det for num, det in vertices) + 1)
        for c in range(dim)
    ]
    return tuple(
        pt
        for pt in itertools.product(*box)
        if all(sum(n * x for n, x in zip(normal, pt)) + a >= 0 for normal, a in zip(normals, offsets))
    )


@st.composite
def boxed_polytopes(draw):
    """(rows, d): the (normal, offset) rows of a polytope inside [-2, 2]^d for
    d = 0..4, a box, possibly empty or a single point, cut by random
    half-spaces (zero normals and negative offsets included), sometimes with
    a plus/minus normal pair that cuts out a hyperplane or a slab."""
    dim = draw(st.integers(0, 4))
    rows = []
    for i in range(dim):
        unit = tuple(int(i == j) for j in range(dim))
        low, high = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows += [(unit, -low), (tuple(-x for x in unit), high)]
    cuts = draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * dim), st.integers(-3, 3)), max_size=4))
    if cuts and draw(st.booleans()):
        normal, offset = cuts[0]
        cuts.append((tuple(-x for x in normal), -offset + draw(st.integers(-1, 1))))
    return rows + cuts, dim


def square(*cuts):
    return [((1, 0), 2), ((0, 1), 2), ((-1, 0), 2), ((0, -1), 2), *cuts], 2


# Explicit cases: ambient dimension 0 (no rows, feasible, infeasible), the
# single point (1, -2, 0), a zero normal with a negative offset (empty) and
# with offset 0 (no cut), the plane x + y = -1 in a cube, and the line
# 2x = 1, which holds no lattice point.
POLYTOPE_EDGE_CASES = [
    ([], 0),
    ([((), 0), ((), 2)], 0),
    ([((), 0), ((), -1)], 0),
    ([((1, 0, 0), -1), ((-1, 0, 0), 1), ((0, 1, 0), 2), ((0, -1, 0), -2), ((0, 0, 1), 0), ((0, 0, -1), 0)], 3),
    square(((0, 0), -1)),
    square(((0, 0), 0), ((-1, -1), -3)),
    ([((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2), ((-1, 0, 0), 2),
      ((0, -1, 0), 2), ((0, 0, -1), 2), ((1, 1, 0), 1), ((-1, -1, 0), -1)], 3),
    square(((2, 0), -1), ((-2, 0), 1)),
]


def with_polytope_edge_cases(test):
    for case in POLYTOPE_EDGE_CASES:
        test = example(case)(test)
    return test


def generic_normals(seed: str, dim: int, n: int):
    """``n`` seeded random normals in dimension ``dim`` with a bounded family."""
    rng = random.Random(seed)
    while True:
        normals = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(n)]
        try:
            polytope_family(normals, dim)
            return normals
        except UnboundedPolytope:
            continue


def reference_eliminate(normals, ambient_dim):
    """``polyhedral._eliminate`` as it was before multiplier supports were kept as
    bit sets, verbatim: Chernikov's count walks both multipliers."""
    n = len(normals)
    rows = {tuple(int(i == j) for j in range(n)): tuple(v) for i, v in enumerate(normals)}
    lower, upper = [], []
    for k in reversed(range(ambient_dim)):
        positive = [(y, normal) for y, normal in rows.items() if normal[k] > 0]
        negative = [(y, normal) for y, normal in rows.items() if normal[k] < 0]
        lower.append(tuple((normal[:k], normal[k], y) for y, normal in positive))
        upper.append(tuple((normal[:k], -normal[k], y) for y, normal in negative))
        derived = {y: normal[:k] for y, normal in rows.items() if not normal[k]}
        support_bound = ambient_dim - k + 1
        for p_mult, p_normal in positive:
            for q_mult, q_normal in negative:
                if sum(1 for a, b in zip(p_mult, q_mult) if a or b) > support_bound:
                    continue
                s, t = -q_normal[k], p_normal[k]
                y = [s * a + t * b for a, b in zip(p_mult, q_mult)]
                normal = [s * a + t * b for a, b in zip(p_normal[:k], q_normal[:k])]
                g = gcd(*y, *normal)
                derived[tuple(v // g for v in y)] = tuple(x // g for x in normal)
        rows = derived
    return tuple(rows), tuple(reversed(lower)), tuple(reversed(upper))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_elimination_tables_match_the_reference(dim):
    # level 0 and every lower/upper row, in the same order, on seeded bounded
    # normals and on raw ones (zero entries, unbounded systems)
    rng = random.Random(f"bitset-{dim}")
    for trial in range(12):
        n = rng.randint(dim + 1, 2 * dim + 3)
        bounded = generic_normals(f"bitset-{dim}-{trial}", dim, n)
        raw = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]
        for normals in (bounded, raw):
            assert polyhedral_module._eliminate(normals, dim) == reference_eliminate(normals, dim), normals


class TestPolytopeLatticePoints:
    def test_twice_standard_simplex(self):
        rows = [((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)]
        points = polytope_family([n for n, _ in rows], 2).lattice_points([a for _, a in rows])
        assert len(points) == 6
        assert points == brute_force_points(rows, 2)

    def test_empty_polytope(self):
        assert polytope_family([(1,), (-1,)], 1).lattice_points((-1, 0)) == ()

    def test_unit_square(self):
        family = polytope_family([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
        assert family.lattice_points((0, 0, 1, 1)) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_unbounded_family_is_rejected_at_construction(self):
        for normals in ([(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 1)]):
            with pytest.raises(UnboundedPolytope):
                polytope_family(normals, 2)

    def test_family_serves_every_offset_vector(self):
        # the triangle conv{(0,0), (2,0), (0,2)} scaled by t, then emptied
        family = polytope_family([(1, 0), (0, 1), (-1, -1)], 2)
        for t in range(4):
            assert len(family.lattice_points((0, 0, t))) == (t + 1) * (t + 2) // 2
        assert family.lattice_points((0, 0, -1)) == ()
        with pytest.raises(ValueError):
            family.lattice_points((0, 0))

    def test_vertices_are_integer_pairs(self):
        pairs = _homogenized_generators([(2, 0), (0, 2), (-2, -1)], (1, 1, 2), 2)
        assert all(det > 0 for _, det in pairs)
        half = Fraction(-1, 2)
        assert {tuple(Fraction(x, det) for x in num) for num, det in pairs} == {
            (half, half),
            (half, 3),
            (Fraction(5, 4), half),
        }

    def test_zero_dimensional_polytope(self):
        family = polytope_family([], 0)
        assert family.lattice_points(()) == ((),)

    def test_entries_must_be_integers(self):
        # truncating 2.9 would give 0 <= x <= 2, with the points 0, 1 and 2
        family = polytope_family([(1,), (-1,)], 1)
        with pytest.raises(ValueError, match="not an integer"):
            family.lattice_points((0, 2.9))
        with pytest.raises(ValueError, match="not an integer"):
            polytope_family([(1,), (-1.0,)], 1)
        # bools read as 0 and 1
        assert family.lattice_points((False, True)) == family.lattice_points((0, 1)) == ((0,), (1,))
        assert family.count_lattice_points((False, True)) == 2
        # the pack that the queries above built is no part of equality or hash
        assert polytope_family([(True,), (-1,)], 1) == family
        assert hash(polytope_family([(True,), (-1,)], 1)) == hash(family)

    @pytest.mark.parametrize(
        "normals, dim, params",
        [
            ([(1,), (-1,)], 1, (1.5, 0.5)),
            ([(1,), (-1,)], 1, (0, 2.0)),
            ([(1, 0), (0, 1), (-1, -1)], 2, (1.5, 0.5, 0)),
            ([(1, 0), (0, 1), (-1, -1)], 2, (0, 0, "2")),
        ],
    )
    def test_the_count_reads_its_parameters_like_the_list(self, normals, dim, params):
        # the count gave 2.0 for (1.5, 0.5) in dimension 1 and a TypeError in dimension 2
        family = polytope_family(normals, dim)
        message = re.escape(f"parameters {params!r} has an entry that is not an integer")
        for query in (family.lattice_points, family.count_lattice_points):
            with pytest.raises(ValueError, match=f"^{message}$"):
                query(params)

    @settings(max_examples=200, deadline=None)
    @given(boxed_polytopes())
    @with_polytope_edge_cases
    def test_box_scan_oracle(self, polytope):
        rows, dim = polytope
        normals, offsets = [n for n, _ in rows], [a for _, a in rows]
        family = polytope_family(normals, dim)
        assert family.lattice_points(offsets) == brute_force_points(rows, dim)
        # the count shares the list's walk, so it is held against the scan too
        assert family.count_lattice_points(offsets) == len(brute_force_points(rows, dim))
        if dim <= 3:  # the Fraction reference takes C(rows, 4) solves at d = 4
            # a bounded polyhedron has no generator at height 0, and the others
            # divided by their heights are its vertices, each once
            generators = _homogenized_generators(normals, offsets, dim)
            vertices = sorted(tuple(Fraction(x, t) for x in num) for num, t in generators)
            assert all(t for _, t in generators) and tuple(vertices) == rational_vertices(rows, dim)

    @pytest.mark.parametrize(
        "rows, vertices",
        [
            ([((1, 0), 0), ((0, 1), 0)], {((0, 0), 1)}),  # orthant: pointed, unbounded
            ([((1, 0), 0)], None),  # half plane
            ([((1, 0), 0), ((-1, 0), 1)], None),  # strip 0 <= x <= 1
            ([((1, 1), 0), ((1, -1), 0)], {((0, 0), 1)}),  # wedge x >= |y|
        ],
    )
    def test_unbounded_polyhedra_have_a_vertex_only_without_a_line(self, rows, vertices):
        # every unbounded polyhedron has a generator at height 0; a line puts a
        # plus/minus pair there, and without one the vertices are the rest
        generators = _homogenized_generators([n for n, _ in rows], [a for _, a in rows], 2)
        recession = {num for num, t in generators if not t}
        has_line = any(tuple(-x for x in num) in recession for num in recession)
        assert recession and has_line == (vertices is None)
        if vertices is not None:
            assert {(num, t) for num, t in generators if t} == vertices

    # the rays of P^2 and of P^1; a product's rays are its factors' rays, each
    # padded with zeros on the other factors' coordinates
    P2, P1 = ((1, 0), (0, 1), (-1, -1)), ((1,), (-1,))

    @pytest.mark.parametrize("factors", [(P2, P2), (P2, P2, P1), (P2, P2, P2)], ids=["4", "5", "6"])
    def test_anticanonical_products_against_the_fraction_reference(self, factors):
        dim = sum(len(f[0]) for f in factors)
        rays, before = [], 0
        for factor in factors:
            width = len(factor[0])
            rays += [(0,) * before + ray + (0,) * (dim - before - width) for ray in factor]
            before += width
        generators = _homogenized_generators(rays, [1] * len(rays), dim)
        vertices = sorted(tuple(Fraction(x, t) for x in num) for num, t in generators)
        assert len(vertices) == 3 ** factors.count(self.P2) * 2 ** factors.count(self.P1)
        assert tuple(vertices) == rational_vertices([(ray, 1) for ray in rays], dim)

    # (dim, n): rows of level 0 and, per coordinate k, the rows of level k + 1
    # that bound x_k from either side, pinned at their first computation.
    # Without Chernikov's rule level 1 of the first family holds 15,899 rows.
    PRUNED_TABLE_SIZES = {
        (4, 14): (129, [99, 89, 36, 13]),
        (5, 16): (248, [310, 222, 130, 62, 16]),
    }

    @pytest.mark.parametrize("dim, n", sorted(PRUNED_TABLE_SIZES))
    def test_elimination_tables_stay_small(self, dim, n):
        normals = generic_normals(f"fm-{dim}-{n}-0", dim, n)
        start = time.process_time()
        family = polytope_family(normals, dim)
        assert time.process_time() - start < 2.0
        sizes = [len(lower) + len(upper) for lower, upper in zip(family.lower, family.upper)]
        assert (len(family.level_zero), sizes) == self.PRUNED_TABLE_SIZES[dim, n]
        # the coefficient on x_k is stored positive on both sides
        assert all(c > 0 for side in (family.lower, family.upper) for level in side for _, c, _ in level)
        # rows are divided by their content, which keeps the integers small
        assert all(gcd(*y) == 1 for y in family.level_zero)
        rng = random.Random(f"offsets-{dim}-{n}")
        for _ in range(4):
            # nonnegative offsets keep the origin inside
            offsets = [rng.randint(0, 12) for _ in range(n)]
            points = family.lattice_points(offsets)
            assert (0,) * dim in points
            assert points == vertex_box_points(normals, offsets, dim)

    def test_level_zero_decides_rational_emptiness(self):
        # the line 2x = 1 is non-empty over Q and holds no lattice point
        normals = [(2, 0), (-2, 0), (0, 1), (0, -1)]
        family = polytope_family(normals, 2)
        for offsets, feasible in [((-1, 1, 1, 1), True), ((-1, 0, 1, 1), False), ((0, 0, 0, -1), False)]:
            assert all(sum(map(mul, f, offsets)) >= 0 for f in family.level_zero) == feasible
            assert bool(_homogenized_generators(normals, offsets, 2)) == feasible
            assert family.lattice_points(offsets) == ()

    def test_tables_are_built_once(self, monkeypatch):
        family = polytope_family([(1, 0), (0, 1), (-1, -1)], 2)
        monkeypatch.setattr(polyhedral_module, "_eliminate", None)
        assert family.lattice_points((0, 0, 2)) == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
        assert family.linear_tables(IntegerMatrix.from_rows([(0,), (0,), (1,)])).count_lattice_points((2,)) == 6


def with_linear_edge_cases(test):
    for case in POLYTOPE_EDGE_CASES:
        for rank in (0, 2):
            test = example(case, rank, 0)(test)
    return test


class TestLinearTables:
    """Counting in parameter coordinates against listing at the composed offsets."""

    @settings(max_examples=200, deadline=None)
    @given(boxed_polytopes(), st.integers(0, 3), st.integers(0, 2**16))
    @with_linear_edge_cases
    def test_count_equals_the_number_of_listed_points(self, polytope, rank, seed):
        # offsets a + S q for a seeded S and q: the section [S | a] applied
        # to the parameters (q, 1), which often empties the polytope
        rows, dim = polytope
        family = polytope_family([normal for normal, _ in rows], dim)
        rng = random.Random(seed)
        sections = [tuple(rng.randint(-1, 1) for _ in range(rank)) + (a,) for _, a in rows]
        q = tuple(rng.randint(-2, 2) for _ in range(rank))
        offsets = [sum(map(mul, row, q + (1,))) for row in sections]
        composed = family.linear_tables(IntegerMatrix(tuple(sections), zero_width=0 if sections else rank + 1))
        assert composed.count_lattice_points(q + (1,)) == len(family.lattice_points(offsets))
        assert composed.lattice_points(q + (1,)) == family.lattice_points(offsets)

    def test_zero_dimensional_family_counts_the_origin(self):
        tables = polytope_family([], 0).linear_tables(IntegerMatrix.zero(0, 2))
        assert tables.count_lattice_points((3, -5)) == 1 == len(polytope_family([], 0).lattice_points(()))

    def test_triangle_in_its_scale(self):
        # the triangle of family_serves_every_offset_vector, with offsets (0, 0, t) = S t
        family = polytope_family([(1, 0), (0, 1), (-1, -1)], 2)
        tables = family.linear_tables(IntegerMatrix.from_rows([(0,), (0,), (1,)]))
        assert [tables.count_lattice_points((t,)) for t in range(-2, 5)] == [0, 0, 1, 3, 6, 10, 15]

    def test_section_and_parameters_must_fit(self):
        family = polytope_family([(1, 0), (0, 1), (-1, -1)], 2)
        with pytest.raises(ValueError):
            family.linear_tables(IntegerMatrix.from_rows([(0,), (1,)]))
        with pytest.raises(ValueError):
            family.linear_tables(IntegerMatrix.from_rows([(0,), (0,), (1,)])).count_lattice_points((1, 2))


class TestRowPack:
    """The deeper rows' constants come off one packed product, in fields sized by the largest reach queried."""

    @staticmethod
    def box_scan_count(rows, offsets, dim) -> int:
        # rows 2i and 2i + 1 are x_i >= -offsets[2i] and x_i <= offsets[2i + 1]
        box = [range(-offsets[2 * i], offsets[2 * i + 1] + 1) for i in range(dim)]
        return sum(
            all(sum(map(mul, normal, point)) + a >= 0 for normal, a in zip(rows, offsets))
            for point in itertools.product(*box)
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_full_fields_a_rebuild_and_a_small_class(self, seed):
        # a box cut by random half-spaces, its offsets the parameters; the
        # largest deeper form f is met at R * |f|_1 by putting R on its
        # support, which fills its field, and then R + 1 there widens the pack
        rng = random.Random(f"row-pack-{seed}")
        dim = rng.randint(1, 4)
        rows = [tuple(sign * (i == j) for j in range(dim)) for i in range(dim) for sign in (1, -1)]
        rows += [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 4))]
        family = polytope_family(rows, dim)
        deeper = [f for side in (family.lower, family.upper) for level in side for _, _, f in level]
        widest = max(deeper, key=lambda f: sum(map(abs, f)))
        reach = rng.randint(1, 2)
        full = [reach if y else rng.randint(0, reach) for y in widest]
        wider = [reach + 1 if y else a for y, a in zip(widest, full)]
        small = [rng.randint(0, 1) for _ in rows]
        for offsets, built in ((full, reach), (wider, reach + 1), (small, reach + 1)):
            count = family.count_lattice_points(offsets)
            assert family._pack[0] == built
            assert count == len(family.lattice_points(offsets)) == self.box_scan_count(rows, offsets, dim)


@st.composite
def wide_planar_polytopes(draw):
    """The (normal, offset) rows of a 2-dimensional polytope of width up to 401 in x_0 whose rows bounding x_1
    (the last level) number one on one side and two to four on the other.

    The one-row side is the line x_1 = (s x_0 + t) / c; each row of the other
    side, x_1 = (s_i x_0 + t_i) / c_i, has c_i >= 20, a slope within 2.5 / c_i
    of s / c and, mostly, a lower intercept, so each x_0 holds a few dozen
    points at most and the listing stays cheap.  Tied slopes, empty polytopes
    and single columns all occur.  Changing the sign of x_1 swaps the sides.
    """
    c, s, t = draw(st.integers(1, 60)), draw(st.integers(-100, 100)), draw(st.integers(-100, 100))
    rows = [((1, 0), draw(st.integers(0, 200))), ((-1, 0), draw(st.integers(0, 200))), ((s, -c), t)]
    for _ in range(draw(st.integers(2, 4))):
        ci = draw(st.integers(20, 60))
        si = round(s * ci / c) + draw(st.integers(-2, 2))
        ti = round(t * ci / c) - draw(st.integers(-20, 200))
        rows.append(((-si, ci), -ti))
    if draw(st.booleans()):
        rows = [((a, -b), offset) for (a, b), offset in rows]
    return rows


class TestFlatLastLevelCount:
    """The count sums the last level's interval lengths, against listing and closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(wide_planar_polytopes())
    def test_count_equals_the_number_of_listed_points(self, rows):
        family = polytope_family([normal for normal, _ in rows], 2)
        sides = sorted(map(len, (family.lower[1], family.upper[1])))
        assert sides[0] == 1 and sides[1] >= 2
        offsets = [offset for _, offset in rows]
        assert family.count_lattice_points(offsets) == len(family.lattice_points(offsets))

    @pytest.mark.parametrize("n, ks", [(1, (0, 7, 10**40)), (2, (0, 7, 2000)), (3, (0, 7, 40)), (4, (0, 7, 12))])
    def test_simplex_counts_binomials(self, n, ks):
        # the section polytopes of O(k) on P^n: k times the standard simplex
        family = polytope_family(product_fan(n).rays, n)
        for k in (*ks, -1):
            assert family.count_lattice_points((0,) * n + (k,)) == comb(k + n, n)

    @pytest.mark.parametrize(
        "degrees",
        [((1, 2000), (1, 3000)), ((1, 9), (2, 300)), ((2, 5), (2, 6)), ((1, 3), (1, 4), (1, 5)), ((2, 3), (1, -1))],
    )
    def test_products_count_products_of_binomials(self, degrees):
        dims = [n for n, _ in degrees]
        family = polytope_family(product_fan(*dims).rays, sum(dims))
        offsets = [x for n, k in degrees for x in (0,) * n + (k,)]
        assert family.count_lattice_points(offsets) == prod(comb(k + n, n) for n, k in degrees)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("degrees", [((2, 3), (2, 4)), ((1, 2), (1, 3), (1, 1), (1, 2)), ((1, 4), (3, 2))])
    def test_unimodular_images_of_products_count_the_same(self, degrees, seed):
        # normals n M for a seeded product M of shears cut out M^-1 of the
        # product polytope, with as many lattice points; the shears make every
        # head entry differ, so the walk's fold of each coordinate is exercised
        dims = [n for n, _ in degrees]
        dim = sum(dims)
        rng = random.Random(seed)
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(3 * dim):
            i, j = rng.sample(range(dim), 2)
            t = rng.choice((-2, -1, 1, 2))
            m[i] = [a + t * b for a, b in zip(m[i], m[j])]
        normals = [tuple(sum(x * row[c] for x, row in zip(n, m)) for c in range(dim)) for n in product_fan(*dims).rays]
        family = polytope_family(normals, dim)
        offsets = [x for n, k in degrees for x in (0,) * n + (k,)]
        expected = prod(comb(k + n, n) for n, k in degrees)
        assert family.count_lattice_points(offsets) == expected == len(family.lattice_points(offsets))

    def test_the_wrong_number_of_parameters_raises(self):
        family = polytope_family([(1, 0), (0, 1), (-1, -1)], 2)
        with pytest.raises(ValueError, match=r"^2 parameters for 3$"):
            family.count_lattice_points((0, 1))
        with pytest.raises(ValueError, match=r"^4 parameters for 3$"):
            family.count_lattice_points((0, 0, 1, 0))
