"""Fans of toric varieties.

Structural validation, divisor class group with its degree map,
ampleness and the anticanonical divisor.

Validation certifies a smooth fan whose facets each have two owners from
its walls (see :func:`validate_fan`): one sign per wall and one point in
no maximal cone but the first, both read off the charts.  Other fans, and
one whose certificate fails, have each pair of maximal cones checked by a
separation test: one Fourier-Motzkin elimination per pair.

The chart of a full-dimensional maximal cone s is the inverse ``R_s`` of
its ray matrix ``N_s``, from one fraction-free elimination whose
determinant also shows the cone simplicial; a lower-dimensional cone
has no chart, and the Hermite basis of its ray matrix's columns decides
both flags.  Validation also pairs the maximal cones across each facet;
on a smooth complete fan it keeps one integer form per wall, read off the
chart on one side.  The wall forms span the relations among the rays, so
the class group is read off them, and a divisor is ample iff every wall
form is positive on it.

Convention fixed here and relied on everywhere else: the divisor map
sends a character ``m`` to the pairing vector ``(<m, v_ray>)_ray``, so its
matrix has one row per ray.
"""

from __future__ import annotations

import functools
import itertools
import json
from operator import mul
from typing import NamedTuple, Sequence

from .errors import MalformedFan, NotComplete, NotSmooth, RaysDontSpan
from .lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    Vector,
    cokernel,
    hermite_basis,
    integer_vector,
    primitive_vector,
    unimodular_inverse,
)
from .polyhedral import separable


class Fan(NamedTuple):
    """Rays (primitive vectors in the cocharacter lattice) plus maximal cones as ray-index sets."""

    dim: int
    rays: tuple[Vector, ...]
    max_cones: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(dim: int, rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]]) -> "Fan":
        """Canonical form: each cone sorted, cones sorted; rays keep their order."""
        return Fan(
            dim=dim,
            rays=tuple(integer_vector(r, "ray") for r in rays),
            max_cones=tuple(sorted(tuple(sorted(integer_vector(cone, "max cone"))) for cone in max_cones)),
        )

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntegerMatrix:
        """The divisor map as a matrix: one row per ray, acting on characters."""
        return IntegerMatrix.from_rows(self.rays)

    def cone_rays(self, cone: Sequence[int]) -> tuple[Vector, ...]:
        return tuple(self.rays[i] for i in cone)


def is_integer(value: object) -> bool:
    """A JSON integer: ``true`` and ``false`` load as ``bool``, an ``int`` subclass, and are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_integer_list(value: object) -> bool:
    """A JSON list of integers in the sense of :func:`is_integer`."""
    return isinstance(value, list) and all(is_integer(x) for x in value)


def _load_json(text: str) -> object:
    """``json.loads``, where a nesting too deep for the decoder or an integer
    of more digits than ``int`` reads also raises JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        raise json.JSONDecodeError(str(exc), text, 0) from None


def fan_from_json(text: str) -> Fan:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise MalformedFan("fan file must contain a JSON object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise MalformedFan(f"missing key {key!r}")
    dim = data["dim"]
    if not is_integer(dim) or dim < 1:
        raise MalformedFan("dim must be a positive integer")
    rays = data["rays"]
    cones = data["max_cones"]
    if not isinstance(rays, list) or not all(is_integer_list(r) for r in rays):
        raise MalformedFan("rays must be a list of integer vectors")
    if not isinstance(cones, list) or not all(is_integer_list(c) for c in cones):
        raise MalformedFan("max_cones must be a list of index lists")
    return Fan.make(dim, rays, cones)


def fan_to_json(f: Fan) -> str:
    payload = {
        "dim": f.dim,
        "rays": [list(r) for r in f.rays],
        "max_cones": [list(c) for c in sorted(f.max_cones)],
    }
    return json.dumps(payload, separators=(", ", ": "))


class FanReport:
    """Validation flags; on a smooth complete fan also the form of each wall
    (not compared nor shown)."""

    __slots__ = ("simplicial", "smooth", "complete", "wall_forms")

    def __init__(
        self, simplicial: bool, smooth: bool, complete: bool, wall_forms: tuple[Vector, ...] = ()
    ) -> None:
        self.simplicial = simplicial
        self.smooth = smooth
        self.complete = complete
        self.wall_forms = wall_forms

    def _flags(self) -> tuple[bool, bool, bool]:
        return self.simplicial, self.smooth, self.complete

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FanReport:
            return NotImplemented
        return self._flags() == other._flags()

    def __repr__(self) -> str:
        return "FanReport(simplicial={!r}, smooth={!r}, complete={!r})".format(*self._flags())


def _check_structure(f: Fan) -> None:
    for i, ray in enumerate(f.rays):
        if len(ray) != f.dim:
            raise MalformedFan(f"ray {i} has length {len(ray)}, expected {f.dim}")
        if not any(ray):
            raise MalformedFan(f"ray {i} is zero")
        if primitive_vector(ray) != ray:
            raise MalformedFan(f"ray {i} is not primitive")
    # one pass: each later copy of a ray pairs with its first index; the least pair comes first in index order
    first: dict[Vector, int] = {}
    repeats = [(first[ray], j) for j, ray in enumerate(f.rays) if first.setdefault(ray, j) != j]
    if repeats:
        raise MalformedFan("rays {} and {} coincide".format(*min(repeats)))
    if not f.max_cones:
        raise MalformedFan("fan has no maximal cones")
    used: set[int] = set()
    for k, cone in enumerate(f.max_cones):
        if not cone:
            raise MalformedFan(f"cone {k} is empty")
        if len(set(cone)) != len(cone):
            raise MalformedFan(f"cone {k} repeats a ray index")
        for i in cone:
            if not 0 <= i < f.n_rays:
                raise MalformedFan(f"cone {k} references missing ray {i}")
        used.update(cone)
    if used != set(range(f.n_rays)):
        missing = sorted(set(range(f.n_rays)) - used)
        raise MalformedFan(f"ray {missing[0]} occurs in no maximal cone")
    # Equal cones in one pass, each later copy paired with its first index; a
    # proper subset only lies in a larger cone, so only cones of different
    # sizes take the subset test.  The least pair comes first in index order.
    sets = [frozenset(cone) for cone in f.max_cones]
    seen: dict[frozenset[int], int] = {}
    nested = [(seen[cone], b) for b, cone in enumerate(sets) if seen.setdefault(cone, b) != b]
    by_size: dict[int, list[int]] = {}
    for k, cone in enumerate(sets):
        by_size.setdefault(len(cone), []).append(k)
    for small, large in itertools.combinations(sorted(by_size), 2):
        nested += [(min(a, b), max(a, b)) for a in by_size[small] for b in by_size[large] if sets[a] < sets[b]]
    if nested:
        raise MalformedFan("cones {} and {} are nested; maximal cones must be incomparable".format(*min(nested)))


def _check_face_intersections(f: Fan) -> None:
    """Each pair of maximal cones must meet in the cone of its shared rays, by
    the separation test of :func:`validate_fan`.  Nested cones are rejected
    before, so neither cone has an empty side outside the shared rays."""
    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        shared = set(f.max_cones[a]) & set(f.max_cones[b])
        if not separable(
            [f.rays[i] for i in f.max_cones[a] if i not in shared],
            [f.rays[i] for i in f.max_cones[b] if i not in shared],
            [f.rays[i] for i in shared],
            f.dim,
        ):
            raise MalformedFan(
                f"cones {a} and {b} intersect beyond their shared rays"
            )


def _charts(f: Fan) -> tuple[bool, tuple[IntegerMatrix, ...] | None]:
    """Whether every maximal cone is simplicial, and then the chart of each
    full-dimensional one, or None if a cone is not unimodular.

    A cone of k rays in dimension d is simplicial iff its rays are
    independent, so never when k > d.  When k = d the chart is the inverse
    of its ray matrix N, the one solution of N R = I_d: one fraction-free
    elimination (:func:`~toric_cox.lattice.unimodular_inverse`) gives
    det N, nonzero iff the cone is simplicial and +-1 iff it is
    unimodular, and then the inverse.  When k < d the cone has no chart,
    and both flags are read off the Hermite basis of the columns of the
    k x d matrix N, which spans its image in Z^k: the rays are independent
    iff the basis has k rows, and they extend to a lattice basis iff N maps
    Z^d onto Z^k, iff every Smith invariant of N is 1 (Cohen 1993, §2.4),
    iff the basis is the identity.  Only the wall forms and the
    certificate read charts, and only when every cone is full-dimensional.
    """
    charts: list[IntegerMatrix] | None = []
    for cone in f.max_cones:
        k = len(cone)
        if k > f.dim:
            return False, None
        rays = f.cone_rays(cone)
        if k == f.dim:
            det, inverse = unimodular_inverse(IntegerMatrix._unchecked(rays))
            if not det:
                return False, None
            if inverse is None:
                charts = None
            elif charts is not None:
                charts.append(inverse)
            continue
        image = hermite_basis(zip(*rays), k)
        if len(image) < k:
            return False, None
        if image != IntegerMatrix.identity(k).entries:
            charts = None
    return True, None if charts is None else tuple(charts)


def _walls(f: Fan) -> list[list[int]] | None:
    """The indices of the maximal cones owning each facet, or None if a maximal
    cone is not full-dimensional.

    A simplicial fan of full-dimensional cones is complete iff every facet
    has exactly two owners; each such pair lies across a wall.
    """
    if any(len(cone) != f.dim for cone in f.max_cones):
        return None
    owners: dict[frozenset[int], list[int]] = {}
    for k, cone in enumerate(f.max_cones):
        for facet in itertools.combinations(cone, f.dim - 1):
            owners.setdefault(frozenset(facet), []).append(k)
    return list(owners.values())


def _certified_wall_forms(f: Fan, charts: tuple[IntegerMatrix, ...], walls: list[list[int]]) -> tuple[Vector, ...]:
    """The form of each wall, in the order of ``walls``, when the wall
    certificate of :func:`validate_fan` shows a smooth fan whose facets all
    have two owners to be a fan; ``()`` when it fails.  One pass over the
    walls builds each form and tests it.

    The form of the wall between maximal cones s and t is positive iff the
    support function is strictly convex across it.  With rho the ray of t
    outside s and ``c = R^T v_rho`` the coordinates of v_rho on the rays of
    s, read from the rows of the transposed chart ``R^T`` of s, the form is
    the linear relation ``e_rho - sum_i c_i e_i``, that is
    ``a_rho - <c, a_s>``.  The wall relation ``v_rho + v_rho' = sum b_i v_i``
    gives the same form from the side of t; convexity across every wall is
    convexity (Cox-Little-Schenck, sections 6.1, 6.4).

    (i) Across each wall (s, t), v_rho has a negative coordinate on the ray
    of s outside t: that is minus the form's entry there.  (ii) The sum p
    of the rays of cone 0 has a negative coordinate ``R_t^T p`` in every
    other maximal cone t, so it lies in none of them.
    """
    duals = [tuple(zip(*chart.entries)) for chart in charts]
    forms = []
    for s, t in walls:
        (rho,) = set(f.max_cones[t]) - set(f.max_cones[s])
        (out,) = set(f.max_cones[s]) - set(f.max_cones[t])
        form = [0] * f.n_rays
        form[rho] = 1
        for i, row in zip(f.max_cones[s], duals[s]):
            form[i] = -sum(map(mul, row, f.rays[rho]))
        if form[out] <= 0:
            return ()
        forms.append(tuple(form))
    p = [sum(column) for column in zip(*f.cone_rays(f.max_cones[0]))]
    return tuple(forms) if all(any(sum(map(mul, row, p)) < 0 for row in dual) for dual in duals[1:]) else ()


@functools.lru_cache(maxsize=None)
def validate_fan(f: Fan) -> FanReport:
    """Structural validation plus the simplicial / smooth / complete flags.

    Structural violations raise MalformedFan naming the offending ray or
    cone, or the first pair of maximal cones that meet beyond the cone of
    their shared rays S.

    One elimination per full-dimensional maximal cone shows it simplicial
    and gives its chart when it is unimodular; a cone of more rays than the
    dimension is not simplicial, and a lower-dimensional cone takes a
    Hermite basis, which decides both flags and gives no chart
    (:func:`_charts`).  Validation takes no Smith form.  A fan is smooth
    when every maximal cone is unimodular.  Completeness is decided by facet
    pairing, which is sound for the simplicial full-dimensional fans this
    package supports; non-simplicial input is reported as neither smooth nor
    complete.  On a smooth complete fan the report carries one wall form per
    facet, read off the charts; it keeps no chart.

    When every maximal cone is unimodular and every facet has two owners,
    the cones form a fan iff the wall certificate of
    :func:`_certified_wall_forms` holds: (i) across each wall the two cones
    lie on opposite sides, and (ii) the point p, the sum of the rays of
    cone 0, lies in no other maximal cone.
    Both are necessary: a fan's cones meet only in faces, and p is interior
    to cone 0.  Conversely, call a point generic if it lies on at most one
    facet hyperplane and in no face of dimension d - 2; the others lie in
    finitely many subspaces of codimension 2, so for d >= 2 the generic
    points are connected (for d = 1 the two cones are the rays +-1).  A
    generic point y on a hyperplane H lies in the relative interior of each
    facet through it, each in H and owned by two cones, one on each side of
    H by (i), and no cone owns two facets in H.  So N(y), the number of
    maximal cones containing y, is the same on both sides of H: N is
    constant off the walls.  By (ii) the generic points near p lie in cone
    0 alone, so N = 1 (a complete simplicial multi-fan of degree one,
    Hattori-Masuda, Osaka J. Math. 40, 2003).  The same count in
    R^d / span(tau), for the cones containing a face tau, has degree >= 1,
    so they cover a neighbourhood of each point of its relative interior.
    Now let x lie in s and t, in the relative interiors of faces tau_s of
    s and tau_t of t.  A generic y near x lies in a cone containing tau_s
    and in one containing tau_t; as N(y) = 1 they are one simplicial cone,
    in which x lies in the relative interiors of two faces, so tau_s =
    tau_t and x lies in cone(S).

    Every other simplicial fan, and one whose certificate fails, has each
    pair of maximal cones checked by a separation test
    (:func:`_check_face_intersections`): s and t meet in cone(S) iff some
    form is 0 on S, > 0 on the rays of s outside S and < 0 on those of t
    outside S.  Given the form, a common point is >= 0 and <= 0 under it,
    so its coordinates on the rays of s outside S vanish and it lies in
    cone(S).  Conversely, cone(S) is a face of both cones (any set of rays
    of a simplicial cone spans a face), so if they meet in it a form
    vanishing exactly on it separates them (Cox-Little-Schenck, Lemma
    1.2.13), and it is nonzero on the rays outside S, which are independent
    of S.  The scaled form is decided by
    :func:`~toric_cox.polyhedral.separable`.  A failed certificate shows a
    pair that meets beyond its shared rays, and the separation names the
    first, so a message does not depend on which path ran.
    """
    _check_structure(f)
    simplicial, charts = _charts(f)
    if not simplicial:
        return FanReport(simplicial=False, smooth=False, complete=False)
    walls = _walls(f)
    complete = walls is not None and all(len(owners) == 2 for owners in walls)
    wall_forms = _certified_wall_forms(f, charts, walls) if charts and complete else ()
    if not wall_forms:
        _check_face_intersections(f)
    return FanReport(simplicial=True, smooth=charts is not None, complete=complete, wall_forms=wall_forms)


def require_smooth_complete(f: Fan) -> FanReport:
    report = validate_fan(f)
    if not report.smooth:
        raise NotSmooth("fan has a non-unimodular maximal cone")
    if not report.complete:
        raise NotComplete("fan is not complete")
    return report


class TorusInvariantDivisor:
    """An invariant divisor as its coefficient vector, one integer per ray;
    compared by value.  Not a tuple: ``+`` adds divisors of one fan, and
    ``3 * D`` and ``D + 3`` are TypeErrors."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Vector) -> None:
        self.coefficients = coefficients

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TorusInvariantDivisor:
            return NotImplemented
        return self.coefficients == other.coefficients

    @staticmethod
    def make(coefficients: Sequence[int]) -> "TorusInvariantDivisor":
        return TorusInvariantDivisor(integer_vector(coefficients, "divisor"))

    def __add__(self, other: "TorusInvariantDivisor") -> "TorusInvariantDivisor":
        if other.__class__ is not TorusInvariantDivisor:
            return NotImplemented
        if len(other.coefficients) != len(self.coefficients):
            raise ValueError(f"cannot add divisors of {len(self.coefficients)} and {len(other.coefficients)} rays")
        return TorusInvariantDivisor(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))


def class_group(f: Fan) -> AbelianGroupPresentation:
    """Divisor class group; its ``projection`` is the degree matrix of Z^rays -> Cl.

    The class lattice basis is the Hermite basis of the annihilator of the
    divisor map, the saturated left kernel ``{y : y^T N = 0}`` of the ray
    matrix N, so the degree matrix is canonical.  Exactness holds by
    construction: these rows kill the divisor image and their own kernel
    is its saturation, which is the image itself when the group is free.

    On a smooth complete fan the kernel is spanned by the wall forms of the
    validation report, the relations of the torus-invariant curves
    (Cox-Little-Schenck, section 6.4), so it is their Hermite basis and no
    Smith form is taken.  Each maximal cone s is a lattice basis, so each
    ray x has one relation ``r_s(x) = e_x - sum_i c_i e_i`` supported on s
    and x, and ``r_s(x) = 0`` when x is in s.  Across a wall, from s to t,
    the relations supported on the d + 1 rays of s and t form a lattice of
    rank 1, which the wall form generates, as its entry on the ray of t
    outside s is 1; so ``r_s(x) - r_t(x)`` is an integer multiple of it.
    A complete fan's maximal cones are linked across walls by a gallery
    from cone 0 to a cone holding x, and telescoping along it writes
    ``r_0(x)`` as a sum of wall forms.  The ``r_0(x)`` are a basis of the
    kernel (a kernel vector minus its combination of them is supported on
    cone 0, and so is 0), and the wall forms lie in it, so both span the
    same lattice, free of rank rays minus dimension.

    Every other fan takes :func:`~toric_cox.lattice.cokernel`, which also
    finds torsion; its free rank is rays minus the rank of the divisor
    map, so the rays span iff it is rays minus dimension.
    """
    report = validate_fan(f)
    if report.wall_forms:
        basis = hermite_basis(set(report.wall_forms), f.n_rays)
        return AbelianGroupPresentation(f.n_rays - f.dim, (), IntegerMatrix(basis))
    presentation = cokernel(f.ray_matrix())
    if presentation.free_rank != f.n_rays - f.dim:
        raise RaysDontSpan("rays do not span the ambient space")
    return presentation


def is_ample(f: Fan, divisor: TorusInvariantDivisor) -> bool:
    """Strict convexity of the support function on a smooth complete fan:
    every wall form of the fan's validation report is positive on the divisor,
    which must be a TorusInvariantDivisor (TypeError otherwise)."""
    if divisor.__class__ is not TorusInvariantDivisor:
        raise TypeError(f"expected a TorusInvariantDivisor, got {type(divisor).__name__}")
    report = require_smooth_complete(f)
    a = divisor.coefficients
    if len(a) != f.n_rays:
        raise ValueError("divisor has the wrong number of coefficients")
    return all(sum(x * y for x, y in zip(form, a)) > 0 for form in report.wall_forms)


def anticanonical(f: Fan) -> TorusInvariantDivisor:
    validate_fan(f)
    return TorusInvariantDivisor((1,) * f.n_rays)
