"""Fans of toric varieties.

Structural validation, divisor class group with its degree map, Cartier
data of invariant divisors, ampleness, the anticanonical divisor and the
transition exponents of local trivializations.

Validation checks that two simplicial maximal cones s and t meet in the
cone of their shared rays S by a separation test: that holds iff some
linear form is 0 on S, > 0 on the rays of s outside S and < 0 on those of
t outside S.  (If the form exists, a common point is both >= 0 and <= 0
under it, so it lies in cone(S); if the cones meet in cone(S), that cone is
a face of both and a form vanishing exactly on it separates them,
Cox-Little-Schenck, Lemma 1.2.13.)  Scaled, the form is a rational point
of one small system of inequalities, whose emptiness level 0 of its
Fourier-Motzkin tables decides, so a pair of cones costs one elimination
and no double description.

Validation keeps the chart of each maximal cone s: the integer right
inverse ``R_s = V[:, :k] U`` of its ray matrix, read off the Smith form
``U N_s V = [I | 0]``.  Cartier data is linear in the divisor,
``m_s = -R_s a_s``, so transitions cost no solve.  Validation also pairs
the maximal cones across each facet; on a smooth complete fan it keeps one
integer form per wall, and a divisor is ample iff every wall form is
positive on it.

Conventions fixed here and relied on everywhere else:

* the divisor map sends a character ``m`` to the pairing vector
  ``(<m, v_ray>)_ray``, so its matrix has one row per ray;
* the local equation of a divisor on the chart of a maximal cone ``s`` is
  the character ``-m_s``, and the transition exponent between charts is
  ``g[s, t] = m_s - m_t``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

from .errors import MalformedFan, NotComplete, NotSmooth, RaysDontSpan
from .lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    LatticeMap,
    Vector,
    cokernel,
    integer_vector,
    primitive_vector,
    rational_rank,
    smith_normal_form,
)
from .polyhedral import separable


@dataclass(frozen=True)
class Fan:
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


def fan_from_json(text: str) -> Fan:
    data = json.loads(text)
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


@dataclass(frozen=True)
class FanReport:
    """Validation flags; on a smooth fan also the chart of each maximal cone, and
    on a smooth complete one the form of each wall (neither compared nor shown)."""

    simplicial: bool
    smooth: bool
    complete: bool
    charts: tuple[IntegerMatrix, ...] = field(default=(), compare=False, repr=False)
    wall_forms: tuple[Vector, ...] = field(default=(), compare=False, repr=False)


def _check_structure(f: Fan) -> None:
    for i, ray in enumerate(f.rays):
        if len(ray) != f.dim:
            raise MalformedFan(f"ray {i} has length {len(ray)}, expected {f.dim}")
        if not any(ray):
            raise MalformedFan(f"ray {i} is zero")
        if primitive_vector(ray) != ray:
            raise MalformedFan(f"ray {i} is not primitive")
    for i, j in itertools.combinations(range(f.n_rays), 2):
        if f.rays[i] == f.rays[j]:
            raise MalformedFan(f"rays {i} and {j} coincide")
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
    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        if set(f.max_cones[a]) <= set(f.max_cones[b]) or set(f.max_cones[b]) <= set(f.max_cones[a]):
            raise MalformedFan(f"cones {a} and {b} are nested; maximal cones must be incomparable")


def _is_simplicial(f: Fan) -> bool:
    return all(
        rational_rank(f.cone_rays(cone)) == len(cone) for cone in f.max_cones
    )


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


def _charts(f: Fan) -> tuple[IntegerMatrix, ...] | None:
    """The chart of each maximal cone of a simplicial fan, or None if one is not unimodular.

    The rays of a cone extend to a lattice basis exactly when the Smith form
    of its k x d ray matrix N is U N V = [I_k | 0]; then R = V[:, :k] U has N R = I_k.
    """
    charts = []
    for cone in f.max_cones:
        u, d, v = smith_normal_form(IntegerMatrix.from_rows(f.cone_rays(cone)))
        k = len(cone)
        if any(d.entries[i][i] != 1 for i in range(k)):
            return None
        charts.append(IntegerMatrix.from_rows(row[:k] for row in v.entries) @ u)
    return tuple(charts)


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


def _wall_form(f: Fan, charts: tuple[IntegerMatrix, ...], s: int, t: int) -> Vector:
    """The form on divisors that is positive iff the support function is
    strictly convex across the wall between maximal cones s and t.

    With rho the ray of t outside s, the form is ``a_rho - <c, a_s>``, where
    ``c = R_s^T v_rho`` are the coordinates of v_rho on the rays of s.  The
    wall relation ``v_rho + v_rho' = sum b_i v_i`` gives the same form from
    the side of t; convexity across every wall is convexity
    (Cox-Little-Schenck, sections 6.1, 6.4).
    """
    (rho,) = set(f.max_cones[t]) - set(f.max_cones[s])
    c = dict(zip(f.max_cones[s], charts[s].transpose().mat_vec(f.rays[rho])))
    return tuple(int(i == rho) - c.get(i, 0) for i in range(f.n_rays))


@functools.lru_cache(maxsize=None)
def validate_fan(f: Fan) -> FanReport:
    """Structural validation plus the simplicial / smooth / complete flags.

    Structural violations raise MalformedFan naming the offending ray or
    cone, or the first pair of maximal cones that meet beyond the cone of
    their shared rays S.  For simplicial cones s and t that is a separation
    test: they meet in cone(S) iff some form is 0 on S, > 0 on the rays of s
    outside S and < 0 on those of t outside S.  Given the form, a common
    point is >= 0 and <= 0 under it, so its coordinates on the rays of s
    outside S vanish and it lies in cone(S).  Conversely, cone(S) is a face
    of both cones (any set of rays of a simplicial cone spans a face), so
    if they meet in it a form vanishing exactly on it separates them
    (Cox-Little-Schenck, Lemma 1.2.13), and it is nonzero on the rays
    outside S, which are independent of S.  The scaled form is decided by
    :func:`~toric_cox.polyhedral.separable`.

    A fan is smooth when every maximal cone has a chart, which the
    report carries.  Completeness is decided by facet pairing, which is
    sound for the simplicial full-dimensional fans this package supports;
    non-simplicial input is reported as neither smooth nor complete.  On a
    smooth complete fan the report carries one wall form per facet.
    """
    _check_structure(f)
    simplicial = _is_simplicial(f)
    if not simplicial:
        return FanReport(simplicial=False, smooth=False, complete=False)
    _check_face_intersections(f)
    charts = _charts(f)
    walls = _walls(f)
    complete = walls is not None and all(len(owners) == 2 for owners in walls)
    return FanReport(
        simplicial=True,
        smooth=charts is not None,
        complete=complete,
        charts=charts or (),
        wall_forms=tuple(_wall_form(f, charts, s, t) for s, t in walls) if charts and complete else (),
    )


def require_smooth_complete(f: Fan) -> FanReport:
    report = validate_fan(f)
    if not report.smooth:
        raise NotSmooth("fan has a non-unimodular maximal cone")
    if not report.complete:
        raise NotComplete("fan is not complete")
    return report


@dataclass(frozen=True)
class TorusInvariantDivisor:
    """An invariant divisor as its coefficient vector, one integer per ray."""

    coefficients: Vector

    @staticmethod
    def make(coefficients: Sequence[int]) -> "TorusInvariantDivisor":
        return TorusInvariantDivisor(integer_vector(coefficients, "divisor"))

    def __add__(self, other: "TorusInvariantDivisor") -> "TorusInvariantDivisor":
        return TorusInvariantDivisor(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __neg__(self) -> "TorusInvariantDivisor":
        return TorusInvariantDivisor(tuple(-a for a in self.coefficients))


def class_group(f: Fan) -> tuple[AbelianGroupPresentation, LatticeMap]:
    """Divisor class group and the degree map Z^rays -> Cl.

    The class lattice basis is the Hermite basis of the annihilator of the
    divisor map, so the degree matrix is canonical.  Exactness holds by
    construction: the free rows span the left kernel of the divisor map, so
    they kill the divisor image and their own kernel is its saturation,
    which is the image itself when the group is free.
    """
    validate_fan(f)
    if rational_rank(f.rays) != f.dim:
        raise RaysDontSpan("rays do not span the ambient space")
    presentation = cokernel(f.ray_matrix())
    return presentation, LatticeMap(presentation.projection)


def cartier_data(f: Fan, divisor: TorusInvariantDivisor) -> tuple[Vector, ...]:
    """Per maximal cone s, the character m_s with <m_s, v_ray> = -a_ray on the cone:
    ``m_s = -R_s a_s``; no check, as on a smooth fan every divisor is Cartier."""
    report = validate_fan(f)
    if not report.smooth:
        raise NotSmooth("Cartier data computed only on smooth fans")
    if len(divisor.coefficients) != f.n_rays:
        raise ValueError("divisor has the wrong number of coefficients")
    a = divisor.coefficients
    return tuple(
        chart.mat_vec([-a[i] for i in cone]) for chart, cone in zip(report.charts, f.max_cones)
    )


@dataclass(frozen=True)
class CechCocycle:
    """Transition exponents g[s, t] = m_s - m_t for ordered pairs of maximal cones."""

    transitions: tuple[tuple[tuple[int, int], Vector], ...]

    @functools.cached_property
    def _by_pair(self) -> dict[tuple[int, int], Vector]:
        return dict(self.transitions)

    def exponent(self, s: int, t: int) -> Vector:
        return self._by_pair[s, t]

    def __add__(self, other: "CechCocycle") -> "CechCocycle":
        if len(self.transitions) != len(other.transitions):
            raise ValueError("cocycles over different covers")
        merged = []
        for (key, value), (key2, value2) in zip(self.transitions, other.transitions):
            if key != key2:
                raise ValueError("cocycles over different covers")
            merged.append((key, tuple(a + b for a, b in zip(value, value2))))
        return CechCocycle(tuple(merged))


def cech_transitions(f: Fan, divisor: TorusInvariantDivisor) -> CechCocycle:
    characters = cartier_data(f, divisor)
    pairs = []
    for s, t in itertools.permutations(range(len(f.max_cones)), 2):
        diff = tuple(a - b for a, b in zip(characters[s], characters[t]))
        pairs.append(((s, t), diff))
    return CechCocycle(tuple(pairs))


def is_ample(f: Fan, divisor: TorusInvariantDivisor) -> bool:
    """Strict convexity of the support function on a smooth complete fan:
    every wall form of the fan's validation report is positive on the divisor."""
    report = require_smooth_complete(f)
    a = divisor.coefficients
    if len(a) != f.n_rays:
        raise ValueError("divisor has the wrong number of coefficients")
    return all(sum(x * y for x, y in zip(form, a)) > 0 for form in report.wall_forms)


def anticanonical(f: Fan) -> TorusInvariantDivisor:
    validate_fan(f)
    return TorusInvariantDivisor((1,) * f.n_rays)
