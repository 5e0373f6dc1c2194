"""Hypothesis strategies for fans, and fixed fans, shared by the test modules."""

import itertools
import math
import random

from hypothesis import strategies as st

from toric_cox.fans import Fan
from toric_cox.lattice import primitive_vector


@st.composite
def small_fans(draw):
    """Fans in dimension 2-4 on up to d + 4 short rays, with one to five drawn
    pairwise incomparable cones of at most d rays each; every ray is used.

    The draws go through a seeded generator: direct integer draws start at
    zero and shrink towards it, which leaves few rays and almost no overlaps.
    """
    rng = draw(st.randoms(use_true_random=False))
    dim = rng.randint(2, 4)
    rays = sorted({
        primitive_vector(v)
        for v in ([rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(dim, dim + 4)))
        if any(v)
    } | {(1,) + (0,) * (dim - 1)})
    cones = {
        frozenset(rng.sample(range(len(rays)), rng.randint(1, min(dim, len(rays)))))
        for _ in range(rng.randint(1, 5))
    }
    cones = [c for c in cones if not any(c < other for other in cones)]
    used = sorted(set().union(*cones))
    index = {r: i for i, r in enumerate(used)}
    return Fan.make(dim, [rays[i] for i in used], [[index[i] for i in c] for c in cones])


@st.composite
def smooth_cycles(draw):
    """Closed walks v_0, ..., v_{n-1} in Z^2 with |det(v_i, v_i+1)| = 1, as
    the cycle of 2-cones (v_i, v_i+1); half of them times P^1 in dimension 3.

    Each step is ``v_i+1 = k v_i - e v_i-1`` with e = +-1, which reaches
    every vector w with |det(v_i, w)| = 1.  With e = 1 throughout, the walk
    turns one way; a step with e = -1 reverses the turn, so the cycle folds
    back.  The walk closes at a v_m (m >= 2) with |det(v_m, v_0)| = 1 once
    its closed turning angle reaches a drawn number of full turns, so
    cycles wind once (mostly fans), twice or three times.  A walk that
    meets itself at a vector, or grows past 30 steps, starts again.  The
    walk draws from one seeded generator, as a restart may take many draws.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    turns = rng.choice([1, 1, 2, 3])
    folds = rng.random() < 0.3
    walk = [(1, 0), (rng.randint(-2, 2), 1)]
    while True:
        (a, b), (c, d) = walk[-2:]
        k, e = rng.randint(-2, 2), -1 if folds and rng.random() < 0.2 else 1
        walk.append((k * c - e * a, k * d - e * b))
        if walk[-1] in walk[:-1] or len(walk) > 30:
            walk = [(1, 0), (rng.randint(-2, 2), 1)]
        elif abs(walk[-1][1]) == 1 and len(walk) >= 3:
            angle = sum(map(_turn, walk, walk[1:] + walk[:1]))
            if angle > 2 * math.pi * turns - 1 and rng.random() < 0.7:
                break
    n = len(walk)
    cones = [[i, (i + 1) % n] for i in range(n)]
    if rng.random() < 0.5:
        return Fan.make(2, walk, cones)
    rays = [(x, y, 0) for x, y in walk] + [(0, 0, 1), (0, 0, -1)]
    return Fan.make(3, rays, [c + [pole] for c in cones for pole in (n, n + 1)])


def _turn(u, v) -> float:
    """The signed angle from u to v, in (-pi, pi]."""
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


def product_fan(*dims: int) -> Fan:
    """P^a x P^b x ...: the rays of each factor in its own block of coordinates,
    one maximal cone per choice of a maximal cone in each factor."""
    total = sum(dims)
    rays, cones, offset = [], [()], 0
    for n in dims:
        base = len(rays)
        for ray in [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]:
            rays.append([0] * offset + ray + [0] * (total - offset - n))
        cones = [c + f for c in cones for f in itertools.combinations(range(base, base + n + 1), n)]
        offset += n
    return Fan.make(total, rays, cones)


def star_subdivision(fan: Fan, face: frozenset[int]) -> Fan:
    """The blow-up along the orbit closure of ``face``: a new ray, the sum of
    its rays, and each maximal cone containing it split into one cone per
    ray of the face, with that ray replaced by the new one."""
    new = fan.n_rays
    ray = tuple(map(sum, zip(*fan.cone_rays(sorted(face)))))
    cones = []
    for cone in fan.max_cones:
        if face <= set(cone):
            cones += [[new if j == i else j for j in cone] for i in face]
        else:
            cones.append(list(cone))
    return Fan.make(fan.dim, [*fan.rays, ray], cones)


@st.composite
def smooth_projective_fans(draw):
    """P^3, P^2 x P^1, (P^1)^3 or P^4 after one to three star subdivisions,
    each at a face of two or more rays of a random maximal cone: smooth,
    complete and projective, of class-group rank at most 6."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    fan = product_fan(*rng.choice([(3,), (2, 1), (1, 1, 1), (4,)]))
    for _ in range(rng.randint(1, 3)):
        cone = rng.choice(fan.max_cones)
        fan = star_subdivision(fan, frozenset(rng.sample(cone, rng.randint(2, fan.dim))))
    return fan


# Smooth and complete but not projective (class-group rank 4): a twisted
# triangular prism over e1, e2, e3 and (-1, -1, -1), its side
# quadrilaterals split cyclically.  By Kleinschmidt-Sturmfels every smooth
# complete threefold with at most 6 rays is projective.
NON_PROJECTIVE_THREEFOLD = Fan.make(
    3,
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, -1], [-1, 0, -1], [-1, -1, 0], [-1, -1, -1]],
    [[0, 1, 2], [0, 1, 3], [0, 2, 5], [0, 3, 5], [1, 2, 4], [1, 3, 4], [2, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]],
)
