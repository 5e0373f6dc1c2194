"""Seeded input generator for the toric-cox benchmark.

Standard library only: the inputs must not depend on the package under
test.  Every fan is written in the JSON form the CLI reads
(``{"dim", "rays", "max_cones"}``) and every grading in the form
``reconstruct`` reads (``{"Q", "w"}``).  The same seed gives
byte-identical inputs.

Families:

* the bundled corpus (copied verbatim, so a change to the package data
  does not change the benchmark);
* blow-ups of P^2 at a requested class-group rank, by the unimodular star
  subdivision that inserts the sum of the two rays of a maximal cone,
  either drawn from the seed or taken from a fixed mix and placed by a
  seeded symmetry of P^2;
* P^n and products of projective spaces;
* gradings derived from fans: the relation basis relative to the first
  maximal cone as degree matrix, plus the anticanonical class.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

CORPUS = {
    "p1": (1, [[1], [-1]], [[0], [1]]),
    "p2": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "p1xp1": (2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [[0, 2], [1, 2], [1, 3], [0, 3]]),
    "hirzebruch_0": (2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]),
    "hirzebruch_1": (2, [[1, 0], [0, 1], [-1, 1], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]),
    "hirzebruch_2": (2, [[1, 0], [0, 1], [-1, 2], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]),
    "hirzebruch_3": (2, [[1, 0], [0, 1], [-1, 3], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]),
    "delpezzo6": (
        2,
        [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]],
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
    ),
}
NON_EXAMPLES = {
    "singular_cone": (2, [[1, 0], [1, 2]], [[0, 1]]),
    "incomplete_a2": (2, [[1, 0], [0, 1]], [[0, 1]]),
}
FANO = ("p1", "p2", "p1xp1", "hirzebruch_0", "hirzebruch_1", "delpezzo6")


def make_fan(dim, rays, cones):
    """Canonical form as the package stores it: cones sorted, rays in order."""
    return {
        "dim": dim,
        "rays": [list(r) for r in rays],
        "max_cones": sorted(sorted(c) for c in cones),
    }


def to_json(data) -> str:
    """The input file text of a fan or a grading."""
    return json.dumps(data, separators=(", ", ": "))


def blow_up(fan, cone_index):
    """Star subdivision of a 2-dimensional maximal cone at the sum of its rays."""
    a, b = fan["max_cones"][cone_index]
    rays = fan["rays"] + [[x + y for x, y in zip(fan["rays"][a], fan["rays"][b])]]
    new = len(fan["rays"])
    cones = [c for i, c in enumerate(fan["max_cones"]) if i != cone_index]
    return make_fan(fan["dim"], rays, cones + [[a, new], [b, new]])


def blowup_surface(seed: int | str, rank: int, index: int = 0):
    """P^2 blown up rank-1 times, each time at a cone drawn from a seeded rng.

    ``index`` numbers the surfaces drawn for one seed and rank.
    """
    rng = random.Random(f"blowup-{seed}-{rank}-{index}")
    fan = make_fan(*CORPUS["p2"])
    for _ in range(rank - 1):
        fan = blow_up(fan, rng.randrange(len(fan["max_cones"])))
    return fan


# Images of (e1, e2) under the six lattice automorphisms of the fan of
# P^2; each permutes its rays e1, e2 and -e1-e2.
P2_SYMMETRIES = tuple(itertools.permutations(([1, 0], [0, 1], [-1, -1]), 2))


def image(fan, a, b):
    """The surface fan under the unimodular map sending e1 to ``a`` and e2 to ``b``."""
    rays = [[x * p + y * q for p, q in zip(a, b)] for x, y in fan["rays"]]
    return make_fan(fan["dim"], rays, fan["max_cones"])


def mixed_blowup(seed: int, rank: int, index: int):
    """Surface ``index`` of a fixed mix of blow-ups, under a seeded symmetry of P^2.

    The blow-up sequence depends on rank and index only, so every seed runs
    the same mix of surfaces, whose costs differ by up to 2.6x and whose
    peak memory by up to 3.5x at rank 5.  The seed moves each one by an
    automorphism of the lattice that maps P^2 to itself: the input files
    change, the rays keep their order and relations, so the class group is
    the same.
    """
    rng = random.Random(f"symmetry-{seed}-{rank}-{index}")
    return image(blowup_surface("mix", rank, index), *rng.choice(P2_SYMMETRIES))


def projective_space(n: int):
    rays = [[1 if i == j else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
    return make_fan(n, rays, itertools.combinations(range(n + 1), n))


def product(*dims: int):
    """P^a x P^b x ...: rays of each factor embedded in its own coordinate block."""
    total = sum(dims)
    rays, cones, offset, base = [], [[]], 0, 0
    for n in dims:
        for ray in projective_space(n)["rays"]:
            rays.append([0] * offset + ray + [0] * (total - offset - n))
        factor = [[base + i for i in c] for c in itertools.combinations(range(n + 1), n)]
        cones = [c + f for c in cones for f in factor]
        offset += n
        base += n + 1
    return make_fan(total, rays, cones)


def solve(rows, rhs):
    """Exact solution of a square system (Gauss-Jordan on Fractions), None if singular."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next((i for i in range(c, n) if mat[i][c]), None)
        if p is None:
            return None
        mat[c], mat[p] = mat[p], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for i in range(n):
            if i != c and mat[i][c]:
                mat[i] = [x - mat[i][c] * y for x, y in zip(mat[i], mat[c])]
    return [row[n] for row in mat]


def grading(fan):
    """Degree matrix Q with Q * rays = 0 and its anticanonical class w = Q * 1.

    With sigma the first maximal cone (a lattice basis, as the fan is
    smooth), each ray k outside sigma gives the relation
    v_k - sum_j c_kj v_j = 0; these rows contain an identity block, so Q
    is surjective and its rows span all relations.
    """
    sigma = fan["max_cones"][0]
    basis = [fan["rays"][j] for j in sigma]
    transposed = [list(col) for col in zip(*basis)]
    q = []
    for k in range(len(fan["rays"])):
        if k in sigma:
            continue
        coeffs = solve(transposed, fan["rays"][k])
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            raise ValueError("first maximal cone is not unimodular")
        row = [0] * len(fan["rays"])
        row[k] = 1
        for j, c in zip(sigma, coeffs):
            row[j] = -int(c)
        q.append(row)
    return {"Q": q, "w": [sum(row) for row in q]}
