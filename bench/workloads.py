"""Workload definitions: the inputs of each pass and the expected outcomes.

Expectations never come from the code being timed.  They are closed
forms (dimensions on products of projective spaces, the Euler identity on
monomials), facts fixed by construction (a generated fan is smooth and
complete, a grading's kernel holds the rays), or the documented exit codes.

An operation has one of three outcomes:

* ``ok``: the expected outcome;
* ``failed``: the operation gave up without contradicting anything: a
  timeout, or ``verify`` reporting FAIL only because its bounded search for
  an ample divisor found none on a fan that has one;
* ``wrong``: a wrong answer, a traceback or a crash.

Both ``failed`` and ``wrong`` count as failed operations; only ``wrong``
makes a run incorrect.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb

import gen

OK, FAILED, WRONG = "ok", "failed", "wrong"

WHY = {
    "cli-corpus": "what a CLI user waits for: verify, euler --degree and reconstruct, "
                  "each one interpreter start, on the corpus and generated fans",
    "oracle-rank": "graded_dimension over class windows of blow-ups of P^2 at rank 2 to 5: "
                   "both dimension oracles, scaling with class-group rank",
    "euler-algebra": "Euler identity, generation and the monomial enumerators on fixed fans: "
                     "builds polynomials and never calls the dimension oracle",
}

# Planned wall time of one pass at the seed commit, the reference runs of
# ``speed`` included; the number of passes of a run is fixed from --seconds
# with these, so it never depends on timing.  cli-corpus needs three passes
# (105 operations) so that its p90 has at least ten samples beyond it.
NOMINAL_PASS_S = {"cli-corpus": 13.0, "oracle-rank": 3.3, "euler-algebra": 1.75}
MIN_PASSES = {"cli-corpus": 3, "oracle-rank": 1, "euler-algebra": 1}

ORACLE_RANKS = ((2, 2), (3, 2), (4, 2), (5, 1))  # (class-group rank, window radius)
PRODUCTS = {"p1": (1,), "p2": (2,), "p3": (3,), "p1xp1": (1, 1), "p1xp2": (1, 2),
            "p2xp2": (2, 2), "p1x3": (1, 1, 1)}
EULER_DEGREES = (
    ("p1", (1,)), ("p1", (3,)), ("p2", (1,)), ("p2", (2,)), ("p3", (1,)), ("p3", (2,)),
    ("p1xp1", (1, 1)), ("p1xp1", (2, 1)), ("p1xp2", (1, 1)), ("p1xp2", (2, 1)),
    ("p2xp2", (1, 1)), ("p1x3", (1, 1, 1)),
)
EULER_FANS = ("p2", "p3", "p1xp1", "p1xp2", "p1x3", "hirzebruch_1")
EULER_MONOMIAL_WEIGHT = 6
EULER_TRIALS, EULER_TRIAL_WEIGHT = 50, 5


def passes(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], round(seconds / NOMINAL_PASS_S[workload]))


def _product_fan(name: str):
    return gen.product(*PRODUCTS[name])


def build(workload: str, seed: int, n_passes: int):
    """All input files of a run and the operations of each pass.

    Returns ``(files, plan)``: ``files`` maps a file name to its JSON text,
    and ``plan[p]`` lists the operations (cli-corpus) or fans (the
    in-process workloads) of pass ``p``.
    """
    files: dict[str, str] = {}

    def put(name, data):
        file, text = f"{name}.json", gen.to_json(data)
        if files.setdefault(file, text) != text:
            raise ValueError(f"two different inputs named {file}")
        return file

    plan = []
    if workload == "cli-corpus":
        fixed = []
        for name, spec in gen.CORPUS.items():
            fixed.append({"cmd": "verify", "file": put(name, gen.make_fan(*spec)), "expect": 0})
        for name, spec in gen.NON_EXAMPLES.items():
            fixed.append({"cmd": "verify", "file": put(name, gen.make_fan(*spec)), "expect": 1})
        for name in ("p3", "p2xp2", "p1x3"):
            fixed.append({"cmd": "verify", "file": put(name, _product_fan(name)), "expect": 0})
        euler = []
        for name, degree in EULER_DEGREES:
            file = put(name, _product_fan(name))
            euler.append({"cmd": "euler", "file": file, "degree": list(degree),
                          "factors": list(PRODUCTS[name])})
        recon = []
        for name, spec in gen.CORPUS.items():
            fan = gen.make_fan(*spec)
            g = gen.grading(fan)
            recon.append({"cmd": "reconstruct", "file": put(f"grading_{name}", g),
                          "expect": 0 if name in gen.FANO else 1, "Q": g["Q"],
                          "n_rays": len(fan["rays"]), "n_cones": len(fan["max_cones"]),
                          "dim": fan["dim"]})
        for p in range(n_passes):
            blowups = [
                {"cmd": "verify", "file": put(f"blowup_r{r}_p{p}", gen.blowup_surface(seed, r, p)),
                 "expect": 0}
                for r in (3, 4)
            ]
            plan.append(fixed + blowups + euler + recon)
    elif workload == "oracle-rank":
        for p in range(n_passes):
            plan.append([
                {"file": put(f"blowup_r{r}_p{p}", gen.mixed_blowup(seed, r, p)),
                 "rank": r, "radius": radius}
                for r, radius in ORACLE_RANKS
            ])
    elif workload == "euler-algebra":
        fans = []
        for name in EULER_FANS:
            fan = _product_fan(name) if name in PRODUCTS else gen.make_fan(*gen.CORPUS[name])
            fans.append({"file": put(name, fan), "name": name})
        plan = [fans] * n_passes
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, plan


def cli_argv(op) -> list[str]:
    argv = [op["cmd"], op["file"], "--json"]
    if op["cmd"] == "euler":
        argv += ["--degree", ",".join(map(str, op["degree"]))]
    return argv


def _entries(report) -> dict[str, str]:
    return {k: v for section in report["sections"] for k, v in section["entries"]}


def _vectors(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in part.strip().strip("()").split(",")) for part in text.split(";")]


def product_module_dim(factors, basis_degrees, degree) -> int | None:
    """Closed-form dimension of the Euler module piece on P^a1 x ... x P^am.

    The variables of factor k share one class u_k, and the u_k form a basis
    of the class group.  Writing the degree as sum d_k u_k, the ring piece
    of class sum p_k u_k has dimension prod C(p_k + a_k, a_k) (zero if some
    p_k < 0), and the module piece is sum_k (a_k + 1) * S(d - e_k).
    Returns None when the reported degrees are not those of such a product.
    """
    units, start = [], 0
    for a in factors:
        block = basis_degrees[start:start + a + 1]
        if len(block) != a + 1 or len(set(block)) != 1:
            return None
        units.append(block[0])
        start += a + 1
    if start != len(basis_degrees) or len(units) != len(degree):
        return None
    coords = gen.solve([list(col) for col in zip(*units)], degree)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    d = [int(c) for c in coords]

    def ring(p):
        if any(x < 0 for x in p):
            return 0
        out = 1
        for x, a in zip(p, factors):
            out *= comb(x + a, a)
        return out

    return sum(
        (a + 1) * ring([x - (j == k) for j, x in enumerate(d)]) for k, a in enumerate(factors)
    )


def check_cli(op, returncode: int | None, stdout: str) -> tuple[str, str]:
    """Classify one CLI invocation; ``returncode`` None means it timed out."""
    if returncode is None:
        return FAILED, "timeout"
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
        return _classify(op, returncode, report, report["status"])
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        return WRONG, f"exit {returncode} without a usable report ({type(exc).__name__})"


def _classify(op, returncode: int, report, status) -> tuple[str, str]:
    cmd = op["cmd"]
    if cmd == "verify":
        fails = [(k, v) for k, v in _entries(report).items() if v.startswith("FAIL")]
        if op["expect"] == 1:
            if returncode == 1 and [k for k, _ in fails] == ["fan validation"]:
                return OK, ""
            return WRONG, f"exit {returncode} on a fan that is not smooth and complete"
        if returncode == 0 and status.get("ok") and not fails:
            return OK, ""
        if returncode == 1 and fails and all(
            k == "round trip" and "no ample divisor" in v for k, v in fails
        ):
            return FAILED, "round trip found no ample divisor on a smooth complete surface"
        return WRONG, f"exit {returncode}: {fails}"
    if cmd == "euler":
        if returncode != 0 or not status.get("ok"):
            return WRONG, f"exit {returncode}"
        entries = _entries(report)
        expected = product_module_dim(op["factors"], _vectors(entries["basis degrees"]), op["degree"])
        if expected is None or int(entries["dimension"]) != expected:
            return WRONG, f"dimension {entries['dimension']} != closed form {expected}"
        return OK, ""
    if op["expect"] == 1:
        if returncode == 1 and status.get("code") in ("NotSmooth", "NotAmpleLift"):
            return OK, ""
        return WRONG, f"exit {returncode} ({status.get('code')}) on a grading whose class is not ample"
    if returncode != 0 or not status.get("ok"):
        return WRONG, f"exit {returncode} ({status.get('code')}) on a Fano grading"
    fan = json.loads(_entries(report)["fan json"])
    rays = fan["rays"]
    in_kernel = all(
        not any(sum(q * r[c] for q, r in zip(row, rays)) for c in range(fan["dim"]))
        for row in op["Q"]
    )
    if (fan["dim"], len(rays), len(fan["max_cones"])) != (op["dim"], op["n_rays"], op["n_cones"]) \
            or not in_kernel:
        return WRONG, "rebuilt fan does not match the grading"
    return OK, ""


def monomial_count(weights, bound: int) -> int:
    """Number of exponent vectors of weighted degree at most ``bound``."""
    counts = [1] + [0] * bound
    for w in weights:
        for total in range(w, bound + 1):
            counts[total] += counts[total - w]
    return sum(counts)


def euler_image(exponents, weights) -> dict:
    """Terms of sum_i w_i x_i d/dx_i applied to one monomial: w(e) * x^e."""
    total = sum(e * w for e, w in zip(exponents, weights))
    return {tuple(exponents): Fraction(total)} if total else {}


def oracle_classes(rank: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=rank)
