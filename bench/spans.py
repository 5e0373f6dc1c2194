"""Span tracer installed around toric_cox functions from outside the package.

Each wrapped call records a span (id, name, parent span, operation id,
start, end) in memory.  Self time is a span's duration minus the time
covered by its wrapped children; calls are single threaded, so children
never overlap and their durations simply add up.

The wrappers are rebound in every ``toric_cox`` module that holds the
original function object, because ``from .lattice import solve_rational``
copies the binding: patching only ``lattice`` would miss the calls made
from ``polyhedral``.  Methods are patched on their class.  A function
that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict

# Functions wrapped in a traced run, by module.  Besides those reported one
# by one, hermite_basis, cokernel, rational_rank and cox_data complete their
# module's self time, and RationalPolytope.satisfies feeds points_per_test.
TARGETS = {
    "lattice": (
        "smith_normal_form",
        "kernel_basis",
        "solve_rational",
        "solve_integer",
        "hermite_basis",
        "cokernel",
        "rational_rank",
    ),
    "polyhedral": (
        "cone_from_generators",
        "cone_from_inequalities",
        "polytope_vertices",
        "polytope_lattice_points",
        "hilbert_basis",
        "strictly_positive_form",
        "RationalPolytope.satisfies",
    ),
    "fans": ("validate_fan", "class_group", "cartier_data", "is_ample"),
    "cox": (
        "cox_data",
        "graded_dimension",
        "effective_weight_form",
        "divisor_in_class",
        "monomial_basis",
        "make_polynomial",
    ),
    "euler": (
        "derivation",
        "euler_contract",
        "monomials_of_weight_at_most",
        "graded_generation_check",
        "check_euler_identity",
    ),
    "reconstruction": ("reconstruct_fan", "roundtrip_check"),
    "verify": ("run_verification",),
    "cli": ("main",),
}

# Functions whose result is counted: by its length, or by its truth.
SIZED = ("polyhedral.polytope_vertices", "polyhedral.polytope_lattice_points", "cox.monomial_basis")
TRUTH = ("fans.is_ample",)
# Functions whose lru_cache statistics are reported.
CACHED = ("fans.validate_fan", "cox.effective_weight_form")


def package_modules():
    return [m for n, m in sys.modules.items() if n == "toric_cox" or n.startswith("toric_cox.")]


def cached_functions():
    """Every function with ``cache_info`` found in the loaded toric_cox modules."""
    found = {}
    for module in package_modules():
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info"):
                found[f"{module.__name__}.{name}"] = value
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.under: Counter = Counter()
        self.returned: Counter = Counter()
        self.originals: dict = {}
        self.absent: list[str] = []
        self._ids = itertools.count()

    def install(self) -> None:
        for module_name, attrs in TARGETS.items():
            try:
                module = importlib.import_module(f"toric_cox.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{a}" for a in attrs)
                continue
            for attr in attrs:
                self._install_one(module, f"{module_name}.{attr}", attr)

    def _install_one(self, module, full: str, attr: str) -> None:
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name, None)
            original = vars(owner).get(method) if isinstance(owner, type) else None
            if not callable(original):
                self.absent.append(full)
                return
            self.originals[full] = original
            setattr(owner, method, self._wrap(full, original))
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(full)
            return
        self.originals[full] = original
        wrapper = self._wrap(full, original)
        for mod in package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, calls, self_s = self.spans, self.stack, self.calls, self.self_s
        under, returned, ids, clock = self.under, self.returned, self._ids, time.perf_counter
        sized, truth = name in SIZED, name in TRUTH
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is None:
                    spans.append((frame[0], name, -1, tracer.op, start, end))
                    under[(name, None)] += 1
                else:
                    parent[1] += duration
                    spans.append((frame[0], name, parent[0], tracer.op, start, end))
                    under[(name, parent[2])] += 1
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if sized:
                returned[name] += len(result)
            elif truth and result:
                returned[name] += 1
            return result

        return wrapper

    def summary(self) -> dict:
        cache_hits = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is None:
                self.absent.append(f"{name}.cache_info")
            else:
                cache_hits[name] = info().hits
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "under": [[child, parent, n] for (child, parent), n in self.under.items()],
            "returned": dict(self.returned),
            "cache_hits": cache_hits,
            "absent": sorted(set(self.absent)),
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id, name, parent, op, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tparent\top\tstart\tend\n")
            for span in self.spans:
                out.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % span)


def merge(summaries) -> dict:
    """Add up the summaries of several traced processes."""
    calls, self_s, under, returned, hits = Counter(), defaultdict(float), Counter(), Counter(), Counter()
    absent: set[str] = set()
    for s in summaries:
        calls.update(s["calls"])
        for k, v in s["self_s"].items():
            self_s[k] += v
        for child, parent, n in s["under"]:
            under[(child, parent)] += n
        returned.update(s["returned"])
        hits.update(s["cache_hits"])
        absent.update(s["absent"])
    return {"calls": calls, "self_s": self_s, "under": under, "returned": returned,
            "cache_hits": hits, "absent": sorted(absent)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric values, named ``<module>.<function>.<counter>``."""
    calls, self_s, under, returned = merged["calls"], merged["self_s"], merged["under"], merged["returned"]
    out: dict[str, tuple[float, str]] = {}

    def count(name):
        out[f"{name}.calls"] = (calls[name], "count")

    def timed(name):
        count(name)
        out[f"{name}.self_s"] = (self_s[name], "s")

    for name in ("smith_normal_form", "kernel_basis", "solve_rational", "solve_integer"):
        timed(f"lattice.{name}")
    for name in ("cone_from_generators", "cone_from_inequalities", "polytope_vertices",
                 "polytope_lattice_points", "hilbert_basis", "strictly_positive_form"):
        timed(f"polyhedral.{name}")
    out["polyhedral.vertices_per_solve"] = (_ratio(
        returned["polyhedral.polytope_vertices"],
        under[("lattice.solve_rational", "polyhedral.polytope_vertices")]), "ratio")
    out["polyhedral.points_per_test"] = (_ratio(
        returned["polyhedral.polytope_lattice_points"],
        under[("polyhedral.RationalPolytope.satisfies", "polyhedral.polytope_lattice_points")]), "ratio")
    count("fans.validate_fan")
    out["fans.validate_fan.cache_hits"] = (merged["cache_hits"]["fans.validate_fan"], "count")
    timed("fans.class_group")
    timed("fans.cartier_data")
    count("fans.is_ample")
    out["fans.is_ample.true_ratio"] = (_ratio(returned["fans.is_ample"], calls["fans.is_ample"]), "ratio")
    out["cox.graded_dimension.self_s"] = (self_s["cox.graded_dimension"], "s")
    timed("cox.effective_weight_form")
    out["cox.effective_weight_form.cache_hits"] = (merged["cache_hits"]["cox.effective_weight_form"], "count")
    count("cox.divisor_in_class")
    count("cox.monomial_basis")
    out["cox.monomial_basis.monomials"] = (returned["cox.monomial_basis"], "count")
    timed("cox.make_polynomial")
    for name in ("derivation", "euler_contract", "monomials_of_weight_at_most",
                 "graded_generation_check", "check_euler_identity"):
        timed(f"euler.{name}")
    timed("reconstruction.reconstruct_fan")
    timed("reconstruction.roundtrip_check")
    out["verify.run_verification.self_s"] = (self_s["verify.run_verification"], "s")
    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    for module in ("lattice", "polyhedral", "fans", "cox", "euler", "reconstruction"):
        out[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    return out
