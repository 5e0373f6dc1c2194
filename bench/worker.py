"""One pass of an in-process workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC-JSON

The spec names the workload, the pass's input files and whether to trace.
The worker imports the package, reads and parses its inputs, prints
``ready`` and its start-up CPU time, runs the pass and prints one JSON
result line.  A fresh process per pass starts every pass with the caches
of a new user session: the ``lru_cache`` functions and the module-level
fiber tables are empty, which is checked before the pass.

Only calls into the package are timed, in CPU time normalised to the
host's speed (see ``speed``): after every 20 ms of timed work the worker
runs the reference, and the times of that window are divided by its
slowdown.  The checks against the expectations run between the timed
segments.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

import spans
import speed
import workloads
from workloads import OK, WRONG

from toric_cox import cox, euler
from toric_cox.fans import fan_from_json

clock = time.process_time
WINDOW_S = 0.02  # timed CPU seconds between two runs of the reference


class Pass:
    """Timing and outcome accounting of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.first: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.fan_setup_s = 0.0
        self.first_pending = False
        # Raw times of the current window, normalised when it closes.
        self.window_latencies: list[float] = []
        self.window_first: list[float] = []
        self.window_busy = 0.0

    def fan_setup(self, build):
        """Time the per-fan set-up that precedes its first operation."""
        start = clock()
        value = build()
        self.fan_setup_s = clock() - start
        self.window_busy += self.fan_setup_s
        self.first_pending = True
        return value

    def op(self, call, check):
        """Run one timed operation, then classify its result outside the timing."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = clock()
        try:
            result = call()
        except Exception as exc:  # a traceback is a failed operation
            elapsed = clock() - start
            self._record(elapsed)
            outcome, detail = WRONG, f"{type(exc).__name__}: {exc}"
        else:
            self._record(clock() - start)
            outcome, detail = check(result)
        if outcome != OK:
            self.failed += 1
            self.wrong += outcome == WRONG
            if len(self.notes) < 5:
                self.notes.append(detail)
        return outcome

    def fan_failed(self, count: int, exc: Exception):
        self.attempted += count
        self.failed += count
        self.wrong += count
        if len(self.notes) < 5:
            self.notes.append(f"fan set-up: {type(exc).__name__}: {exc}")

    def _record(self, elapsed: float):
        self.window_latencies.append(elapsed)
        self.window_busy += elapsed
        if self.first_pending:
            self.window_first.append(self.fan_setup_s + elapsed)
            self.first_pending = False
        if self.window_busy >= WINDOW_S:
            self.close_window()

    def close_window(self):
        """Normalise the window's times by the slowdown of a reference run now."""
        if not self.window_busy:
            return
        factor = speed.slowdown(self.window_busy)
        self.latencies += [t / factor for t in self.window_latencies]
        self.first += [t / factor for t in self.window_first]
        self.busy += self.window_busy / factor
        self.window_latencies, self.window_first, self.window_busy = [], [], 0.0


def oracle_rank(run: Pass, fans, spec):
    for fan, item in fans:
        classes = list(workloads.oracle_classes(item["rank"], item["radius"]))
        try:
            cd = run.fan_setup(lambda: cox.cox_data(fan))
        except Exception as exc:
            run.fan_failed(len(classes), exc)
            continue
        for lam in classes:
            def check(dim, lam=lam):
                if not isinstance(dim, int) or dim < 0:
                    return WRONG, f"dimension {dim!r} at {lam}"
                if not any(lam) and dim != 1:
                    return WRONG, f"dimension {dim} at class 0"
                return OK, ""

            run.op(lambda: cox.graded_dimension(cd, lam), check)


def euler_algebra(run: Pass, fans, spec):
    bound = workloads.EULER_MONOMIAL_WEIGHT
    for fan, item in fans:
        def setup():
            cd = cox.cox_data(fan)
            return cd, euler.build_euler_module(cd), cox.effective_weight_form(cd)

        try:
            cd, em, form = run.fan_setup(setup)
        except Exception as exc:
            run.fan_failed(1, exc)
            continue
        weights = [form(d) for d in cd.variable_degrees()]
        n = cd.num_vars
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        expected_count = workloads.monomial_count(weights, bound)
        monomials = []

        def check_enumeration(found):
            monomials.extend(found)
            ok = len(found) == expected_count == len(set(found)) and all(
                sum(e * w for e, w in zip(m, weights)) <= bound for m in found
            )
            return (OK, "") if ok else (WRONG, f"{len(found)} monomials, expected {expected_count}")

        run.op(lambda: euler.monomials_of_weight_at_most(cd, bound), check_enumeration)
        for e in monomials:
            def check_identity(image, e=e):
                if image.terms == workloads.euler_image(e, weights):
                    return OK, ""
                return WRONG, f"contraction of d(x^{e}) is {image}"

            run.op(lambda: euler.euler_contract(em, euler.derivation(em, cd.monomial(e)), form),
                   check_identity)
        rng = random.Random(f"euler-{spec['seed']}-{spec['pass']}-{item['name']}")

        def check_report(report):
            if report.checked == workloads.EULER_TRIALS and report.ok:
                return OK, ""
            return WRONG, f"euler identity: {report.counterexamples[:1]}"

        run.op(lambda: euler.check_euler_identity(
            em, form, trials=workloads.EULER_TRIALS, max_weight=workloads.EULER_TRIAL_WEIGHT,
            rng=rng), check_report)

        def check_generators(images):
            ok = [image.terms for image in images] == [
                workloads.euler_image(u, weights) for u in units]
            return (OK, "") if ok else (WRONG, "induced generators are not w_i x_i")

        run.op(lambda: euler.induced_algebra_generators(em, form), check_generators)
        run.op(lambda: euler.graded_generation_check(weights, units, bound),
               lambda ok: (OK, "") if ok is True else (WRONG, "variables do not generate"))


PASSES = {"oracle-rank": oracle_rank, "euler-algebra": euler_algebra}


def cold_caches() -> None:
    """Fail the run unless every known cache of the package starts empty."""
    for name, fn in spans.cached_functions().items():
        if fn.cache_info().currsize:
            raise RuntimeError(f"{name} cache is not empty at the start of a pass")
    if getattr(cox, "_FIBER_TABLES", None):
        raise RuntimeError("fiber tables are not empty at the start of a pass")


def main() -> int:
    spec = json.loads(sys.argv[1])
    directory = Path(spec["dir"])
    fans = [(fan_from_json((directory / item["file"]).read_text()), item) for item in spec["fans"]]
    cold_caches()
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    startup_s = usage.ru_utime + usage.ru_stime
    print(f"ready {startup_s / speed.slowdown(startup_s)}", flush=True)
    run = Pass(tracer)
    PASSES[spec["workload"]](run, fans, spec)
    run.close_window()
    result = {
        "busy_s": run.busy,
        "latencies": run.latencies,
        "first": run.first,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "notes": run.notes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
