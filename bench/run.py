#!/usr/bin/env python3
"""Benchmark of the toric-cox package, driven from outside the package.

Usage (from the repository root):

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``workloads.WHY``):

* ``cli-corpus``: one operation is one ``python -m toric_cox.cli``
  invocation (verify, euler --degree, reconstruct), process start to exit;
* ``oracle-rank``: one operation is one ``cox.graded_dimension`` call on a
  generated blow-up of P^2 at class-group rank 2 to 5;
* ``euler-algebra``: one operation is one Euler identity or generation
  check on a fixed set of fans.

Each is a closed loop with one client and at most one child process at a
time, all on one core.  Every time is CPU time (user plus system) of the
process doing the work, which is single threaded, divided by the slowdown
of a reference computation run on the same core right beside it (see
``speed``).  Wall-clock runs of the same code differed by a quarter on a
shared host; raw CPU time moved as much, as other guests slow the core.
A run makes its inputs from the seed, plans a fixed number of passes
from ``--seconds`` (so the traced and untraced runs of one seed do the same
operations), runs the passes with cold caches, checks every result and
prints one line per metric followed by a JSON object as the last line.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run times the first pass untraced, then runs every pass with spans
recorded around the package's functions and reports the per-layer metrics;
the spans are written under ``.bench_work/``.

The program under test is ``src/toric_cox`` of the checkout; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads
from workloads import OK, WRONG

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150
SETUP_REPEATS = 5
clock = time.process_time


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


class Totals:
    """Outcomes and timings of the passes of one mode (traced or untraced)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.first: list[float] = []
        self.rss_mb: list[float] = []
        self.passes: list[tuple[int, float]] = []  # (operations, busy seconds) per pass
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.summaries: list[dict] = []

    @property
    def attempted(self) -> int:
        return sum(n for n, _ in self.passes)

    def add(self, latencies, busy, attempted, failed, wrong, notes):
        self.latencies += latencies
        self.passes.append((attempted, busy))
        self.failed += failed
        self.wrong += wrong
        self.notes += notes[: max(0, 5 - len(self.notes))]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(command, cwd: Path, stdout_path: Path):
    """Run one child to completion.

    Returns (exit code or None on timeout, stdout, CPU seconds, peak RSS MB).
    """
    with open(stdout_path, "w+b") as out:
        proc = subprocess.Popen(command, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    cpu_s = usage.ru_utime + usage.ru_stime
    return (proc.returncode if exited else None), stdout, cpu_s, usage.ru_maxrss / 1024


class Bracket:
    """Normalises a child's CPU time by reference runs just before and after it."""

    def __init__(self) -> None:
        self.last = speed.slowdown(0.0)

    def __call__(self, cpu_s: float) -> float:
        now = speed.slowdown(cpu_s)
        factor, self.last = (self.last + now) / 2, now
        return cpu_s / factor


def generate(workload: str, seed: int, n_passes: int, directory: Path):
    """Build and write the inputs; repeated to time it and to check determinism."""
    times, texts = [], None
    for _ in range(SETUP_REPEATS):
        start = clock()
        files, plan = workloads.build(workload, seed, n_passes)
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        for name, text in files.items():
            (directory / name).write_text(text)
        elapsed = clock() - start
        times.append(elapsed / speed.slowdown(elapsed))
        if texts is not None and texts != files:
            raise BenchError("the generator gave different inputs for one seed")
        texts = files
    return plan, statistics.median(times)


def probe(module: str, directory: Path, repeats: int) -> float:
    """Median normalised CPU time of a fresh interpreter importing the package."""
    bracket, times = Bracket(), []
    for _ in range(repeats):
        code, _, cpu_s, _ = run_child([sys.executable, "-c", f"import {module}"], directory,
                                      directory / "probe.out")
        if code != 0:
            raise BenchError(f"cannot import {module} from {SRC}")
        times.append(bracket(cpu_s))
    return statistics.median(times)


def cli_pass(ops, directory: Path, totals: Totals, trace_dir: Path | None, pass_index: int):
    latencies, notes = [], []
    failed = wrong = 0
    bracket = Bracket()
    for i, op in enumerate(ops):
        argv = workloads.cli_argv(op)
        if trace_dir is None:
            command = [sys.executable, "-m", "toric_cox.cli", *argv]
        else:
            stem = trace_dir / f"pass{pass_index}-op{i}"
            command = [sys.executable, str(BENCH / "launcher.py"), f"{stem}.json",
                       f"{stem}.tsv.gz", str(i), "--", *argv]
        returncode, stdout, cpu_s, rss_mb = run_child(command, directory, directory / "cli.out")
        latencies.append(bracket(cpu_s))
        totals.rss_mb.append(rss_mb)
        outcome, detail = workloads.check_cli(op, returncode, stdout)
        if outcome != OK:
            failed += 1
            wrong += outcome == WRONG
            notes.append(f"{' '.join(argv)}: {detail}")
        if trace_dir is not None and returncode is not None:
            totals.summaries.append(json.loads(Path(f"{stem}.json").read_text()))
    totals.add(latencies, sum(latencies), len(ops), failed, wrong, notes)


def worker_pass(workload, seed, pass_index, fans, directory: Path, totals: Totals,
                trace_dir: Path | None) -> float:
    """Run one pass in a fresh worker; returns the worker's start-up CPU time."""
    spec = {"workload": workload, "seed": seed, "pass": pass_index, "dir": str(directory),
            "fans": fans, "trace": trace_dir is not None,
            "spans": str(trace_dir / f"pass{pass_index}.tsv.gz") if trace_dir else None}
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        word, _, ready_s = (proc.stdout.readline() if ready else "").partition(" ")
        if word != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise BenchError(f"worker did not start: {err.strip()[-500:]}")
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {pass_index} did not finish within {PASS_TIMEOUT_S} s")
    if proc.returncode:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    totals.add(result["latencies"], result["busy_s"], result["attempted"], result["failed"],
               result["wrong"], result["notes"])
    if result["first"]:
        totals.first.append(statistics.geometric_mean(result["first"]))
    totals.rss_mb.append(result["maxrss_kb"] / 1024)
    if "trace" in result:
        totals.summaries.append(result["trace"])
    return float(ready_s)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    density over [i/n, (i+1)/n].  Unlike a single order statistic it does not
    jump when the quantile falls between two groups of operations of
    different cost, as it does on cli-corpus.  The weights are integrated
    by the midpoint rule over twelve standard deviations around p.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = max(0.0, p - 12 * sd), min(1.0, p + 12 * sd)
    steps = 4000
    h = (hi - lo) / steps
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = weights = 0.0
    for k in range(steps):
        u = lo + (k + 0.5) * h
        w = math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += w * x[min(int(u * n), n - 1)]
        weights += w
    return total / weights


def run_passes(workload, seed, plan, directory: Path, trace_dir: Path | None):
    totals, ready = Totals(), []
    for p, items in enumerate(plan):
        if workload == "cli-corpus":
            cli_pass(items, directory, totals, trace_dir, p)
        else:
            ready.append(worker_pass(workload, seed, p, items, directory, totals, trace_dir))
    return totals, ready


def end_to_end(totals: Totals, setup_s: float) -> dict:
    """End-to-end metrics.

    ``ops_per_s`` is the median over passes of the pass's operations per
    second of timed calls: a pass with a rare costly fan moves the median
    less than the mean.  ``first_op_s`` is the median over passes of the
    geometric mean, over the pass's fans, of the time from ``cox_data(fan)``
    to its first result: the geometric mean keeps one slow fan from
    dominating a pass.  Latency quantiles pool every operation of the run.
    All times are normalised CPU times (see the module docstring).  A cli-corpus
    operation is a whole process, so every one starts cold and its
    first-operation time is the median latency.  ``peak_rss_mb`` is the
    median over the processes that did the work (one per pass, or one per
    CLI invocation) of each one's peak resident memory.
    """
    p50 = quantile(totals.latencies, 0.5)
    return {
        "ops_per_s": (statistics.median(n / t for n, t in totals.passes), "1/s"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (quantile(totals.latencies, 0.9), "s"),
        "first_op_s": (statistics.median(totals.first) if totals.first else p50, "s"),
        "ok_frac": (1 - totals.failed / totals.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(totals.rss_mb), "MB"),
    }


def per_layer(workload, seed, plan, run_dir: Path, plain: Totals):
    """Trace every pass; returns the traced totals and the per-layer metrics."""
    trace_dir = run_dir / "spans"
    trace_dir.mkdir()
    traced, _ = run_passes(workload, seed, plan, run_dir, trace_dir)
    if traced.passes[0][0] != plain.passes[0][0]:
        traced.wrong += 1
        traced.notes.append(f"traced first pass counted {traced.passes[0][0]} operations, "
                            f"untraced {plain.passes[0][0]}")
    merged = spans.merge(traced.summaries)
    metrics = spans.layer_metrics(merged)
    metrics["cli.startup_s"] = (probe("toric_cox", run_dir, SETUP_REPEATS), "s")
    metrics["trace.overhead_ratio"] = (traced.passes[0][1] / plain.passes[0][1], "ratio")
    if merged["absent"]:
        print("absent: " + ", ".join(merged["absent"]))
    return traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "toric_cox" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'toric_cox'}", file=sys.stderr)
        return 2

    # One core for the whole run, so that the reference runs where the work ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    n_passes = workloads.passes(args.workload, args.seconds)
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    try:
        plan, gen_s = generate(args.workload, args.seed, n_passes, run_dir)
        if args.trace:
            plain, _ = run_passes(args.workload, args.seed, plan[:1], run_dir, None)
            totals, metrics = per_layer(args.workload, args.seed, plan, run_dir, plain)
        else:
            totals, ready = run_passes(args.workload, args.seed, plan, run_dir, None)
            start_s = statistics.median(ready) if ready else \
                probe("toric_cox.cli", run_dir, SETUP_REPEATS)
            metrics = end_to_end(totals, gen_s + start_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  passes {n_passes}  "
          f"operations {totals.attempted}  failed {totals.failed}  latency samples "
          f"{len(totals.latencies)}  python {platform.python_version()}  nproc {os.cpu_count()}")
    for note in totals.notes:
        print(f"failed: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": totals.wrong == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
