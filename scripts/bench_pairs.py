#!/usr/bin/env python3
"""Run the benchmark on two git revisions in alternating pairs and write the result as JSON.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent REV --change REV \\
        --run euler-algebra:21-30 --run euler-algebra:41-50 [--run oracle-rank:61-70 ...] \\
        --out BENCH_N.json

Each ``--run WORKLOAD:A-B`` is one seed set, A to B inclusive, of one
workload, run in the order given.  Every seed is one pair: one run of
``bench/run.py --trace 0`` on each revision for the ``run_seconds`` that
``BENCHMARK.json`` sets, one after the other, the side that goes first
alternating from pair to pair.  Each run gets a fresh
``git archive`` of its revision, with no bytecode cached, which is deleted
after the run; runs never overlap.

The output holds, per workload and seed set, both sides' end-to-end
metrics of every pair, each side's median and quartiles per metric, and
for each metric the pairs the change wins (ties count for neither side;
the direction is read from ``BENCHMARK.json``), together with the
revisions, their tree hashes (which a squash or a rebase that keeps the
files keeps too), the Python version, the number of processors and the run
length.  The output file must not exist yet, and its directory must.  It
is rewritten after every pair, the summary of an unfinished seed set
covering the pairs done so far, so a run that is stopped keeps every pair
it measured.  Each ``--run`` and the ``--out`` are checked before anything
runs: the workload must be one that ``BENCHMARK.json`` names, and the seed
range must not be empty.  Both revisions are resolved before any run too: an
unknown one is an argument error.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tarfile
import tempfile
from pathlib import Path

import sigterm

ROOT = Path(__file__).resolve().parent.parent


def seed_set(text: str) -> tuple[str, list[int]]:
    """``WORKLOAD:A-B`` as the workload and the seeds A to B; an empty range is an argument error."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} holds no seed")
    return workload, seeds


def revision(rev: str) -> tuple[str, str] | None:
    """The commit and tree hashes of ``rev``, or None when git knows no such commit."""
    hashes = []
    for kind in ("commit", "tree"):
        done = sigterm.run(["git", "rev-parse", "--verify", "--quiet", "--end-of-options", f"{rev}^{{{kind}}}"],
                           cwd=ROOT, text=True)
        if done.returncode != 0:
            return None
        hashes.append(done.stdout.strip())
    return hashes[0], hashes[1]


def run_once(sha: str, workload: str, seed: int, seconds: int, scratch: Path) -> dict:
    """The JSON result of one benchmark run on a fresh copy of the revision."""
    copy = Path(tempfile.mkdtemp(prefix=f"{sha[:8]}-", dir=scratch))
    try:
        archive = sigterm.run(["git", "archive", sha], cwd=ROOT)
        archive.check_returncode()
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tree:
            tree.extractall(copy, filter="data")
        command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        done = sigterm.run(command, cwd=copy, env=env, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{sha[:8]} {workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(copy)


def summary(pairs: list[dict], directions: dict[str, str]) -> dict:
    out = {}
    for name, better in directions.items():
        sides = {}
        for side in ("parent", "change"):
            values = [pair[side]["metrics"][name]["value"] for pair in pairs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1 if better == "higher" else -1
        wins = sum(
            sign * (pair["change"]["metrics"][name]["value"] - pair["parent"]["metrics"][name]["value"]) > 0
            for pair in pairs
        )
        out[name] = dict(sides, better=better, change_wins=wins, pairs=len(pairs),
                         median_gain=sign * (sides["change"]["median"] - sides["parent"]["median"]),
                         parent_iqr=sides["parent"]["q3"] - sides["parent"]["q1"])
    return out


def main() -> int:
    sigterm.install()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--run", action="append", required=True, type=seed_set)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} exists; delete it first")
    if not args.out.parent.is_dir():
        parser.error(f"{args.out.parent} is not a directory; --out must name a file in one")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    for workload, _ in args.run:
        if workload not in workloads:
            parser.error(f"BENCHMARK.json names no workload {workload!r}")
    resolved = {side: revision(getattr(args, side)) for side in ("parent", "change")}
    for side, hashes in resolved.items():
        if hashes is None:
            parser.error(f"git knows no commit {getattr(args, side)!r} (--{side})")
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    shas = {side: commit for side, (commit, _) in resolved.items()}
    result = {
        "command": " ".join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
        "revisions": shas,
        "trees": {side: tree for side, (_, tree) in resolved.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        # the side that goes first alternates across every pair in the file
        k = 0
        for workload, seeds in args.run:
            pairs = []
            record = {"seeds": seeds, "pairs": pairs}
            result["workloads"].setdefault(workload, []).append(record)
            for seed in seeds:
                sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                k += 1
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    pair[side] = run_once(shas[side], workload, seed, seconds, Path(scratch))
                pairs.append(pair)
                record["summary"] = summary(pairs, directions)
                args.out.write_text(json.dumps(result, indent=1) + "\n")
                print(f"{workload} seed {seed}: ops_per_s parent "
                      f"{pair['parent']['metrics']['ops_per_s']['value']:.1f} change "
                      f"{pair['change']['metrics']['ops_per_s']['value']:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
