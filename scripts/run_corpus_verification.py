#!/usr/bin/env python3
"""Run the invariant suite over every bundled fan and print a summary table.

Usage: python scripts/run_corpus_verification.py [--euler-bound N]
"""

import argparse
import sys
import time

from toric_cox.corpus import NON_EXAMPLES, SMOOTH_COMPLETE, load_fan
from toric_cox.fans import validate_fan
from toric_cox.verify import run_verification


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--euler-bound", type=int, default=4)
    args = parser.parse_args()

    failures = 0
    print(f"{'fan':<14} {'checks':>6} {'passed':>6} {'seconds':>8}")
    for name in SMOOTH_COMPLETE:
        fan = load_fan(name)
        start = time.perf_counter()
        results = run_verification(fan, euler_weight_bound=args.euler_bound)
        elapsed = time.perf_counter() - start
        passed = sum(1 for r in results if r.passed)
        print(f"{name:<14} {len(results):>6} {passed:>6} {elapsed:>8.2f}")
        for r in results:
            if not r.passed:
                failures += 1
                print(f"  FAIL {r.name}: {r.detail}")

    print()
    for name in NON_EXAMPLES:
        report = validate_fan(load_fan(name))
        print(
            f"{name:<14} smooth={report.smooth} complete={report.complete} "
            "(expected rejection)"
        )
        if report.smooth and report.complete:
            failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
