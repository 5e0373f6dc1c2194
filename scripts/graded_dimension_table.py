#!/usr/bin/env python3
"""Tabulate graded section dimensions of a fan's Cox ring over a class window.

Usage: python scripts/graded_dimension_table.py <fan.json|bundled name> [--radius N]

Each row lists a class, the ring piece dimension (checked by both
oracles), and the module piece dimension of the Euler section module.
A fan that cannot be tabulated ends the run with one line on stderr and
the CLI's exit codes: 1 when the package rejects it (not smooth, not
complete, ...), 2 for a file that cannot be read or parsed, 3 for a
structurally invalid fan.  A negative radius is an argument error (2).
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

from toric_cox.corpus import NON_EXAMPLES, SMOOTH_COMPLETE, corpus_path
from toric_cox.cox import cox_data, graded_dimension
from toric_cox.errors import MalformedFan, ToricCoxError
from toric_cox.euler import build_euler_module, graded_piece_dim
from toric_cox.fans import fan_from_json


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"radius {value} is negative")
    return value


def print_table(text: str, radius: int) -> None:
    fan = fan_from_json(text)
    cd = cox_data(fan)
    em = build_euler_module(cd)
    form = cd.weight_form
    print(f"rays: {fan.n_rays}, class rank: {cd.cl_rank}, weight form: {form.coefficients}")
    print(f"{'class':<20} {'weight':>6} {'ring dim':>8} {'module dim':>10}")
    nonzero = 0
    for lam in itertools.product(range(-radius, radius + 1), repeat=cd.cl_rank):
        ring_dim = graded_dimension(cd, lam)
        module_dim = graded_piece_dim(em, lam)
        if ring_dim or module_dim:
            nonzero += 1
            print(f"{str(lam):<20} {form(lam):>6} {ring_dim:>8} {module_dim:>10}")
    print(f"{nonzero} classes with nonzero pieces in the window")


def fail(fan: str, exc: Exception, code: int) -> int:
    print(f"{fan}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fan", help="path to a fan JSON file, or the name of a bundled example")
    parser.add_argument("--radius", type=nonnegative, default=2)
    args = parser.parse_args()
    path = corpus_path(args.fan) if args.fan in SMOOTH_COMPLETE + NON_EXAMPLES else Path(args.fan)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return fail(args.fan, exc, 2)
    try:
        print_table(text, args.radius)
    except json.JSONDecodeError as exc:
        return fail(args.fan, exc, 2)
    except MalformedFan as exc:
        return fail(args.fan, exc, 3)
    except ToricCoxError as exc:
        return fail(args.fan, exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
