#!/usr/bin/env python3
"""Tabulate graded section dimensions of a fan's Cox ring over a class window.

Usage: python scripts/graded_dimension_table.py <fan.json|corpus name> [--radius N]

Each row lists a class, the ring piece dimension (checked by both
oracles), and the module piece dimension of the Euler section module.
"""

import argparse
import itertools
import sys
from pathlib import Path

from toric_cox.corpus import SMOOTH_COMPLETE, load_fan
from toric_cox.cox import cox_data, graded_dimension
from toric_cox.euler import build_euler_module, graded_piece_dim
from toric_cox.fans import fan_from_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fan", help="path to a fan JSON file, or a corpus name")
    parser.add_argument("--radius", type=int, default=2)
    args = parser.parse_args()

    if args.fan in SMOOTH_COMPLETE:
        fan = load_fan(args.fan)
    else:
        fan = fan_from_json(Path(args.fan).read_text())

    cd = cox_data(fan)
    em = build_euler_module(cd)
    form = cd.weight_form
    print(f"rays: {fan.n_rays}, class rank: {cd.cl_rank}, weight form: {form.coefficients}")
    print(f"{'class':<20} {'weight':>6} {'ring dim':>8} {'module dim':>10}")
    nonzero = 0
    for lam in itertools.product(range(-args.radius, args.radius + 1), repeat=cd.cl_rank):
        ring_dim = graded_dimension(cd, lam)
        module_dim = graded_piece_dim(em, lam)
        if ring_dim or module_dim:
            nonzero += 1
            print(f"{str(lam):<20} {form(lam):>6} {ring_dim:>8} {module_dim:>10}")
    print(f"{nonzero} classes with nonzero pieces in the window")
    return 0


if __name__ == "__main__":
    sys.exit(main())
