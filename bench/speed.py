"""Host-speed normalisation of measured CPU times.

The benchmark runs on a few virtual cores of a shared host.  Another
guest on the same physical core slows every instruction, so the CPU time
of identical work moves by up to 1.8x within seconds, and no clock leaves
that out.  Each measured stretch of work is therefore followed by a
fixed reference computation on the same core, sized to a quarter of the
work's CPU time, and the work's time is divided by the factor by which the
reference ran slower than its nominal time.  Reported times are thus CPU
seconds on a core that runs one reference unit in ``UNIT_S`` seconds,
about the uncontended speed of a 2.1 GHz Xeon core.

The reference is pure Python in the package's own idiom (exact Fraction
elimination, dict polynomials keyed by exponent tuples) and imports
nothing from the package, so a change to the package moves the work and
never the reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

UNIT_S = 1.5e-4  # nominal CPU time of one reference unit
SHARE = 0.25  # reference time per unit of measured work
MIN_UNITS = 5

_MATRIX = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
_POLY = {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-2, 3), (0, 0, 1): Fraction(5)}


def unit() -> None:
    """One reference unit: an exact 3x3 elimination and a polynomial square."""
    rows = [[Fraction(x) for x in row] + [Fraction(i + 1)] for i, row in enumerate(_MATRIX)]
    for c in range(3):
        p = next(i for i in range(c, 3) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(3):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    square: dict = {}
    for a, x in _POLY.items():
        for b, y in _POLY.items():
            key = tuple(i + j for i, j in zip(a, b))
            square[key] = square.get(key, 0) + x * y


def slowdown(work_s: float) -> float:
    """Run reference units for SHARE * work_s of CPU time; returns their slowdown.

    The slowdown is the mean CPU time of a unit over ``UNIT_S``: dividing
    ``work_s`` by it gives the work's time at the nominal speed.
    """
    clock = time.process_time
    units, spent, start = 0, 0.0, clock()
    while units < MIN_UNITS or spent < SHARE * work_s:
        unit()
        units += 1
        spent = clock() - start
    return spent / units / UNIT_S
