"""Machine-speed calibration from a fixed exact-arithmetic pass that uses no cycledec code.

The speed of the shared machines this benchmark runs on drifts between
regimes that differ by up to about 1.8x for minutes at a time, and every
wall-clock time moves with it.  A run therefore also times
:func:`reference_pass` (standard-library fractions and dicts only, so no
change to the program can move it) every ``EVERY_S`` seconds, and scales
each time metric by ``REFERENCE_S / mean pass time``.  A reported second
is a wall-clock second on a machine where the pass takes ``REFERENCE_S``;
the raw wall-clock figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005
EVERY_S = 0.25


def reference_pass() -> float:
    """Seconds for one fixed pass: exact 8x8 Hilbert elimination, then dict work."""
    started = time.perf_counter()
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(1)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    table = {((i * 7919) % 1009, i % 13): rows[i % n][n] for i in range(2000)}
    sorted(table.items())
    return time.perf_counter() - started


class Calibration:
    """Reference passes taken between ops, at most one per ``EVERY_S``."""

    def __init__(self):
        self.samples = []
        self._due = 0.0

    def tick(self):
        if time.perf_counter() >= self._due:
            self.samples.append(reference_pass())
            self._due = time.perf_counter() + EVERY_S

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    @property
    def speed(self) -> float:
        return speed_factor(self.samples)


def speed_factor(samples) -> float:
    """Factor turning wall seconds into reference seconds, from pass times."""
    return REFERENCE_S / statistics.fmean(samples)
