"""Host speed probe: a fixed kernel timed between operations.

On a shared host the speed a process gets moves by tens of percent, in
bursts of under a second and in drifts over minutes, as other tenants come
and go.  Taking the median of repeated timings smooths the bursts but not
a drift that lasts the whole run, so a run also times this probe, which
uses nothing from the package under test, before every operation.  The
probe's median time over the run says how fast the host was during that
run, and timings are reported scaled to REFERENCE_S: the seconds they
would have taken on a host where the probe's median is REFERENCE_S.

The probe does the three kinds of work the package spends its time on:
interpreted Python (a subset scan with bitmask tests, as in the tie-set
enumeration and the chain builds), NumPy integer passes over arrays larger
than the caches (a balance table, as in `system.balanced_mask_table`), and
many small floating-point array updates (a uniformization series, as in
`ttf.pdf_grid`).  Its arrays, about 10 MB, are allocated once and reused:
freeing large arrays changes how the C allocator serves later requests,
which would change the package's own memory use and time.
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations

# The probe's median time on a 2-vCPU Intel Xeon VM with CPython 3.11 and
# NumPy 2.4, the host this benchmark was tuned on.
REFERENCE_S = 0.016
# Probes timed right after set-up, for the set-up time's scale.
AFTER_SETUP = 15


def _interpreted(n: int = 16, size: int = 4) -> int:
    found = (0b1111, 0b110011)
    kept = 0
    for units in combinations(range(1, n + 1), size):
        mask = 0
        for i in units:
            mask |= 1 << (n - i)
        if any((mask & t) == t for t in found):
            continue
        kept += 1
    return kept


class Probe:
    """The kernel and the arrays it reuses; create one per process, after
    set-up, so that set-up time does not include importing NumPy."""

    def __init__(self, n: int = 16, states: int = 9110, phases: int = 3):
        import numpy as np

        self.np = np
        self.masks = np.arange(1 << n, dtype=np.int64)[:, None]
        self.shifts = np.arange(n)[None, :]
        self.wide = np.empty((1 << n, n), dtype=np.int64)
        self.bits = np.empty((1 << n, n), dtype=np.int8)
        self.same = np.empty((1 << n, n), dtype=bool)
        self.row = np.empty(1 << n, dtype=bool)
        # A state vector of the n = 14 compound chain's shape.
        self.rates = np.linspace(0.5, 1.5, states * phases).reshape(states, phases)
        self.term = np.empty((states, phases))
        self.step = np.empty((states, phases))
        self.acc = np.empty((states, phases))

    def _vectorized(self) -> int:
        np = self.np
        np.right_shift(self.masks, self.shifts, out=self.wide)
        np.bitwise_and(self.wide, 1, out=self.wide)
        self.bits[...] = self.wide
        np.equal(self.bits[:, ::-1], self.bits, out=self.same)
        np.all(self.same, axis=1, out=self.row)
        return int(np.count_nonzero(self.row))

    def _series(self, terms: int = 60) -> float:
        np = self.np
        self.term.fill(1.0)
        self.acc.fill(0.0)
        weight = 1.0
        for j in range(1, terms + 1):
            np.multiply(self.term, self.rates, out=self.step)
            np.subtract(self.step, self.term, out=self.step)
            np.multiply(self.step, 0.5, out=self.step)
            np.add(self.term, self.step, out=self.term)
            weight *= 0.9 / j
            np.multiply(self.term, weight, out=self.step)
            np.add(self.acc, self.step, out=self.acc)
        return float(self.acc.sum())

    def time(self) -> float:
        """Seconds taken by one run of the kernel."""
        start = time.perf_counter()
        _interpreted()
        self._vectorized()
        self._series()
        return time.perf_counter() - start

    def times(self, count: int) -> list[float]:
        return [self.time() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured alongside these probe samples into
    reference-host seconds."""
    return REFERENCE_S / statistics.median(samples)
