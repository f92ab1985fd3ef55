"""A machine-speed reference, sampled next to the measured work.

The boxes this benchmark runs on are small shared VMs whose speed
drifts by 10-25 % over seconds to minutes (a fixed arithmetic loop and
the simulator slow down together; pinning a CPU does not help).  Ten
windows of identical simulator rounds spread 7-12 % (IQR/median) raw.
Timing a fixed, benchmark-owned kernel between the rounds and scaling
CPU times by ``NOMINAL_S / measured`` brings that to 2-5 %.

The kernel is deliberately the simulator's diet — small objects, a
heap, a dict keyed by tuples, an attribute sum — because an
arithmetic-only loop tracks the interference only half as well.  It
lives here, not under ``src/``, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter
from typing import List

#: Median of the kernel on the box the benchmark was defined on (2 vCPU
#: Xeon @ 2.1 GHz, CPython 3.11).  Only ratios between runs matter; this
#: constant just keeps normalized values in real units on a like box.
NOMINAL_S = 0.0145


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: object) -> None:
        self.a = a
        self.b = b
        self.c = c


def kernel() -> float:
    """Run the fixed kernel once; returns its wall seconds (~15 ms).

    Automatic GC is off while it runs: its 20 000 allocations would
    otherwise trigger collections whose cost depends on the caller's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(20000):
            cell = _Cell(i, (i * 7919) % 10007, None)
            heapq.heappush(heap, (cell.b, i, cell))
            table[(cell.b, i)] = cell
            if i % 3 == 0:
                b, _i, popped = heapq.heappop(heap)
                table.pop((b, popped.a), None)
        sum(cell.a for cell in table.values())
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Reference:
    """Kernel samples taken during one window."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        self.samples.append(kernel())
        return self.samples[-1]

    def factor(self) -> float:
        """Multiply a CPU-bound time of this window by this to get what
        it would have been at nominal machine speed (< 1 on a slow box)."""
        if not self.samples:
            return 1.0
        return NOMINAL_S * len(self.samples) / sum(self.samples)

    def local_factor(self, index: int) -> float:
        """The same, for work item ``index`` (which ran between samples
        ``index`` and ``index + 1``): from the median of the six samples
        nearest to it.  A 15 ms sample is easily hit by a 5 ms
        preemption, so single neighbours are noisier than what they
        correct; the median of a ~2 s neighbourhood still follows the
        seconds-long interference episodes."""
        around = self.samples[max(0, index - 2) : index + 4]
        return NOMINAL_S / statistics.median(around)
