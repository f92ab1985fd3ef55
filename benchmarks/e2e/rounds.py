"""Fixed-work rounds: the measuring loop of the four simulator-family workloads.

A *round* is one unit of fixed work on one input (a round seed, a chunk
of walks, a recorded history).  A window is as many whole rounds as fit
the requested seconds, cycling the inputs, with a machine-speed
reference sample before, between and after them; a round is never cut
short.  Timed regions run with automatic GC off and end in exactly one
``gc.collect()`` inside the timer.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

import layers
from harness import Window, percentile, quiet_gc
from reference import Reference
from tracing import Tracer, install

#: Share of a traced run spent untraced, to price the tracing itself.
UNTRACED_SHARE = 0.3


class Stopwatch:
    """Wall and CPU seconds of a ``with`` block, its one ``gc.collect()`` included."""

    def __enter__(self) -> "Stopwatch":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *_exc) -> None:
        gc.collect()
        self.seconds = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu


@dataclass
class RoundSample:
    """One fixed-work round of a simulator-family window."""

    seconds: float
    cpu_s: float
    attempted: int
    failed: int
    commits: int


def derived_window(
    samples: List[RoundSample], n_inputs: int, speed, failures: List[str]
) -> Window:
    """One pass over the inputs, each at its median reference-speed cost.

    Round ``i`` ran input ``i % n_inputs``.  Its CPU seconds are scaled
    by the reference samples on either side of it, and so is the CPU
    part of its wall seconds (the rest is waiting for ``fsync``, which
    does not get faster on a faster core); each input then gets the
    median over its rounds.  Throughput and CPU per commit
    are totals over inputs of those medians, the latency percentiles
    are taken across inputs (the typical and the costliest one).
    Medians, because what differs between two rounds of one input is
    only interference; across rounds it is the box that has a tail.
    """
    cpu = [s.cpu_s * speed.local_factor(i) for i, s in enumerate(samples)]
    wall = [c + max(0.0, s.seconds - s.cpu_s) for c, s in zip(cpu, samples)]
    inputs = range(min(n_inputs, len(samples)))
    wall_of = [statistics.median(wall[k::n_inputs]) for k in inputs]
    cpu_of = [statistics.median(cpu[k::n_inputs]) for k in inputs]
    commits_of = [max(1, samples[k].commits) for k in inputs]
    per_commit_ms = [1000.0 * w / c for w, c in zip(wall_of, commits_of)]
    commits = sum(s.commits for s in samples)
    wall_s = sum(s.seconds for s in samples)
    return Window(
        attempted=sum(s.attempted for s in samples),
        failed=sum(s.failed for s in samples),
        commits=commits,
        wall_s=wall_s,
        metrics={
            "commits_per_s": sum(commits_of) / sum(wall_of),
            "commit_latency_p50_ms": percentile(per_commit_ms, 0.50),
            "commit_latency_p95_ms": percentile(per_commit_ms, 0.95),
        },
        derived=True,
        failures=failures,
        diagnostics={
            "rounds": len(samples),
            "speed_factor": speed.factor(),
            "reference_kernel_ms": 1000.0 * statistics.mean(speed.samples),
            "raw_commits_per_s": commits / wall_s,
            "cpu_ms_per_commit": 1000.0 * sum(cpu_of) / sum(commits_of),
            "raw_cpu_ms_per_commit": 1000.0 * sum(s.cpu_s for s in samples) / max(1, commits),
        },
    )


class RoundWorkload:
    """A workload made of rounds; subclasses implement :meth:`run_round`.

    ``run_round(index)`` does input ``index``'s work under a
    :class:`Stopwatch`, returns a :class:`RoundSample` and appends to
    ``self.failures`` when an output is wrong.
    """

    name = ""
    n_inputs = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failures: List[str] = []

    def run_round(self, index: int) -> RoundSample:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass over every input, then freeze what it left:
        objects kept from set-up would otherwise be re-scanned by every
        round's ``gc.collect()`` and billed to the program."""
        with quiet_gc():
            for index in range(self.n_inputs):
                self.run_round(index)
        gc.freeze()

    def _rounds(self, seconds: float, run_round) -> List[RoundSample]:
        samples: List[RoundSample] = []
        self._speed = Reference()
        elapsed = 0.0
        with quiet_gc():
            self._speed.sample()
            while elapsed < seconds:
                samples.append(run_round(len(samples) % self.n_inputs))
                elapsed += samples[-1].seconds
                self._speed.sample()
        return samples

    def _window(self, samples: List[RoundSample]) -> Window:
        failures, self.failures = self.failures, []
        return derived_window(samples, self.n_inputs, self._speed, failures)

    def measure(self, seconds: float) -> Window:
        return self._window(self._rounds(seconds, self.run_round))

    def trace(self, seconds: float, trace_path: str):
        """Untraced rounds, then traced rounds: ``(window, per-layer values)``."""
        plain = self.measure(seconds * UNTRACED_SHARE)
        tracer = Tracer()
        undo = install(tracer)
        try:
            samples = self._rounds(
                seconds * (1.0 - UNTRACED_SHARE),
                tracer.wrap("bench:round", self.run_round),
            )
        finally:
            undo()
        window = self._window(samples)
        values = layers.compute(
            tracer, self.trace_counters(samples), window.commits, "bench:round"
        )
        values["trace.overhead_share"] = 1.0 - (
            window.metrics["commits_per_s"] / plain.metrics["commits_per_s"]
        )
        tracer.write(trace_path)
        window.failures = plain.failures + window.failures
        return window, values

    def trace_counters(self, samples: List[RoundSample]) -> Dict[str, float]:
        """Exact counts of the traced rounds, for ``layers.compute``."""
        return {}

    def verify(self) -> List[str]:
        return []

    def close(self) -> None:
        pass
