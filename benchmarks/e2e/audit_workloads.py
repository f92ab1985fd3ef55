"""History-layer workloads: ``explore_random`` and ``oracle_audit``.

Both spend their time in the same oracle (``invariant_battery``) at
opposite shapes: the explorer audits thousands of six-transaction
histories, the audit a handful of three-hundred-transaction ones.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from typing import Dict, List, Tuple

from harness import fresh_dir
from rounds import RoundSample, RoundWorkload, Stopwatch
from sim_workloads import hardened_system, hardened_workload


@dataclass
class WalkRound(RoundSample):
    choice_points: int


class ExploreRandom(RoundWorkload):
    """Seeded random walks of the schedule explorer, in chunks of walks."""

    name = "explore_random"
    n_inputs = 6
    walks_per_round = 60

    def __init__(self, seed: int, quick: bool, seconds: float = 0.0) -> None:
        super().__init__(seed)
        if quick:
            self.n_inputs, self.walks_per_round = 2, 10
        #: walk index -> (fingerprint, committed, choice points)
        self.reference: Dict[int, Tuple[str, int, int]] = {}
        self.coverage: set = set()

    def setup(self) -> None:
        from repro.explore import harness as explore_harness

        self._harness = explore_harness
        self._spec = explore_harness.ExploreSpec()
        self.warm_up()

    def run_round(self, index: int) -> WalkRound:
        from repro.explore.trace import RandomChooser

        failed = choice_points = 0
        first = index * self.walks_per_round
        with Stopwatch() as watch:
            for walk in range(first, first + self.walks_per_round):
                chooser = RandomChooser(random.Random(self.seed * 10007 + walk))
                # through the module, so a traced run sees the wrapper
                result = self._harness.run_once(self._spec, chooser)
                observed = (result.fingerprint, result.committed, len(result.points))
                expected = self.reference.setdefault(walk, observed)
                if result.violations:
                    failed += 1
                    self.failures.append(
                        f"{self.name}: walk {walk}: "
                        + "; ".join(f"{v.kind}: {v}" for v in result.violations)
                    )
                elif observed != expected:
                    failed += 1
                    self.failures.append(
                        f"{self.name}: walk {walk} is not deterministic: "
                        f"{expected} then {observed}"
                    )
                choice_points += len(result.points)
                self.coverage |= result.coverage
        # This workload's "commit" is a schedule explored to a clean
        # verdict.  The globals committed inside the walks depend on the
        # faults each walk happens to inject (120-140 per 60 walks), which
        # made committed-globals-per-second spread 5 % across seeds for
        # identical code; schedules per second is what the explorer sells.
        return WalkRound(
            watch.seconds,
            watch.cpu_s,
            self.walks_per_round,
            failed,
            self.walks_per_round - failed,
            choice_points,
        )

    def trace_counters(self, samples: List[WalkRound]) -> Dict[str, float]:
        return {
            "choice_points": sum(s.choice_points for s in samples),
            "coverage": len(self.coverage),
        }


class OracleAudit(RoundWorkload):
    """The invariant battery over a few large pre-recorded histories."""

    name = "oracle_audit"
    #: Battery cost per commit varies 7-9 % from one generated history to
    #: the next, at 150 transactions as at 300, so what steadies a run
    #: across seeds is the *number* of histories: eight of 200 set up
    #: faster than six of 300 and spread less from seed to seed.
    n_inputs = 8
    n_global = 160
    n_local = 40

    def __init__(self, seed: int, quick: bool, seconds: float = 0.0) -> None:
        super().__init__(seed)
        if quick:
            self.n_inputs, self.n_global, self.n_local = 2, 40, 10
        self.systems: List[object] = []
        self.workdir = ""

    def setup(self) -> None:
        from repro.sim import driver, failures
        from repro.workload.generator import WorkloadGenerator

        self._failures_module = failures
        self.workdir = fresh_dir(f"{self.name}-{os.getpid()}")
        for r in range(self.n_inputs):
            seed = self.seed * 1000 + r
            schedule = WorkloadGenerator(
                hardened_workload(seed, self.n_global, self.n_local)
            ).generate()
            system = hardened_system(seed, os.path.join(self.workdir, f"wal-{r}"))
            driver.run_schedule(system, schedule)
            system.close()
            self.systems.append(system)
        self.warm_up()

    def run_round(self, index: int) -> RoundSample:
        system = self.systems[index]
        with Stopwatch() as watch:
            # through the module, so a traced run sees the wrapper
            violations = self._failures_module.invariant_battery(system, include_ci=True)
        if violations:
            self.failures.append(
                f"{self.name}: history {index}: "
                + "; ".join(f"{v.kind}: {v}" for v in violations)
            )
        committed = sum(c.committed for c in system.coordinators)
        return RoundSample(watch.seconds, watch.cpu_s, 1, int(bool(violations)), committed)

    def trace_counters(self, samples: List[RoundSample]) -> Dict[str, float]:
        per_history = [len(system.history.ops) for system in self.systems]
        return {
            "history_ops_audited": sum(
                per_history[i % self.n_inputs] for i in range(len(samples))
            )
        }

    def verify(self) -> List[str]:
        """A vacuous oracle must not score: the paper's H1 under the naive
        method violates CI and view serializability, under 2CM nothing."""
        from repro.workload.scenarios import run_h1

        battery = self._failures_module.invariant_battery
        problems = []
        flagged = {v.kind for v in battery(run_h1("naive").system, include_ci=True)}
        if not {"ci.1", "audit.viewser"} <= flagged:
            problems.append(
                f"{self.name}: the oracle missed the violations of H1 under the "
                f"naive method (flagged only {sorted(flagged)})"
            )
        clean = battery(run_h1("2cm").system, include_ci=True)
        if clean:
            problems.append(
                f"{self.name}: the oracle flags H1 under 2CM: {[v.kind for v in clean]}"
            )
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
