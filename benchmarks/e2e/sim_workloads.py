"""Simulator-family workloads: ``sim_default`` and ``sim_hardened``.

A round builds one system, drives one pre-generated schedule to
quiescence and scrapes its counters.  It is also the unit of the
count-determinism check: every round of one seed must produce exactly
the counts its warm-up round produced.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from harness import fresh_dir
from rounds import RoundSample, RoundWorkload, Stopwatch


@dataclass
class Round(RoundSample):
    """A round plus its exact counts and (warm-up rounds only) its system."""

    counts: Dict[str, int]
    system: Optional[object]


def round_counts(system, result, metrics) -> Dict[str, int]:
    """The exact, seed-determined counts of one finished round."""
    certifiers = [system.certifier(site) for site in system.config.sites]
    wals = [agent.log.wal for agent in system.agents.values() if hasattr(agent.log, "wal")]
    wals += [
        c.decision_log.wal for c in system.coordinators if c.decision_log is not None
    ]
    return {
        "decided": len(result.global_outcomes),
        "commits": metrics.global_committed,
        "aborted": metrics.global_aborted,
        "events": system.kernel.events_fired,
        "messages": metrics.messages,
        "acks_sent": metrics.acks_sent,
        "retransmits": metrics.retransmits,
        "lock_waits": metrics.lock_waits,
        "resubmissions": metrics.resubmissions,
        "unilateral_aborts": metrics.unilateral_aborts,
        "commit_delays": metrics.commit_delays,
        "prepare_checks": metrics.prepare_checks,
        "commit_checks": sum(c.commit_checks for c in certifiers),
        "refusals": sum(metrics.refusals_by_reason.values()),
        "index_depth": metrics.cert_index_depth,
        "wal_forced_appends": sum(w.forced_appends for w in wals),
        "fsyncs": metrics.fsyncs,
        "admitted": metrics.overload_admitted,
        "shed": metrics.overload_shed,
    }


class SimWorkload(RoundWorkload):
    """Shared machinery; subclasses say what system and schedule to use."""

    n_inputs = 4
    n_global = 0
    n_local = 0

    def __init__(self, seed: int, quick: bool, seconds: float = 0.0) -> None:
        super().__init__(seed)
        if quick:
            self.n_inputs = 2
            self.n_global = max(40, self.n_global // 8)
            self.n_local = self.n_local // 8
        self.round_seeds = [seed * 1000 + r for r in range(self.n_inputs)]
        self.schedules: List[object] = []
        #: The warm-up round of each input: reference for the count
        #: check, and the finished system the oracle audits.
        self.reference: List[Round] = []
        self.generate_s = 0.0
        self.workdir = ""
        self._wal_dirs = itertools.count()

    # -- subclass hooks ---------------------------------------------------

    def workload_config(self, seed: int):
        raise NotImplementedError

    def build(self, seed: int):
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------

    def setup(self) -> None:
        from repro.workload.generator import WorkloadGenerator

        self.workdir = fresh_dir(f"{self.name}-{os.getpid()}")
        started = time.perf_counter()
        self.schedules = [
            WorkloadGenerator(self.workload_config(seed)).generate()
            for seed in self.round_seeds
        ]
        self.generate_s = time.perf_counter() - started
        self.warm_up()

    def run_round(self, index: int) -> Round:
        from repro.sim import driver, metrics as sim_metrics

        seed, schedule = self.round_seeds[index], self.schedules[index]
        with Stopwatch() as watch:
            system = self.build(seed)
            result = driver.run_schedule(system, schedule)
            system.close()
            scraped = sim_metrics.collect_metrics(system)
        counts = round_counts(system, result, scraped)
        if system.config.durability is not None:
            shutil.rmtree(system.config.durability.root, ignore_errors=True)
        # A global that is refused or times out was *decided*, correctly:
        # refusal is the method working.  Only one that never got an
        # outcome failed.  (Retrying the aborted ones at the application
        # level, to make every operation a commit, was tried: the driver
        # retries after a fixed delay, so two globals that deadlock
        # across sites time out together, are retried together and
        # deadlock again, every time, and unlucky seeds build retry
        # storms that triple the work per commit.)
        attempted = len(schedule.globals_)
        done = Round(
            watch.seconds,
            watch.cpu_s,
            attempted,
            attempted - counts["decided"],
            counts["commits"],
            counts,
            system,
        )
        if len(self.reference) <= index:
            self.reference.append(done)
        else:
            done.system = None  # only the warm-up systems are audited
            expected = self.reference[index].counts
            if counts != expected:
                drift = {k: (expected[k], counts[k]) for k in expected if expected[k] != counts[k]}
                self.failures.append(
                    f"{self.name}: counts of seed {seed} drifted between passes: {drift}"
                )
        return done

    def trace_counters(self, samples: List[Round]) -> Dict[str, float]:
        counters: Dict[str, float] = {}
        for done in samples:
            for key, value in done.counts.items():
                counters[key] = counters.get(key, 0) + value
        counters["index_depth_max"] = max(r.counts["index_depth"] for r in samples)
        return counters

    def trace(self, seconds: float, trace_path: str):
        window, values = super().trace(seconds, trace_path)
        values["workload.generate_ms_per_commit"] = (
            1000.0 * self.generate_s / (self.n_inputs * self.n_global)
        )
        return window, values

    def verify(self) -> List[str]:
        """The full oracle, once per seed, over the warm-up systems."""
        from repro.sim import failures as sim_failures

        return [
            f"{self.name}: seed {seed}: {violation.kind}: {violation}"
            for seed, done in zip(self.round_seeds, self.reference)
            for violation in sim_failures.invariant_battery(done.system, include_ci=True)
        ]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class SimDefault(SimWorkload):
    name = "sim_default"
    n_global = 500

    def workload_config(self, seed: int):
        from repro.workload.generator import WorkloadConfig

        return WorkloadConfig(n_global=self.n_global, sites_max=2, seed=seed)

    def build(self, seed: int):
        from repro.core.dtm import MultidatabaseSystem, SystemConfig

        return MultidatabaseSystem(
            SystemConfig(sites=("a", "b", "c"), n_coordinators=2, seed=seed)
        )


def hardened_system(seed: int, root: str):
    """Every opt-in layer on, plus 30% seeded unilateral aborts."""
    from repro.core.dtm import MultidatabaseSystem, SystemConfig
    from repro.durability.config import DurabilityConfig
    from repro.net.reliable import ReliableConfig
    from repro.overload.config import OverloadConfig
    from repro.sim.failures import RandomFailureInjector

    system = MultidatabaseSystem(
        SystemConfig(
            sites=("a", "b", "c"),
            n_coordinators=2,
            seed=seed,
            certifier_engine="indexed",
            durability=DurabilityConfig(root=root),
            reliable=ReliableConfig(),
            overload=OverloadConfig(),
        )
    )
    RandomFailureInjector(system, probability=0.3, seed=seed)
    return system


def hardened_workload(seed: int, n_global: int, n_local: int):
    from repro.workload.generator import WorkloadConfig

    return WorkloadConfig(
        n_global=n_global,
        n_local=n_local,
        sites_max=2,
        mean_interarrival=8.0,
        seed=seed,
    )


class SimHardened(SimWorkload):
    name = "sim_hardened"
    n_global = 300
    n_local = 75

    def workload_config(self, seed: int):
        return hardened_workload(seed, self.n_global, self.n_local)

    def build(self, seed: int):
        return hardened_system(
            seed, os.path.join(self.workdir, f"wal-{next(self._wal_dirs)}")
        )
