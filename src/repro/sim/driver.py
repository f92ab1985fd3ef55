"""The simulation driver: schedules → outcomes.

A :class:`~repro.workload.generator.Schedule` is a deterministic list
of timed submissions (global transactions through coordinators, local
transactions straight into one LTM).  This module is the only code
that turns one into a run: :func:`arm` loads the initial data and arms
the submissions on the kernel, the caller drains the kernel however
its drill needs (one bounded drain, a fault phase then a heal phase,
a chooser-driven exploration), and :meth:`SimulationResult.settle`
gathers the outcomes and reports what the drain left behind.
:func:`run_schedule` is arm + one drain + settle, raising on the first
problem.  Aborted globals can be retried — each retry is a *new* global
transaction to the model, exactly as the paper treats
application-level re-execution.

:class:`DrillResult` is the one report type of the drills built on
top (``repro chaos``, ``repro overload``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.errors import SimulationError
from repro.common.ids import TxnId, global_txn
from repro.core.coordinator import GlobalOutcome, GlobalTransactionSpec
from repro.core.dtm import LocalOutcome, MultidatabaseSystem
from repro.history.invariants import Violation
from repro.kernel.events import Event

#: Retry transaction numbers start here so they never collide with
#: workload-assigned numbers.
_RETRY_BASE = 1_000_000


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one driven run."""

    system: MultidatabaseSystem
    #: Outcome of every global attempt, including retries, keyed by txn.
    global_outcomes: Dict[TxnId, GlobalOutcome] = field(default_factory=dict)
    local_outcomes: Dict[TxnId, LocalOutcome] = field(default_factory=dict)
    #: retry attempt chains: original txn -> list of retry txns.
    retries: Dict[TxnId, List[TxnId]] = field(default_factory=dict)
    finished_at: float = 0.0
    #: Globals whose coordinator process died instead of deciding.
    deaths: Dict[TxnId, BaseException] = field(default_factory=dict)
    #: Completion events of the armed locals, read by :meth:`settle`.
    local_completions: List[Event] = field(default_factory=list, repr=False)

    @property
    def committed_globals(self) -> List[TxnId]:
        return sorted(
            txn for txn, out in self.global_outcomes.items() if out.committed
        )

    @property
    def aborted_globals(self) -> List[TxnId]:
        return sorted(
            txn for txn, out in self.global_outcomes.items() if not out.committed
        )

    @property
    def commit_latencies(self) -> List[float]:
        return [
            out.latency for out in self.global_outcomes.values() if out.committed
        ]

    def logical_commit_fraction(self) -> float:
        """Fraction of *original* transactions whose chain committed."""
        originals = [
            txn for txn in self.global_outcomes if txn.number < _RETRY_BASE
        ]
        if not originals:
            return 0.0
        done = 0
        for txn in originals:
            chain = [txn] + self.retries.get(txn, [])
            if any(self.global_outcomes[t].committed for t in chain):
                done += 1
        return done / len(originals)

    def settle(self) -> List[Violation]:
        """Gather outcomes after the drain; report what it left behind.

        Local outcomes are read off their completion events here rather
        than subscribed to during the run: a subscription costs one
        kernel event per local, which would move the explorer's
        tie-batch choice points.  Returns one ``coordinator-death`` per
        global whose coordinator process died, one ``local-death`` per
        local runner that did, and a ``quiesce`` violation when events
        are still pending.
        """
        violations = [
            Violation(
                kind="coordinator-death",
                detail=f"coordinator process for {txn} died: {error!r}",
                txns=(str(txn),),
            )
            for txn, error in self.deaths.items()
        ]
        for completion in self.local_completions:
            if completion.error is not None:
                violations.append(
                    Violation(
                        kind="local-death",
                        detail=(
                            f"local txn runner {completion.name} died: "
                            f"{completion.error!r}"
                        ),
                    )
                )
            elif completion.done:
                outcome: LocalOutcome = completion.value
                self.local_outcomes[outcome.txn] = outcome
        kernel = self.system.kernel
        if kernel.pending:
            violations.append(
                Violation(
                    kind="quiesce",
                    detail=(
                        f"run did not quiesce ({kernel.pending} events pending)"
                    ),
                    context={"pending": kernel.pending},
                )
            )
        self.finished_at = kernel.now
        return violations


def arm(
    system: MultidatabaseSystem,
    schedule: "Schedule",
    retry_aborted: int = 0,
    retry_delay: float = 50.0,
) -> SimulationResult:
    """Load ``schedule``'s data and arm its submissions on the kernel.

    Nothing runs yet: drain ``system`` and then call
    :meth:`SimulationResult.settle`.  ``retry_aborted`` > 0 re-submits
    aborted global transactions (with fresh transaction ids) up to that
    many times per original.
    """
    result = SimulationResult(system=system)
    retry_numbers = itertools.count(_RETRY_BASE)

    for site, tables in schedule.initial_data.items():
        for table, rows in tables.items():
            system.load(site, table, rows)

    def submit_global(
        spec: GlobalTransactionSpec, original: TxnId, attempts_left: int
    ) -> None:
        def done(event: Event) -> None:
            if event.error is not None:
                result.deaths[spec.txn] = event.error
                return
            outcome: GlobalOutcome = event.value
            result.global_outcomes[spec.txn] = outcome
            if outcome.committed or attempts_left <= 0:
                return
            retry_txn = global_txn(next(retry_numbers))
            result.retries.setdefault(original, []).append(retry_txn)
            retry_spec = GlobalTransactionSpec(
                txn=retry_txn, steps=spec.steps, think_time=spec.think_time
            )
            system.kernel.schedule(
                retry_delay,
                lambda: submit_global(retry_spec, original, attempts_left - 1),
            )

        system.submit(spec).subscribe(done)

    for entry in schedule.globals_:
        system.kernel.schedule(
            entry.at,
            lambda e=entry: submit_global(e.spec, e.spec.txn, retry_aborted),
        )

    def submit_local(entry: Any) -> None:
        result.local_completions.append(
            system.submit_local(
                entry.site,
                entry.commands,
                number=entry.number,
                think_time=entry.think_time,
            )
        )

    for entry in schedule.locals_:
        system.kernel.schedule(entry.at, lambda e=entry: submit_local(e))
    return result


def run_schedule(
    system: MultidatabaseSystem,
    schedule: "Schedule",
    retry_aborted: int = 0,
    retry_delay: float = 50.0,
    run_limit: float = 10_000_000.0,
) -> SimulationResult:
    """Drive ``schedule`` against ``system`` until quiescence.

    :func:`arm`, one bounded drain, then :meth:`~SimulationResult.settle`;
    the first problem it reports is raised as :class:`SimulationError`.
    """
    result = arm(system, schedule, retry_aborted, retry_delay)
    # `until` is a pure safety bound; `advance=False` keeps simulated
    # time at the last event instead of fast-forwarding to the limit.
    system.run(until=run_limit, advance=False)
    problems = result.settle()
    if problems:
        raise SimulationError(str(problems[0]))
    return result


@dataclass
class DrillResult:
    """What one drill run did and whether the invariants held.

    ``description`` is what differs between drills: the fault schedule
    for chaos, the offered load and shedding for overload.
    """

    seed: int
    description: str
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    sim_time: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Structured invariant violations (:class:`Violation` — stringify
    #: for prose, ``to_dict`` for JSON); empty = the run is clean.
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def goodput(self) -> float:
        """Committed globals per simulated time unit."""
        return self.committed / self.sim_time if self.sim_time else 0.0

    def summary(self) -> str:
        lines = [
            f"seed {self.seed}: submitted={self.submitted} "
            f"committed={self.committed} aborted={self.aborted} "
            f"sim_time={self.sim_time:.0f} goodput={self.goodput:.5f}",
            *self.description.splitlines(),
            "counters: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.counters.items())),
        ]
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("invariants: all hold")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "description": self.description,
            "submitted": self.submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "sim_time": self.sim_time,
            "goodput": self.goodput,
            "counters": dict(self.counters),
            "violations": [v.to_dict() for v in self.violations],
        }
