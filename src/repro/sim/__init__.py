"""Simulation driver, failure injection, metrics and reporting (S21).

* :mod:`repro.sim.driver` — the one schedule driver: :func:`arm` loads
  a workload schedule and arms its submissions,
  :meth:`SimulationResult.settle` collects outcomes after the drain and
  reports quiescence and process deaths; :func:`run_schedule` is both
  around one drain.  :class:`DrillResult` is the report of every drill
  built on it (chaos, overload);
* :mod:`repro.sim.failures` — scripted and randomized unilateral-abort
  injection (the paper's failure model: an LDBS may roll back any
  transaction at any time, even after all commands executed), the
  chaos drill and the shared invariant battery;
* :mod:`repro.sim.metrics` — aggregate counters and the correctness
  audit, whose :meth:`CorrectnessAudit.violations` is the one statement
  of the paper's guarantee (view serializability of C(H), rigorousness,
  no global distortion; an acyclic CG where view serializability is
  undecided);
* :mod:`repro.sim.report` — plain-text table rendering for benchmarks.
"""

from repro.sim.driver import DrillResult, SimulationResult, arm, run_schedule
from repro.sim.failures import (
    RandomFailureInjector,
    abort_current_incarnation,
    inject_abort_after_global_commit,
    inject_abort_after_prepare,
)
from repro.sim.metrics import CorrectnessAudit, SystemMetrics, audit, collect_metrics

__all__ = [
    "CorrectnessAudit",
    "DrillResult",
    "RandomFailureInjector",
    "SimulationResult",
    "SystemMetrics",
    "abort_current_incarnation",
    "arm",
    "audit",
    "collect_metrics",
    "inject_abort_after_global_commit",
    "inject_abort_after_prepare",
    "run_schedule",
]
