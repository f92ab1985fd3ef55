"""Aggregate metrics and the correctness audit.

:func:`collect_metrics` pulls every counter the components maintain
into one flat, comparable structure; :func:`audit` runs the full
correctness battery over the recorded history:

* local histories rigorous (validates the SRS substrate);
* ``C(H)`` view serializable (the paper's ultimate criterion);
* structural distortion detectors (global view splits / decomposition
  changes, commit-order-graph cycles);
* the serialization graph for reference (may legitimately be cyclic
  while the history is still view serializable — paper Sec. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import RefusalReason
from repro.core.dtm import MultidatabaseSystem
from repro.history.committed import CommittedProjection, committed_projection
from repro.history.distortion import DistortionReport, find_distortions
from repro.history.graphs import find_cycle, serialization_graph
from repro.history.invariants import Violation
from repro.history.rigor import check_rigorous
from repro.history.viewser import ViewSerializabilityResult, check_view_serializable
from repro.sim.stats import merge_counts


@dataclass
class SystemMetrics:
    """Flat counter snapshot of one run (one system, one workload)."""

    method: str
    global_committed: int = 0
    global_aborted: int = 0
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    refusals_by_reason: Dict[str, int] = field(default_factory=dict)
    resubmissions: int = 0
    unilateral_aborts: int = 0
    local_commits: int = 0
    local_aborts: int = 0
    lock_waits: int = 0
    lock_timeouts: int = 0
    alive_checks: int = 0
    prepare_checks: int = 0
    commit_delays: int = 0
    # -- indexed certification engine (all 0 under the naive engine) ---
    #: Records currently held across the certifiers' lazy index heaps.
    cert_index_depth: int = 0
    #: Epoch GC sweeps (index compactions) across all certifiers.
    cert_gc_compactions: int = 0
    #: Stale index records reclaimed by epoch GC.
    cert_gc_reclaimed: int = 0
    #: PREPARE groups certified as one batch (AgentConfig.batch_prepares).
    prepare_batches: int = 0
    #: DONE agent entries dropped on the END watermark (gc_done_txns).
    done_txns_forgotten: int = 0
    dlu_denials: int = 0
    dlu_blocks: int = 0
    messages: int = 0
    force_writes: int = 0
    #: The force-write I/O breakdown: prepare/commit/discard records
    #: from the Agent logs plus the coordinators' decision records.
    force_writes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Physical fsyncs actually issued (0 unless durability is on;
    #: group commit makes this < the force-write count).
    fsyncs: int = 0
    agent_crashes: int = 0
    agent_restarts: int = 0
    # -- transport faults and the session layer (all 0 on the perfect
    # wire, so fault-free metric snapshots are unchanged) --------------
    messages_lost: int = 0
    messages_duplicated: int = 0
    messages_spiked: int = 0
    partition_drops: int = 0
    retransmits: int = 0
    dups_dropped: int = 0
    acks_sent: int = 0
    session_resets: int = 0
    #: Messages the bounded network trace could not record.
    trace_dropped: int = 0
    #: Undeliverable messages (paused-channel drains + abandoned
    #: retransmission windows) — never silently dropped.
    dead_letters: int = 0
    #: Dead letters evicted from the bounded lists (the loss is counted,
    #: never silent).
    dead_letters_dropped: int = 0
    quarantine_refusals: int = 0
    # -- overload layer (all 0 with OverloadConfig off) ----------------
    #: Globals the admission controllers accepted.
    overload_admitted: int = 0
    #: Globals refused at BEGIN by admission control (load shedding).
    overload_shed: int = 0
    #: Globals aborted at a coordinator deadline gate.
    deadline_aborts: int = 0
    #: Globals refused because a site's circuit breaker was open.
    breaker_refusals: int = 0
    #: Circuit-breaker CLOSED/HALF_OPEN → OPEN transitions.
    breaker_opens: int = 0
    #: Failed resubmission attempts across all agents.
    resubmit_failures: int = 0
    #: GIVEUP escalations the agents sent.
    giveups_sent: int = 0
    #: Globals the coordinators aborted on a GIVEUP hint.
    giveup_aborts: int = 0
    sim_time: float = 0.0
    latencies: List[float] = field(default_factory=list)

    @property
    def abort_rate(self) -> float:
        total = self.global_committed + self.global_aborted
        return self.global_aborted / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def throughput(self) -> float:
        return self.global_committed / self.sim_time if self.sim_time else 0.0

    def latency_percentile(self, fraction: float) -> float:
        return percentile(self.latencies, fraction)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``; ``fraction`` in [0, 1].

    The empirical quantile benchmark reports want (p50/p99 of observed
    commit latencies): always an actually-observed value, no
    interpolation, 0.0 for an empty sample.
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def collect_metrics(
    system: MultidatabaseSystem, latencies: Optional[List[float]] = None
) -> SystemMetrics:
    """Aggregate all component counters of ``system``."""
    metrics = SystemMetrics(method=system.config.method)
    for coordinator in system.coordinators:
        metrics.global_committed += coordinator.committed
        metrics.global_aborted += coordinator.aborted
        metrics.force_writes += coordinator.decisions_logged
        metrics.force_writes_by_kind = merge_counts(
            metrics.force_writes_by_kind,
            {"decision": coordinator.decisions_logged},
        )
        if coordinator.decision_log is not None:
            metrics.fsyncs += coordinator.decision_log.wal.fsyncs
        for reason, count in coordinator.aborts_by_reason.items():
            key = str(reason)
            metrics.aborts_by_reason[key] = (
                metrics.aborts_by_reason.get(key, 0) + count
            )
        metrics.deadline_aborts += coordinator.deadline_aborts
        metrics.breaker_refusals += coordinator.breaker_refusals
        metrics.giveup_aborts += coordinator.giveup_aborts
        if coordinator.admission is not None:
            metrics.overload_admitted += coordinator.admission.admitted
            metrics.overload_shed += coordinator.admission.shed
    for site in system.config.sites:
        agent = system.agent(site)
        ltm = system.ltm(site)
        certifier = system.certifier(site)
        guard = system.guards[site]
        for reason, count in agent.refusals.items():
            key = str(reason)
            metrics.refusals_by_reason[key] = (
                metrics.refusals_by_reason.get(key, 0) + count
            )
        metrics.resubmissions += agent.resubmissions
        metrics.resubmit_failures += agent.resubmit_failures
        metrics.giveups_sent += agent.giveups_sent
        metrics.alive_checks += agent.alive_checks
        metrics.unilateral_aborts += ltm.unilateral_aborts
        metrics.local_commits += ltm.commits
        metrics.local_aborts += ltm.aborts
        metrics.lock_waits += ltm.locks.waits
        metrics.lock_timeouts += ltm.locks.timeouts
        metrics.prepare_checks += certifier.prepare_checks
        metrics.commit_delays += certifier.commit_delays
        metrics.cert_index_depth += certifier.index_depth()
        metrics.cert_gc_compactions += certifier.gc_compactions
        metrics.cert_gc_reclaimed += certifier.gc_reclaimed
        metrics.prepare_batches += agent.prepare_batches
        metrics.done_txns_forgotten += agent.done_forgotten
        metrics.dlu_denials += guard.denials
        metrics.dlu_blocks += guard.blocks
        metrics.force_writes += agent.log.force_writes
        metrics.force_writes_by_kind = merge_counts(
            metrics.force_writes_by_kind, agent.log.force_writes_by_kind
        )
        metrics.agent_crashes += agent.crashes
        metrics.agent_restarts += agent.restarts
        wal = getattr(agent.log, "wal", None)
        if wal is not None:
            metrics.fsyncs += wal.fsyncs
    network = system.network
    metrics.messages = network.messages_sent
    metrics.trace_dropped = network.trace_dropped
    metrics.dead_letters = len(network.dead_letters)
    metrics.dead_letters_dropped = network.dead_letters_dropped
    # Fault-layer counters exist only on a FaultyNetwork.
    metrics.messages_lost = getattr(network, "messages_lost", 0)
    metrics.messages_duplicated = getattr(network, "messages_duplicated", 0)
    metrics.messages_spiked = getattr(network, "messages_spiked", 0)
    metrics.partition_drops = getattr(network, "partition_drops", 0)
    session = getattr(system, "session", None)
    if session is not None:
        metrics.retransmits = session.retransmits
        metrics.dups_dropped = session.dups_dropped
        metrics.acks_sent = session.acks_sent
        metrics.session_resets = session.session_resets
        metrics.dead_letters += len(session.dead_letters)
        metrics.dead_letters_dropped += session.dead_letters_dropped
    breakers = getattr(system, "breakers", None)
    if breakers is not None:
        metrics.breaker_opens = breakers.opens
    for coordinator in system.coordinators:
        metrics.quarantine_refusals += coordinator.quarantine_refusals
    metrics.sim_time = system.kernel.now
    if latencies is not None:
        metrics.latencies = list(latencies)
    return metrics


@dataclass
class CorrectnessAudit:
    """The full correctness battery over one recorded history."""

    projection: CommittedProjection
    view_serializability: ViewSerializabilityResult
    distortions: DistortionReport
    rigor_violations: int
    sg_cycle: Optional[list]

    def violations(self) -> List[Violation]:
        """The paper's guarantee, as the clauses ``C(H)`` breaks.

        ``C(H)`` must be view serializable, over a rigorous substrate,
        with no global view distortion.  The distortion clause matters
        for decomposition changes: the replay-based checker compares
        recorded reads-from against serial arrangements of the
        *recorded* blocks, but a block whose incarnations decomposed
        differently can be reads-from-consistent with a serial order
        that no DDF-obeying execution could produce.  The paper treats
        any decomposition change as non-serial, so the audit does too.

        When view serializability is undecided (too many transactions
        in a cyclic SG for the exact search), Sec. 5's sufficient
        condition stands in: an acyclic commit-order graph.  A cyclic
        one is reported as ``audit.cg-cycle``.
        """
        found: List[Violation] = []
        view = self.view_serializability
        if view.serializable is False:
            found.append(
                Violation(
                    kind="audit.viewser",
                    detail=f"C(H) not view serializable: {view.reason}",
                )
            )
        if self.rigor_violations:
            found.append(
                Violation(
                    kind="audit.rigor",
                    detail=f"{self.rigor_violations} rigor violations in local histories",
                    context={"count": self.rigor_violations},
                )
            )
        if self.distortions.has_global_distortion:
            found.append(
                Violation(
                    kind="audit.distortion",
                    detail="global view distortion detected",
                )
            )
        cycle = self.distortions.commit_graph_cycle
        if view.serializable is None and cycle is not None:
            found.append(
                Violation(
                    kind="audit.cg-cycle",
                    detail=(
                        f"view serializability undecided ({view.reason}) "
                        "and CG(C(H)) is cyclic: "
                        + " -> ".join(txn.label for txn in cycle)
                    ),
                    txns=tuple(str(txn) for txn in cycle[:-1]),
                )
            )
        return found

    @property
    def ok(self) -> bool:
        """View serializable, or undecided with an acyclic CG (and in
        both cases rigorous and free of global view distortion)."""
        return not self.violations()

    def summary(self) -> str:
        vs = self.view_serializability
        lines = [
            f"C(H) transactions: {len(self.projection.txns)}",
            f"view serializable: {vs.serializable} ({vs.reason})",
            f"rigor violations: {self.rigor_violations}",
            f"global view distortion: {self.distortions.has_global_distortion}",
            f"CG cycle: {self.distortions.commit_graph_cycle}",
            f"SG cycle: {self.sg_cycle}",
        ]
        return "\n".join(lines)


def audit(system: MultidatabaseSystem, max_txns: int = 9) -> CorrectnessAudit:
    """Run every checker over ``system``'s recorded history.

    ``C(H)`` and its ``SG`` are built once and shared by the checkers.
    """
    projection = committed_projection(system.history)
    sg = serialization_graph(projection.data_ops())
    view = check_view_serializable(projection, max_txns=max_txns, sg=sg)
    distortions = find_distortions(projection)
    violations = check_rigorous(system.history.ops)
    return CorrectnessAudit(
        projection=projection,
        view_serializability=view,
        distortions=distortions,
        rigor_violations=len(violations),
        sg_cycle=find_cycle(sg),
    )
