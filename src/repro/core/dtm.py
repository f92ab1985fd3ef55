"""The multidatabase system façade (system S12; the paper's Fig. 1).

``MultidatabaseSystem.build`` wires one complete HMDBS:

* per site: guard, LTM, certifier and 2PC Agent, from
  :func:`repro.core.assembly.build_site`;
* a set of coordinators, each with a (possibly drifting) site clock,
  from :func:`repro.core.assembly.build_coordinator`;
* the :class:`~repro.net.network.Network` and the shared
  :class:`~repro.history.model.History` recorder.

Every role boots at the end of the build (the simulator's routes exist
from the start); over reopened durable logs that is a recovery.

The ``method`` string selects the transaction-management method:

======================  ====================================================
``2cm``                 the paper's full 2PC-Agent Certifier method
``2cm-noext``           without the prepare-certification extension (E5)
``2cm-nocommitcert``    without commit certification (shows H2/H3 anomalies)
``2cm-prepare-order``   commit order = prepared order, the rejected
                        alternative of Sec. 5.2/5.3 (fails on H3)
``2cm-conflict-aware``  UNSOUND predicate-style basic certification
                        (refuse only on direct access-set conflicts);
                        blind to indirect conflicts via locals (E17)
``naive``               resubmission without any certification (S18)
``ticket``              predefined total order: SN drawn at BEGIN from a
                        central counter (S19, Elmagarmid/Du-style)
``cgm``                 the Commit Graph Method baseline (S17): global
                        table-granularity S2PL + commit-graph admission
======================  ====================================================

Every method but ``2cm``, ``ticket`` and ``cgm`` is an entry of
:data:`repro.ablations.ABLATIONS`, applied to the built system; ``cgm``
runs on the ``naive`` entry's certifiers.

``ticket`` (S19) is Sec. 5.2's rejected alternative: "pick transaction
identifiers from a totally ordered set used by each Certifier" —
*"it would require all global transactions to be serialized in the
same order even if they could not have caused any problems"*.  The SN
is drawn at BEGIN from a central counter, so SN order is submission
order, fixed before anyone knows the real serialization order; the
paper's certifier then refuses a PREPARE behind a younger committed
ticket (aborted in vain, E7) and makes commits wait for older tickets.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, RefusalReason, TransactionAborted
from repro.common.ids import SubtxnId, TxnId, local_txn
from repro.core.agent import AgentConfig, TwoPCAgent
from repro.core.assembly import build_coordinator, build_site, build_sn_source
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.coordinator import (
    Coordinator,
    CoordinatorTimeouts,
    GlobalTransactionSpec,
    Scheduler,
)

from repro.history.model import History
from repro.kernel.events import Event, EventKernel
from repro.kernel.process import Process, Sleep
from repro.ldbs.commands import Command
from repro.ldbs.dlu import BoundDataGuard, DLUPolicy
from repro.ldbs.ltm import LTMConfig, LocalTransactionManager
from repro.net.failure_detector import FailureDetector, FailureDetectorConfig
from repro.net.faults import FaultPlan, FaultyNetwork
from repro.net.network import LatencyModel, Network
from repro.net.reliable import ReliableConfig, SessionLayer
from repro.overload.admission import AdmissionController
from repro.overload.breaker import BreakerRegistry
from repro.overload.config import OverloadConfig

if TYPE_CHECKING:
    from repro.durability.config import DurabilityConfig

METHODS = (
    "2cm",
    "2cm-noext",
    "2cm-nocommitcert",
    "2cm-prepare-order",
    "2cm-conflict-aware",
    "naive",
    "ticket",
    "cgm",
)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one multidatabase system."""

    sites: Tuple[str, ...] = ("a", "b")
    n_coordinators: int = 1
    method: str = "2cm"
    seed: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)
    ltm: LTMConfig = field(default_factory=LTMConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    #: Heterogeneity (the paper's D-autonomy): per-site overrides of the
    #: LDBS characteristics — the HERMES prototype federated an INGRES
    #: and a Sybase SQL Server, which did not behave alike.  Sites not
    #: listed use the defaults above.
    ltm_overrides: Dict[str, LTMConfig] = field(default_factory=dict)
    agent_overrides: Dict[str, AgentConfig] = field(default_factory=dict)
    dlu_policy: DLUPolicy = DLUPolicy.ABORT
    dlu_wait_timeout: Optional[float] = 200.0
    #: Per-coordinator-site clock offsets (drift, experiment E9).
    clock_offsets: Dict[str, float] = field(default_factory=dict)
    clock_rates: Dict[str, float] = field(default_factory=dict)
    #: CGM baseline: lock-wait / commit-graph-admission timeout.
    cgm_timeout: float = 400.0
    #: CGM baseline: the globally-updatable table set.  When non-empty,
    #: CGM's data-partition rules are enforced (globals update only
    #: these tables and may not read others once they update; locals
    #: may not update these tables).  Empty = partitioning off.
    cgm_gu_tables: Tuple[str, ...] = ()
    #: Certification engine at every site: ``naive`` (the Appendix
    #: linear scan, the differential oracle and golden default) or
    #: ``indexed`` (endpoint/SN heaps with epoch GC, O(log n)/check).
    #: Both produce identical decisions; ``indexed`` is also
    #: event-for-event identical because certification is synchronous.
    certifier_engine: str = "naive"
    #: Opt into real on-disk WALs for the Agent logs and the
    #: coordinators' decision logs (None = in-memory simulation, the
    #: deterministic-golden default).
    durability: Optional["DurabilityConfig"] = None
    #: Opt-in liveness bounds for crash-injection runs (all None =
    #: wait forever, the failure-free default).
    coordinator_timeouts: Optional[CoordinatorTimeouts] = None
    #: Opt into an unreliable wire (loss/duplication/spikes/partitions).
    #: ``None`` keeps the paper's perfect transport — and the goldens.
    faults: Optional[FaultPlan] = None
    #: Opt into the reliable-channel session layer between the protocol
    #: endpoints and the wire (sequence numbers, acks, retransmission).
    reliable: Optional[ReliableConfig] = None
    #: Opt into the heartbeat failure detector; suspected sites are
    #: quarantined at every coordinator (new globals refused, not hung).
    failure_detector: Optional[FailureDetectorConfig] = None
    #: Opt into the overload-survival layer: admission control with load
    #: shedding, deadline propagation, adaptive resubmission backoff
    #: with GIVEUP escalation, and per-site circuit breakers.  ``None``
    #: keeps the paper's unprotected behaviour — and the goldens.
    overload: Optional[OverloadConfig] = None
    #: Test-harness hook: build the transport yourself.  Called as
    #: ``factory(kernel, config)`` and must return a
    #: :class:`~repro.net.network.Network` (or subclass); overrides
    #: ``faults``.  The schedule explorer uses this to route every
    #: fault decision through the kernel's choice points.  ``None`` —
    #: the default — keeps the stock wiring and the goldens.
    network_factory: Optional[Callable[[EventKernel, "SystemConfig"], "Network"]] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; pick one of {METHODS}"
            )
        if len(set(self.sites)) != len(self.sites):
            raise ConfigError("duplicate site names")
        if self.n_coordinators < 1:
            raise ConfigError("need at least one coordinator")
        if self.certifier_engine not in ("naive", "indexed"):
            raise ConfigError(
                f"unknown certifier engine {self.certifier_engine!r}; "
                "pick 'naive' or 'indexed'"
            )
        for overrides in (self.ltm_overrides, self.agent_overrides):
            unknown = set(overrides) - set(self.sites)
            if unknown:
                raise ConfigError(
                    f"overrides for unknown sites: {sorted(unknown)}"
                )


@dataclass
class LocalOutcome:
    """What happened to one local transaction."""

    txn: TxnId
    committed: bool
    reason: Optional[RefusalReason] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    results: List[object] = field(default_factory=list)


class MultidatabaseSystem:
    """One fully wired HMDBS plus submission and inspection helpers."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.kernel = EventKernel()
        self.history = History()
        if config.network_factory is not None:
            self.network = config.network_factory(self.kernel, config)
        elif config.faults is not None:
            self.network: Network = FaultyNetwork(
                self.kernel,
                latency=config.latency,
                seed=config.seed,
                plan=config.faults,
            )
        else:
            self.network = Network(
                self.kernel, latency=config.latency, seed=config.seed
            )
        #: The endpoint-facing transport: the session layer when the
        #: reliable channel is enabled, the raw network otherwise.
        self.session: Optional[SessionLayer] = None
        if config.reliable is not None:
            self.session = SessionLayer(
                self.kernel, self.network, config.reliable
            )
        self.transport = self.session if self.session is not None else self.network
        #: Shared per-site circuit breakers (overload layer); every
        #: coordinator and feedback source uses this one registry.
        self.breakers: Optional[BreakerRegistry] = None
        if config.overload is not None and config.overload.breaker is not None:
            self.breakers = BreakerRegistry(config.overload.breaker)
            if self.session is not None:

                def _dead_letter_feedback(message, _why: str) -> None:
                    # A channel whose retry budget died towards a site's
                    # agent is breaker food; coordinator-bound replies
                    # say nothing about a *site* being sick.
                    if message.dst.startswith("agent:"):
                        self.breakers.record_failure(
                            message.dst.split(":", 1)[-1], self.kernel.now
                        )

                self.session.on_dead_letter = _dead_letter_feedback
        self.ltms: Dict[str, LocalTransactionManager] = {}
        self.guards: Dict[str, BoundDataGuard] = {}
        self.agents: Dict[str, TwoPCAgent] = {}
        static_denied = (
            frozenset(config.cgm_gu_tables)
            if config.method == "cgm"
            else frozenset()
        )
        for site in config.sites:
            agent = build_site(
                site,
                self.kernel,
                self.transport,
                self.history,
                ltm_config=config.ltm_overrides.get(site, config.ltm),
                config=config.agent_overrides.get(site, config.agent),
                certifier_config=CertifierConfig(engine=config.certifier_engine),
                dlu_policy=config.dlu_policy,
                dlu_wait_timeout=config.dlu_wait_timeout,
                static_denied=static_denied,
                durability=config.durability,
                overload=config.overload,
                overload_seed=config.seed ^ zlib.crc32(site.encode()),
            )
            if self.breakers is not None:
                agent.on_resubmit_failure_observers.append(
                    lambda _txn, s=site: self.breakers.record_failure(
                        s, self.kernel.now
                    )
                )
            self.guards[site] = agent.dlu_guard
            self.ltms[site] = agent.ltm
            self.agents[site] = agent

        # The paper's site clocks; ``ticket`` (S19) is the centralized
        # counter it argues against.
        ticket = config.method == "ticket"
        self.sn_generator = build_sn_source(self.kernel, ticket=ticket)

        scheduler: Optional[Scheduler] = None
        if config.method == "cgm":
            from repro.baselines.cgm import CGMPartition, CGMScheduler

            partition = (
                CGMPartition.of(*config.cgm_gu_tables)
                if config.cgm_gu_tables
                else None
            )
            scheduler = CGMScheduler(
                self.kernel, timeout=config.cgm_timeout, partition=partition
            )
            for agent in self.agents.values():
                agent.on_ready_observers.append(scheduler.note_prepared)
                agent.on_finalized_observers.append(scheduler.note_finalized)
        self.scheduler = scheduler

        self.coordinators: List[Coordinator] = []
        for i in range(config.n_coordinators):
            coord_site = f"c{i + 1}"
            admission = None
            if config.overload is not None:
                admission = AdmissionController(
                    config.overload,
                    seed=config.seed ^ zlib.crc32(coord_site.encode()) ^ 0xAD51,
                )
            self.coordinators.append(
                build_coordinator(
                    coord_site,
                    self.kernel,
                    self.transport,
                    self.history,
                    self.sn_generator,
                    wall=config.clock_offsets.get(coord_site, 0.0),
                    rate=config.clock_rates.get(coord_site, 0.0),
                    durability=config.durability,
                    sn_at_begin=ticket,
                    scheduler=scheduler,
                    timeouts=config.coordinator_timeouts,
                    overload=config.overload,
                    admission=admission,
                    breakers=self.breakers,
                )
            )
        # GC watermark plumbing: a sealed global END record means every
        # ack is in, so agents may forget the transaction (only acted on
        # when AgentConfig.gc_done_txns is set).
        def _note_global_end(txn: TxnId) -> None:
            for agent in self.agents.values():
                agent.note_global_end(txn)

        for coordinator in self.coordinators:
            coordinator.on_end_observers.append(_note_global_end)

        self.failure_detector: Optional[FailureDetector] = None
        if config.failure_detector is not None:

            def _suspect(address: str) -> None:
                site = address.split(":", 1)[-1]
                for coordinator in self.coordinators:
                    coordinator.quarantine(site)

            def _restore(address: str) -> None:
                site = address.split(":", 1)[-1]
                for coordinator in self.coordinators:
                    coordinator.unquarantine(site)

            self.failure_detector = FailureDetector(
                self.kernel,
                self.transport,
                "fd:main",
                config.failure_detector,
                on_suspect=_suspect,
                on_restore=_restore,
            )
            for site in config.sites:
                self.failure_detector.watch(f"agent:{site}")
            self.failure_detector.start()

        self._next_coordinator = 0
        self._local_counter = 0
        # Imported here: repro.ablations imports repro.core.agent, whose
        # package imports this module.
        from repro.ablations import ABLATIONS

        ablation = ABLATIONS.get("naive" if config.method == "cgm" else config.method)
        if ablation is not None:
            ablation.apply(self)

        # Boot every role (core.assembly): the simulator's routes exist
        # already.  With durability this replays the reopened logs.
        for agent in self.agents.values():
            agent.boot()
        for coordinator in self.coordinators:
            coordinator.resume_in_doubt()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, method: str = "2cm", sites: Sequence[str] = ("a", "b"), **kwargs):
        """Convenience constructor: ``build("2cm", sites=("a", "b"), ...)``."""
        return cls(SystemConfig(sites=tuple(sites), method=method, **kwargs))

    def load(self, site: str, table: str, rows: Dict) -> None:
        """Install initial rows at one site."""
        self.ltm(site).store.load(table, rows)

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------

    def ltm(self, site: str) -> LocalTransactionManager:
        if site not in self.ltms:
            raise ConfigError(f"unknown site {site!r}")
        return self.ltms[site]

    def agent(self, site: str) -> TwoPCAgent:
        return self.agents[site]

    def certifier(self, site: str) -> Certifier:
        # Through the agent: a recovered agent rebuilds its certifier.
        return self.agents[site].certifier

    def coordinator(self, index: int = 0) -> Coordinator:
        return self.coordinators[index]

    # ------------------------------------------------------------------
    # Crash / recovery (durability subsystem)
    # ------------------------------------------------------------------

    def crash_agent(self, site: str) -> None:
        """Kill one site's 2PC Agent (see :meth:`TwoPCAgent.crash`)."""
        self.agents[site].crash()

    def recover_agent(self, site: str) -> int:
        """Restart a crashed agent.

        With durability configured, the Agent log is re-opened from
        disk — the crash-recovery path the subsystem exists for; with
        the in-memory log, the surviving object is reused (durable by
        fiat, the paper's simulation stance).
        """
        agent = self.agents[site]
        if not agent.crashed:
            return 0  # a racing injector already healed it; no-op
        log = None
        if self.config.durability is not None:
            from repro.durability.agent_log import DurableAgentLog

            log = DurableAgentLog.open_site(site, self.config.durability)
        return agent.recover(log)

    def close(self) -> None:
        """Close every durable log (drains group-commit windows)."""
        if self.failure_detector is not None:
            self.failure_detector.stop()
        for agent in self.agents.values():
            agent.log.close()
        for coordinator in self.coordinators:
            if coordinator.decision_log is not None:
                coordinator.decision_log.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, spec: GlobalTransactionSpec, coordinator: Optional[int] = None
    ) -> Event:
        """Submit a global transaction: round-robin over the
        coordinators, or straight to the ``coordinator`` index given."""
        for site, _command in spec.steps:
            if site not in self.ltms:
                raise ConfigError(f"{spec.txn} references unknown site {site!r}")
        if coordinator is not None:
            return self.coordinators[coordinator].submit(spec)
        coordinator = self._next_coordinator
        self._next_coordinator = (
            self._next_coordinator + 1
        ) % len(self.coordinators)
        return self.coordinators[coordinator].submit(spec)

    def submit_program(
        self,
        txn: TxnId,
        program,
        coordinator: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Event:
        """Submit an interactive application program (see
        :meth:`repro.core.coordinator.Coordinator.submit_program`)."""
        if coordinator is None:
            coordinator = self._next_coordinator
            self._next_coordinator = (
                self._next_coordinator + 1
            ) % len(self.coordinators)
        return self.coordinators[coordinator].submit_program(
            txn, program, think_time=think_time
        )

    def submit_local(
        self,
        site: str,
        commands: Sequence[Command],
        number: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Event:
        """Run a local transaction directly against one LTM.

        Local transactions are invisible to the DTM (the paper's model);
        they exist so experiments can produce indirect conflicts and
        local view distortions.
        """
        if number is None:
            self._local_counter += 1
            number = 9000 + self._local_counter
        txn = local_txn(number, site)
        ltm = self.ltm(site)

        def body():
            outcome = LocalOutcome(
                txn=txn, committed=False, started_at=self.kernel.now
            )
            handle = ltm.begin(SubtxnId(txn, site, 0))
            try:
                for command in commands:
                    result = yield handle.execute(command)
                    outcome.results.append(result)
                    if think_time > 0:
                        yield Sleep(think_time)
                yield handle.commit()
            except TransactionAborted as exc:
                outcome.reason = exc.reason
                outcome.finished_at = self.kernel.now
                return outcome
            outcome.committed = True
            outcome.finished_at = self.kernel.now
            return outcome

        return Process(self.kernel, body(), name=f"local:{txn}").completion

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        advance: bool = True,
    ):
        """Drain the kernel (optionally bounded)."""
        return self.kernel.run(until=until, max_events=max_events, advance=advance)

    @property
    def now(self) -> float:
        return self.kernel.now
