"""The Coordinator (system S10): global transaction execution + 2PC.

The Coordinator decomposes a global transaction into global
subtransactions (at most one per participating site), submits the DML
commands one by one, and — when the application issues the global
Commit — draws the serial number ``SN(k)`` and runs the standard 2PC
protocol against the 2PC Agents:

    PREPARE(sn) → READY/REFUSE → COMMIT/ROLLBACK → acks.

The global commit decision ``C_k`` is recorded (durably, in the model:
into the history) *after* every participant voted READY and *before*
any COMMIT message is sent, matching the paper's ordering invariant
(1): ``P^i_k < C_k < C^s_k``.

Two extension points serve the baselines:

* ``sn_at_begin`` draws the serial number when the transaction starts
  instead of at commit submission — this turns SN order into ticket
  (submission) order, the restrictive predefined-order scheme of
  Elmagarmid & Du the paper argues against (baseline S19);
* an optional ``scheduler`` is consulted before every command and
  before the prepare phase — the CGM baseline (S17) plugs its global
  lock manager and commit-graph admission in here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import (
    RefusalReason,
    SimulationError,
    TransactionAborted,
    reason_of,
)

if TYPE_CHECKING:  # avoid a core ↔ durability import knot at runtime
    from repro.durability.decision_log import DurableDecisionLog
from repro.common.ids import SerialNumber, TxnId
from repro.core.serial import SNGenerator
from repro.history.model import History
from repro.kernel.events import Event, EventKernel
from repro.kernel.process import Process, Sleep
from repro.ldbs.commands import Command
from repro.net.messages import Message, MsgType
from repro.net.network import Network
from repro.overload.admission import AdmissionController
from repro.overload.breaker import BreakerRegistry
from repro.overload.config import OverloadConfig

#: Abort reasons that indicate the *site* failed the transaction (and
#: should charge its circuit breaker), as opposed to self-inflicted
#: coordinator decisions or ordinary certification contention.
_BREAKER_FAILURE_REASONS = frozenset(
    {
        RefusalReason.SITE_UNREACHABLE,
        RefusalReason.NOT_ALIVE,
        RefusalReason.UNILATERAL,
        RefusalReason.RESUBMIT_BUDGET,
    }
)


@dataclass(frozen=True)
class GlobalTransactionSpec:
    """One global transaction: an ordered list of (site, command) steps.

    The step order is the submission order the application would
    produce; steps at different sites may be given in any interleaving
    (the paper's examples rely on specific cross-site orders).
    ``think_time`` models the application computation between steps,
    performed at the Coordinating Site.
    """

    txn: TxnId
    steps: Tuple[Tuple[str, Command], ...]
    think_time: float = 0.0
    #: Absolute simulated time after which the outcome no longer matters
    #: to the submitter.  ``None`` defers to the overload layer's
    #: ``default_deadline`` (or no deadline at all when that is off).
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.txn.is_local:
            raise SimulationError(f"{self.txn} is a local transaction id")
        if not self.steps:
            raise SimulationError(f"{self.txn} has no steps")

    @property
    def sites(self) -> List[str]:
        """Participating sites in first-use order."""
        seen: List[str] = []
        for site, _command in self.steps:
            if site not in seen:
                seen.append(site)
        return seen

    @staticmethod
    def from_site_commands(
        txn: TxnId,
        per_site: Dict[str, Sequence[Command]],
        think_time: float = 0.0,
    ) -> "GlobalTransactionSpec":
        """Build a spec that runs each site's commands site by site."""
        steps: List[Tuple[str, Command]] = []
        for site in sorted(per_site):
            for command in per_site[site]:
                steps.append((site, command))
        return GlobalTransactionSpec(
            txn=txn, steps=tuple(steps), think_time=think_time
        )


@dataclass
class GlobalOutcome:
    """What happened to one global transaction."""

    txn: TxnId
    committed: bool
    sn: Optional[SerialNumber] = None
    reason: Optional[RefusalReason] = None
    refusing_sites: List[str] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    results: List[object] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


def _static_program(steps):
    """Adapt a static step list to the interactive-program protocol."""
    for site, command in steps:
        yield (site, command)


class AbortRequested(Exception):
    """Raised by an application program to abort its global transaction."""

    def __init__(self, note: str = "") -> None:
        self.note = note
        super().__init__(note)


class Scheduler:
    """Admission interface for centralized baselines (CGM).

    The decentralized 2CM never uses it; every method returns an
    immediately successful event by default.
    """

    def before_command(
        self, kernel: EventKernel, txn: TxnId, site: str, command: Command
    ) -> Event:
        event = Event(kernel)
        event.succeed(None)
        return event

    def before_prepare(
        self, kernel: EventKernel, txn: TxnId, sites: Sequence[str]
    ) -> Event:
        event = Event(kernel)
        event.succeed(None)
        return event

    def on_end(self, txn: TxnId, committed: bool) -> None:
        """Called once per transaction after the 2PC outcome is final."""


@dataclass(frozen=True)
class CoordinatorTimeouts:
    """Opt-in liveness knobs for runs where agents can crash.

    All ``None`` by default: the failure-free goldens depend on the
    coordinator waiting forever (every expected message arrives in the
    paper's Network model).  Crash injection breaks that assumption —
    a dead agent's in-flight handler never answers — so these put
    bounds on every wait:

    * ``result_timeout`` — a COMMAND whose result never comes is
      treated as a failed command (global abort);
    * ``vote_timeout`` — a PREPARE whose vote never comes counts as a
      REFUSE with :attr:`RefusalReason.SITE_UNREACHABLE`; the silent
      site *is* rolled back (unlike a refusing one, it may recover into
      the prepared state and must be told);
    * ``ack_timeout`` — an unacknowledged COMMIT/ROLLBACK is re-sent
      (agents treat duplicates idempotently), at most ``max_resends``
      times before the run is declared broken.
    """

    result_timeout: Optional[float] = None
    vote_timeout: Optional[float] = None
    ack_timeout: Optional[float] = None
    max_resends: int = 25


#: Coordinator-side protocol points a kill probe can target.  They
#: bracket the DECISION record exactly the way the agent's CRASH_POINTS
#: bracket the prepare record:
#:
#: * ``sn_drawn`` — the commit-path SN exists, nothing is logged yet
#:   (a crash here loses the transaction; agents unilaterally abort);
#: * ``decision_logged`` — the DECISION is forced to stable storage and
#:   the global commit is journaled, but **no COMMIT has been sent**
#:   (the in-doubt window ``resume_in_doubt`` must re-drive);
#: * ``mid_broadcast`` — some participants got their COMMIT, some did
#:   not (fires only when there are >= 2 participants, after the first
#:   half of the broadcast).
COORDINATOR_KILL_POINTS = ("sn_drawn", "decision_logged", "mid_broadcast")


class Coordinator:
    """One Coordinating Site's transaction manager half."""

    def __init__(
        self,
        name: str,
        site: str,
        kernel: EventKernel,
        network: Network,
        history: History,
        sn_generator: SNGenerator,
        sn_at_begin: bool = False,
        scheduler: Optional[Scheduler] = None,
        timeouts: Optional[CoordinatorTimeouts] = None,
        decision_log: Optional["DurableDecisionLog"] = None,
        takeover: bool = False,
        overload: Optional[OverloadConfig] = None,
        admission: Optional[AdmissionController] = None,
        breakers: Optional[BreakerRegistry] = None,
    ) -> None:
        self.name = name
        self.site = site
        self.address = f"coord:{name}"
        self.kernel = kernel
        self.network = network
        self.history = history
        self.sn_generator = sn_generator
        self.sn_at_begin = sn_at_begin
        self.scheduler = scheduler
        self.timeouts = timeouts or CoordinatorTimeouts()
        #: Optional durable decision log: the DECISION record is forced
        #: before any COMMIT leaves, so a successor coordinator can
        #: finish delivery of every in-doubt outcome (resume_in_doubt).
        self.decision_log = decision_log
        self._pending: Dict[Tuple[TxnId, str, str], Event] = {}
        #: Sites the failure detector currently suspects.  New global
        #: transactions touching them are refused up front (graceful
        #: degradation) instead of being left to hang on a dead site;
        #: in-flight ones still run — the timeouts own those.
        self.quarantined: Set[str] = set()
        self.quarantine_refusals = 0
        self.quarantine_events = 0
        #: Overload layer (all ``None`` when the layer is off, which
        #: keeps every new code path dormant).
        self.overload = overload
        self.admission = admission
        self.breakers = breakers
        #: Transactions currently being driven by this coordinator;
        #: GIVEUP escalations for anything else are stale and ignored.
        self._active: Set[TxnId] = set()
        #: Sites that escalated GIVEUP per active transaction.
        self._giveups: Dict[TxnId, Set[str]] = {}
        self.overload_refusals = 0
        self.deadline_aborts = 0
        self.breaker_refusals = 0
        self.giveup_aborts = 0
        self.committed = 0
        self.aborted = 0
        self.aborts_by_reason: Dict[RefusalReason, int] = {}
        self.vote_timeouts = 0
        self.result_timeouts = 0
        self.resends = 0
        self.inquiries = 0
        self.inquiries_presumed_abort = 0
        #: Durable decision records written (the paper: the Coordinator
        #: "recorded, in a stable storage, the decision").  Counted so
        #: the force-write I/O accounting covers both ends of 2PC.
        self.decisions_logged = 0
        #: Fired when the global END record is sealed (every ack is in):
        #: the GC watermark — no site can still need state for the
        #: transaction, so agents may forget it.
        self.on_end_observers: List[Callable[[TxnId], None]] = []
        #: Crash-injection hook mirroring ``TwoPCAgent.crash_probe``:
        #: called with ``(point, txn)`` at each COORDINATOR_KILL_POINTS
        #: hit.  The runtime installs a probe that SIGKILLs the process
        #: there; ``None`` (the default) keeps every golden untouched.
        self.kill_probe: Optional[Callable[[str, TxnId], None]] = None
        network.register(self.address, self._on_message, replace=takeover)

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------

    _KIND_OF = {
        MsgType.COMMAND_RESULT: "result",
        MsgType.READY: "vote",
        MsgType.REFUSE: "vote",
        MsgType.COMMIT_ACK: "commit-ack",
        MsgType.ROLLBACK_ACK: "rollback-ack",
    }

    def _on_message(self, msg: Message) -> None:
        if msg.type is MsgType.GIVEUP:
            # Advisory escalation: an agent's resubmission budget ran
            # out.  Honoured only while the global decision is still
            # open — checked at the decision gate in _run_admitted.
            if msg.txn in self._active:
                self._giveups.setdefault(msg.txn, set()).add(
                    msg.src.split(":", 1)[-1]
                )
            return
        if msg.type is MsgType.INQUIRE:
            self._on_inquire(msg)
            return
        kind = self._KIND_OF.get(msg.type)
        if kind is None:
            raise SimulationError(f"coordinator {self.name} got unexpected {msg}")
        self._expect(msg.txn, msg.src, kind).succeed(msg)

    def _on_inquire(self, msg: Message) -> None:
        """Answer a participant's overdue-decision inquiry.

        Three cases, in order of precedence:

        * The transaction is still actively being driven — stay silent;
          the run (or resume) loop delivers the decision itself, and a
          concurrent reply here could race it.
        * A decision is logged — resend it to the inquiring site.  The
          resend is fire-and-forget: if a resume loop is awaiting the
          ack it consumes it; an extra ack after END lands on a fresh
          pending event and is harmless (both decision handlers on the
          agent are idempotent).
        * Nothing is known — reply ROLLBACK (*presumed abort*).  The
          DECISION record is forced before the first COMMIT message
          leaves this coordinator, so a transaction absent from both
          the active set and the decision log can never have committed
          at any site; aborting the orphaned prepared subtransaction is
          the only safe answer, and it releases the locks the orphan
          was holding against every later transaction.
        """
        self.inquiries += 1
        site = msg.src.split(":", 1)[-1]
        if msg.txn in self._active:
            return
        decision = (
            self.decision_log.decision(msg.txn)
            if self.decision_log is not None
            else None
        )
        if decision is not None:
            self._send(
                MsgType.COMMIT if decision.committed else MsgType.ROLLBACK,
                msg.txn,
                site,
            )
            return
        self.inquiries_presumed_abort += 1
        self._send(MsgType.ROLLBACK, msg.txn, site)

    def _expect(self, txn: TxnId, agent_address: str, kind: str) -> Event:
        key = (txn, agent_address, kind)
        event = self._pending.get(key)
        if event is None or event.done:
            event = Event(self.kernel, name=f"{kind}:{txn}:{agent_address}")
            self._pending[key] = event
        return event

    def _send(self, type_: MsgType, txn: TxnId, site: str, **kwargs) -> None:
        self.network.send(
            Message(
                type=type_,
                src=self.address,
                dst=f"agent:{site}",
                txn=txn,
                **kwargs,
            )
        )

    def _race(self, wait: Event, timeout: Optional[float]) -> Event:
        """``wait``, bounded: yields the message, or ``None`` on timeout.

        With ``timeout=None`` this is ``wait`` itself — the zero-cost
        default keeps the failure-free goldens byte-identical.
        """
        if timeout is None:
            return wait
        race = Event(self.kernel, name=f"race:{wait.name}")

        def on_msg(event: Event) -> None:
            if not race.done:
                race.succeed(event._value)  # noqa: SLF001 - relaying

        def on_timeout() -> None:
            if not race.done:
                race.succeed(None)

        wait.subscribe(on_msg)
        self.kernel.schedule(timeout, on_timeout)
        return race

    def _await_ack(
        self, txn: TxnId, site: str, kind: str, resend: MsgType, wait: Event
    ):
        """Wait for one decision ack, re-sending on ack timeout.

        ``wait`` is the event registered *before* the decision message
        was sent (so an early ack is never lost).  A crashed agent
        drops the in-flight COMMIT/ROLLBACK; once it recovers, the
        resend reaches it and the (idempotent) handler acknowledges.
        Bounded by ``max_resends`` so a truly dead site fails the run
        loudly instead of hanging it.
        """
        timeout = self.timeouts.ack_timeout
        attempts = 0
        while True:
            reply = yield self._race(wait, timeout)
            if reply is not None:
                return
            attempts += 1
            if attempts > self.timeouts.max_resends:
                raise SimulationError(
                    f"coordinator {self.name}: no {kind} from {site} for "
                    f"{txn} after {attempts} attempts"
                )
            self.resends += 1
            wait = self._expect(txn, f"agent:{site}", kind)
            self._send(resend, txn, site)

    def _log_decision(
        self, txn: TxnId, committed: bool, sn, sites: Sequence[str]
    ) -> None:
        self.decisions_logged += 1
        if self.decision_log is not None:
            from repro.durability.decision_log import Decision

            self.decision_log.log_decision(
                Decision(txn=txn, committed=committed, sn=sn, sites=tuple(sites))
            )

    def _log_end(self, txn: TxnId) -> None:
        if self.decision_log is not None:
            self.decision_log.log_end(txn)
        for observer in self.on_end_observers:
            observer(txn)

    # ------------------------------------------------------------------
    # Quarantine (failure-detector integration)
    # ------------------------------------------------------------------

    def quarantine(self, site: str) -> None:
        """Stop sending new subtransactions to a suspected site.

        Wired to the failure detector's ``on_suspect`` callback; the
        suspicion may be wrong (a partition looks like a crash), which
        is why quarantine only *refuses new work* — nothing already
        decided is touched, and :meth:`unquarantine` undoes it fully.
        """
        if site not in self.quarantined:
            self.quarantined.add(site)
            self.quarantine_events += 1

    def unquarantine(self, site: str) -> None:
        """The suspected site was heard from again; accept work for it."""
        self.quarantined.discard(site)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, spec: GlobalTransactionSpec) -> Event:
        """Run ``spec`` to completion; the event yields a GlobalOutcome."""
        process = Process(
            self.kernel, self._run(spec), name=f"coord:{spec.txn}"
        )
        return process.completion

    def submit_program(
        self, txn: TxnId, program, think_time: float = 0.0
    ) -> Event:
        """Run an *interactive* application program as a global txn.

        ``program`` is a generator: it yields ``(site, command)`` steps
        and receives each command's :class:`CommandResult` back — the
        paper's "the Coordinator ... returns the results to the
        application which performs the necessary computation".
        Returning commits; raising :class:`AbortRequested` rolls the
        transaction back.  Because the application computation happens
        at the Coordinating Site *before* the global Commit, it is never
        re-run on resubmission — the agents replay only the decided
        command sequence from their logs.
        """
        spec = GlobalTransactionSpec(
            txn=txn,
            steps=(("<dynamic>", None),),  # placeholder; program drives
            think_time=think_time,
        )
        process = Process(
            self.kernel,
            self._run(spec, program=program),
            name=f"coord:{txn}",
        )
        return process.completion

    def _run(self, spec: GlobalTransactionSpec, program=None):
        outcome = GlobalOutcome(
            txn=spec.txn, committed=False, started_at=self.kernel.now
        )
        if self.admission is not None and not self.admission.try_admit():
            # Shed at the front door: no BEGIN was sent anywhere, so
            # there is nothing to roll back and nothing in the history.
            self.overload_refusals += 1
            outcome.reason = RefusalReason.OVERLOADED
            outcome.finished_at = self.kernel.now
            self.aborted += 1
            self.aborts_by_reason[RefusalReason.OVERLOADED] = (
                self.aborts_by_reason.get(RefusalReason.OVERLOADED, 0) + 1
            )
            return outcome
        deadline = spec.deadline
        if (
            deadline is None
            and self.overload is not None
            and self.overload.default_deadline is not None
        ):
            deadline = self.kernel.now + self.overload.default_deadline
        self._active.add(spec.txn)
        try:
            return (
                yield from self._run_admitted(spec, program, outcome, deadline)
            )
        finally:
            self._active.discard(spec.txn)
            self._giveups.pop(spec.txn, None)
            if self.admission is not None:
                self.admission.release()

    def _run_admitted(
        self,
        spec: GlobalTransactionSpec,
        program,
        outcome: GlobalOutcome,
        deadline: Optional[float],
    ):
        sn: Optional[SerialNumber] = None
        if self.sn_at_begin:
            sn = self.sn_generator.generate(self.site)
        begun: List[str] = []

        # -- active phase: submit the commands, one by one --------------
        if program is None:
            program = _static_program(spec.steps)
        last_result = None
        while True:
            try:
                site, command = program.send(
                    None if last_result is None else last_result
                )
            except StopIteration:
                break
            except AbortRequested as exc:
                yield from self._global_abort(
                    spec, begun, outcome, RefusalReason.REQUESTED, None
                )
                return outcome
            if self.scheduler is not None:
                try:
                    yield self.scheduler.before_command(
                        self.kernel, spec.txn, site, command
                    )
                except TransactionAborted as exc:
                    yield from self._global_abort(
                        spec, begun, outcome, reason_of(exc), site
                    )
                    return outcome
            if site not in begun:
                if site in self.quarantined:
                    # Graceful degradation: refuse up front rather than
                    # hang the transaction on a suspected-dead site.
                    self.quarantine_refusals += 1
                    yield from self._global_abort(
                        spec,
                        begun,
                        outcome,
                        RefusalReason.SITE_QUARANTINED,
                        site,
                    )
                    return outcome
                if self.breakers is not None and not self.breakers.allow(
                    site, self.kernel.now
                ):
                    # The site's breaker is open: its recent error rate
                    # says new work would very likely die there too.
                    self.breaker_refusals += 1
                    yield from self._global_abort(
                        spec,
                        begun,
                        outcome,
                        RefusalReason.SITE_BREAKER_OPEN,
                        site,
                    )
                    return outcome
                self._send(MsgType.BEGIN, spec.txn, site, deadline=deadline)
                begun.append(site)
            wait = self._expect(spec.txn, f"agent:{site}", "result")
            self._send(
                MsgType.COMMAND, spec.txn, site, payload=command, deadline=deadline
            )
            reply = yield self._race(wait, self.timeouts.result_timeout)
            if reply is None:
                # The site went silent mid-command (crash injection):
                # give the transaction up, telling every begun site.
                self.result_timeouts += 1
                yield from self._global_abort(
                    spec,
                    begun,
                    outcome,
                    RefusalReason.SITE_UNREACHABLE,
                    site,
                )
                return outcome
            if isinstance(reply.payload, BaseException):
                yield from self._global_abort(
                    spec, begun, outcome, reason_of(reply.payload), site
                )
                return outcome
            outcome.results.append(reply.payload)
            last_result = reply.payload
            if spec.think_time > 0:
                yield Sleep(spec.think_time)
        if not begun:
            # A program that issued no commands: nothing to decide.
            outcome.committed = True
            outcome.finished_at = self.kernel.now
            self.committed += 1
            return outcome

        # -- the application submits the global Commit ------------------
        if self.scheduler is not None:
            try:
                yield self.scheduler.before_prepare(self.kernel, spec.txn, begun)
            except TransactionAborted as exc:
                yield from self._global_abort(
                    spec, begun, outcome, reason_of(exc), None
                )
                return outcome
        blocked = [site for site in begun if site in self.quarantined]
        if blocked:
            # A participant was quarantined while the transaction was
            # still active: abort now instead of PREPARE-ing into a
            # suspected-dead site and blocking on the vote.
            self.quarantine_refusals += 1
            yield from self._global_abort(
                spec,
                begun,
                outcome,
                RefusalReason.SITE_QUARANTINED,
                blocked[0],
            )
            return outcome
        if deadline is not None and self.kernel.now >= deadline:
            # Vote gate: the submitter stopped caring; aborting is
            # strictly cheaper than PREPARE-ing work nobody wants.
            self.deadline_aborts += 1
            yield from self._global_abort(
                spec, begun, outcome, RefusalReason.DEADLINE_EXPIRED, None
            )
            return outcome
        if sn is None:
            sn = self.sn_generator.generate(self.site)
        outcome.sn = sn
        if self.kill_probe is not None:
            self.kill_probe("sn_drawn", spec.txn)

        # -- 2PC voting phase -------------------------------------------
        votes: List[Tuple[str, Event]] = []
        for site in begun:
            votes.append((site, self._expect(spec.txn, f"agent:{site}", "vote")))
            self._send(MsgType.PREPARE, spec.txn, site, sn=sn, deadline=deadline)
        ready_sites: List[str] = []
        silent_sites: List[str] = []
        for site, wait in votes:
            reply = yield self._race(wait, self.timeouts.vote_timeout)
            if reply is None:
                # No vote: count the silence as a REFUSE — but unlike a
                # refusing site (which already aborted itself), a silent
                # one may recover into the prepared state, so it must be
                # in the rollback set.
                self.vote_timeouts += 1
                silent_sites.append(site)
                outcome.refusing_sites.append(site)
                if outcome.reason is None:
                    outcome.reason = RefusalReason.SITE_UNREACHABLE
            elif reply.type is MsgType.READY:
                ready_sites.append(site)
            else:
                outcome.refusing_sites.append(site)
                if outcome.reason is None:
                    outcome.reason = reply.reason

        if outcome.refusing_sites:
            yield from self._global_abort(
                spec,
                ready_sites + silent_sites,
                outcome,
                outcome.reason,
                None,
                record=True,
            )
            return outcome
        if deadline is not None and self.kernel.now >= deadline:
            # The deadline expired while the votes were in flight: all
            # participants are prepared, none has committed — rolling
            # back is still safe, and committing would be useless.
            self.deadline_aborts += 1
            yield from self._global_abort(
                spec, begun, outcome, RefusalReason.DEADLINE_EXPIRED, None
            )
            return outcome
        giveups = self._giveups.get(spec.txn)
        if giveups:
            # A participant exhausted its resubmission budget while the
            # decision was still open: honour the escalation.  (After
            # this point the commit is logged and GIVEUPs are ignored —
            # the agent keeps resubmitting until COMMIT lands.)
            self.giveup_aborts += 1
            yield from self._global_abort(
                spec,
                begun,
                outcome,
                RefusalReason.RESUBMIT_BUDGET,
                min(giveups),
            )
            return outcome

        # -- decision: global commit -------------------------------------
        self._log_decision(spec.txn, True, sn, begun)
        self.history.record_global_commit(self.kernel.now, spec.txn)
        if self.kill_probe is not None:
            self.kill_probe("decision_logged", spec.txn)
        acks: List[Tuple[str, Event]] = []
        half = (len(begun) + 1) // 2
        for index, site in enumerate(begun):
            acks.append((site, self._expect(spec.txn, f"agent:{site}", "commit-ack")))
            self._send(MsgType.COMMIT, spec.txn, site)
            if (
                self.kill_probe is not None
                and len(begun) >= 2
                and index + 1 == half
            ):
                self.kill_probe("mid_broadcast", spec.txn)
        for site, wait in acks:
            yield from self._await_ack(
                spec.txn, site, "commit-ack", MsgType.COMMIT, wait
            )
        self._log_end(spec.txn)
        outcome.committed = True
        outcome.finished_at = self.kernel.now
        self.committed += 1
        if self.breakers is not None:
            for site in begun:
                self.breakers.record_success(site, self.kernel.now)
        if self.scheduler is not None:
            self.scheduler.on_end(spec.txn, committed=True)
        return outcome

    def _global_abort(
        self,
        spec: GlobalTransactionSpec,
        rollback_sites: List[str],
        outcome: GlobalOutcome,
        reason: Optional[RefusalReason],
        failing_site: Optional[str],
        record: bool = True,
    ):
        """Record ``A_k`` and roll back every participant that needs it."""
        outcome.reason = outcome.reason or reason or RefusalReason.REQUESTED
        if failing_site is not None and failing_site not in outcome.refusing_sites:
            outcome.refusing_sites.append(failing_site)
        if record:
            self._log_decision(spec.txn, False, outcome.sn, rollback_sites)
            self.history.record_global_abort(
                self.kernel.now, spec.txn, reason=outcome.reason
            )
        acks: List[Tuple[str, Event]] = []
        for site in rollback_sites:
            acks.append(
                (site, self._expect(spec.txn, f"agent:{site}", "rollback-ack"))
            )
            self._send(MsgType.ROLLBACK, spec.txn, site)
        for site, wait in acks:
            yield from self._await_ack(
                spec.txn, site, "rollback-ack", MsgType.ROLLBACK, wait
            )
        if record:
            self._log_end(spec.txn)
        outcome.finished_at = self.kernel.now
        self.aborted += 1
        self.aborts_by_reason[outcome.reason] = (
            self.aborts_by_reason.get(outcome.reason, 0) + 1
        )
        if (
            self.breakers is not None
            and outcome.reason in _BREAKER_FAILURE_REASONS
        ):
            for site in outcome.refusing_sites:
                self.breakers.record_failure(site, self.kernel.now)
        if self.scheduler is not None:
            self.scheduler.on_end(spec.txn, committed=False)

    # ------------------------------------------------------------------
    # Recovery: finishing in-doubt decisions from the decision log
    # ------------------------------------------------------------------

    def resume_in_doubt(self) -> int:
        """Re-drive delivery of every logged-but-unfinished decision.

        A coordinator (this one restarted, or a successor built with
        ``takeover=True`` on the dead one's address and decision log)
        calls this after opening the decision log: each DECISION record
        without a matching END is re-sent to its participant sites —
        COMMIT for sealed commits, ROLLBACK for sealed aborts — until
        all acks arrive, then the END record is written.  Outcome
        counters and the history are *not* touched: the original
        coordinator recorded those before (or while) the decision was
        forced; only delivery was interrupted.

        Returns the number of in-doubt transactions being re-driven.
        """
        if self.decision_log is None:
            return 0
        pending = self.decision_log.in_doubt()
        for decision in pending:
            Process(
                self.kernel,
                self._finish_decision(decision),
                name=f"resume:{decision.txn}",
            )
        return len(pending)

    def _finish_decision(self, decision):
        msg_type = MsgType.COMMIT if decision.committed else MsgType.ROLLBACK
        kind = "commit-ack" if decision.committed else "rollback-ack"
        acks: List[Tuple[str, Event]] = []
        for site in decision.sites:
            acks.append(
                (site, self._expect(decision.txn, f"agent:{site}", kind))
            )
            self._send(msg_type, decision.txn, site)
        for site, wait in acks:
            yield from self._await_ack(decision.txn, site, kind, msg_type, wait)
        self._log_end(decision.txn)
