"""The 2PC Agent (system S8): simulated prepared state, certification,
alive checks and subtransaction resubmission.

One agent fronts one LTM (paper Fig. 1).  It plays the Participant role
of 2PC towards the Coordinators while talking plain single-phase
transactions to its LDBS:

* **BEGIN/COMMAND** — the agent opens a local subtransaction and relays
  the DML commands, logging each into the Agent log first;
* **PREPARE** — the agent runs the extended + basic prepare
  certification (:class:`~repro.core.certifier.Certifier`), performs the
  alive check, force-writes the prepare record, binds the
  subtransaction's access set as *bound data* in the DLU guard and
  answers READY — or aborts the local subtransaction and answers REFUSE;
* while **prepared** — a periodic alive check discovers unilateral
  aborts (via the UAN notifications) and *resubmits* the logged
  commands as a brand-new local subtransaction, restarting the alive
  interval only once the full resubmission completed;
* **COMMIT** — commit certification gates the local commit so local
  commits happen in global serial-number order; when certification says
  "not yet" the agent re-tries on the commit-certification retry
  timeout (and, optimization, whenever the alive interval table
  changes); a unilaterally aborted incarnation is resubmitted before
  the commit is executed;
* **ROLLBACK** — the local subtransaction is aborted (if it still
  exists) and everything is cleaned up.

The phases ``idle → active → prepared → idle`` match the Participant
states of the paper's Sec. 2.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import (
    AgentCrashed,
    RefusalReason,
    SimulationError,
    TransactionAborted,
)
from repro.common.ids import SerialNumber, SubtxnId, TxnId
from repro.core.agent_log import AgentLog
from repro.core.certifier import Certifier
from repro.core.intervals import AliveInterval
from repro.history.model import History
from repro.kernel.events import EventKernel, Timer
from repro.kernel.process import Process, Sleep
from repro.ldbs.commands import Command
from repro.ldbs.dlu import BoundDataGuard
from repro.ldbs.ltm import LocalTransactionManager, LocalTxn, TxnState
from repro.net.messages import Message, MsgType
from repro.net.network import Network
from repro.overload.backoff import ResubmitBackoff
from repro.overload.config import OverloadConfig


@dataclass(frozen=True)
class AgentConfig:
    """Tunables of one 2PC Agent."""

    #: The alive check interval timeout of Appendix A.
    alive_check_interval: float = 50.0
    #: The commit certification retry timeout of Appendix C.
    commit_retry_interval: float = 20.0
    #: Pause between resubmission attempts that themselves failed.
    resubmit_retry_delay: float = 10.0
    #: Send an INQUIRE to the coordinator when a prepared
    #: subtransaction has seen no decision for this long (and repeat at
    #: the same interval).  Resolves the classic 2PC blocking window: a
    #: coordinator killed *before* forcing its DECISION record leaves
    #: the participant prepared forever, holding locks that stall every
    #: later transaction on the same rows.  ``0`` disables the inquiry
    #: (the default — simulator runs keep their exact golden timing).
    decision_inquiry_after: float = 0.0
    #: Re-run pending commit certifications as soon as the alive
    #: interval table changes (in addition to the paper's retry timer).
    eager_commit_retry: bool = True
    #: Certify PREPAREs arriving in the same kernel step as one batch
    #: (one certifier index pass for the whole group, see
    #: :class:`~repro.core.certifier.PrepareBatch`).  Off by default:
    #: deferring the READY/REFUSE replies by one kernel microstep
    #: changes event timing, so the determinism goldens only cover the
    #: sequential path.
    batch_prepares: bool = False
    #: Forget DONE transaction entries once the coordinator has sealed
    #: the global END record (all acks in).  Off by default: with GC a
    #: very late COMMAND/PREPARE straggler is answered from the
    #: no-state path (SITE_UNREACHABLE) instead of the DONE path
    #: (REQUESTED), which feeds differently into circuit breakers.
    gc_done_txns: bool = False


#: Protocol points at which a crash probe can kill the agent, in
#: protocol order.  Each marks a distinct durability window:
#: before the prepare record, after it but before READY, after READY,
#: on COMMIT arrival, after the commit record, after the local commit.
CRASH_POINTS = (
    "pre-prepare",
    "post-prepare",
    "post-ready",
    "post-commit-decision",
    "post-commit-record",
    "post-local-commit",
)


class AgentPhase(enum.Enum):
    """Participant states (paper Sec. 2) as seen by the agent."""

    ACTIVE = "active"
    PREPARED = "prepared"
    DONE = "done"


@dataclass
class _AgentTxn:
    txn: TxnId
    coordinator: str
    local: LocalTxn
    phase: AgentPhase = AgentPhase.ACTIVE
    sn: Optional[SerialNumber] = None
    #: Completion time of the last command or resubmission — the start
    #: of the candidate alive interval at prepare time.
    last_activity: float = 0.0
    #: A unilateral abort of the current incarnation was notified (UAN).
    uan: bool = False
    resubmitting: bool = False
    commit_pending: bool = False
    commit_record_written: bool = False
    #: A local.commit() is outstanding — duplicate COMMIT messages
    #: (coordinator ack-timeout resends) must not issue a second one.
    commit_in_flight: bool = False
    incarnations: int = 1
    resubmissions: int = 0
    alive_timer: Optional[Timer] = None
    retry_timer: Optional[Timer] = None
    #: Absolute deadline carried on BEGIN/COMMAND/PREPARE (overload
    #: layer); expired work is aborted, never prepared.
    deadline: Optional[float] = None
    #: When the subtransaction entered the prepared state (starvation
    #: guard: long-prepared entries retry certification more eagerly).
    prepared_at: float = 0.0
    #: Consecutive failed resubmission attempts (backoff input).
    resubmit_failures: int = 0
    #: When the last decision INQUIRE was sent (throttle).
    last_inquiry_at: float = 0.0
    #: Orphan detector for the *active* window (armed at BEGIN when
    #: inquiries are enabled): a coordinator that dies before sending
    #: PREPARE leaves this entry active forever, its in-place writes
    #: and locks stalling every later transaction on the same rows.
    orphan_timer: Optional[Timer] = None
    #: The GIVEUP escalation was sent (at most once per subtransaction).
    giveup_sent: bool = False
    #: Rebuilt from the WAL by recover(): a duplicate BEGIN for this
    #: entry is an at-least-once redelivery whose ack died with the
    #: previous process, not a protocol violation.
    recovered: bool = False
    #: An eager commit-certification retry is already queued; further
    #: interval-table changes must not queue another (coalescing).
    retry_armed: bool = False


class TwoPCAgent:
    """One site's 2PC Agent with its Certifier."""

    def __init__(
        self,
        site: str,
        kernel: EventKernel,
        network: Network,
        history: History,
        ltm: LocalTransactionManager,
        certifier: Certifier,
        dlu_guard: Optional[BoundDataGuard] = None,
        config: Optional[AgentConfig] = None,
        log: Optional[AgentLog] = None,
        overload: Optional[OverloadConfig] = None,
        overload_seed: int = 0,
    ) -> None:
        self.site = site
        self.address = f"agent:{site}"
        self.kernel = kernel
        self.network = network
        self.history = history
        self.ltm = ltm
        self.certifier = certifier
        self.dlu_guard = dlu_guard
        self.config = config or AgentConfig()
        self.log = log if log is not None else AgentLog(site)
        self._overload = overload
        #: Adaptive resubmission backoff (None → the paper's fixed pause).
        self._backoff: Optional[ResubmitBackoff] = (
            ResubmitBackoff(overload, random.Random(overload_seed))
            if overload is not None
            else None
        )
        self._states: Dict[TxnId, _AgentTxn] = {}
        #: The entries of ``_states`` not yet DONE, in the same order.
        #: The per-PREPARE and per-finalize walks visit only these, so
        #: their cost follows the open load, not the agent's age.
        self._open: Dict[TxnId, _AgentTxn] = {}
        #: PREPAREs queued within one kernel step (batch_prepares only).
        self._prepare_queue: List[Message] = []
        self._prepare_flush_armed = False
        #: Crash injection hook: ``probe(point, txn) -> bool``; returning
        #: True kills the agent at that protocol point (see crash()).
        self.crash_probe: Optional[Callable[[str, TxnId], bool]] = None
        #: Down until :meth:`boot`, and again from a crash to its recovery.
        self._down = True
        #: Bumped on every crash so completions subscribed by a previous
        #: incarnation of the agent process are recognisably stale.
        self._epoch = 0
        # Observers for centralized baselines (CGM needs to see prepared
        # and locally-committed transitions).
        self.on_ready_observers: List[Callable[[TxnId, str], None]] = []
        self.on_local_commit_observers: List[Callable[[TxnId, str], None]] = []
        self.on_finalized_observers: List[Callable[[TxnId, str], None]] = []
        #: Fired on every failed resubmission attempt — the circuit
        #: breakers treat a site that cannot finish a replay as failing.
        self.on_resubmit_failure_observers: List[Callable[[TxnId], None]] = []
        # Counters for the benchmarks.
        self.refusals: Dict[RefusalReason, int] = {}
        self.ready_sent = 0
        self.commits_done = 0
        self.rollbacks_done = 0
        self.resubmissions = 0
        self.resubmit_failures = 0
        self.giveups_sent = 0
        self.inquiries_sent = 0
        self.alive_checks = 0
        self.restarts = 0
        self.crashes = 0
        self.prepare_batches = 0
        #: Duplicate BEGINs dropped for WAL-recovered entries.
        self.begin_redeliveries = 0
        #: DONE entries dropped on the coordinator's END watermark.
        self.done_forgotten = 0
        network.register(self.address, self._on_message)
        network.note_endpoint_down(self.address)
        ltm.on_unilateral_abort(self._on_uan)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        if self._down:
            return  # a dead process receives nothing
        try:
            if msg.type is MsgType.BEGIN:
                self._on_begin(msg)
            elif msg.type is MsgType.COMMAND:
                self._on_command(msg)
            elif msg.type is MsgType.PREPARE:
                self._on_prepare(msg)
            elif msg.type is MsgType.COMMIT:
                self._on_commit(msg)
            elif msg.type is MsgType.ROLLBACK:
                self._on_rollback(msg)
            elif msg.type is MsgType.PING:
                # Failure-detector heartbeat: a live process answers, a
                # crashed one (caught above) stays silent — the silence
                # is the signal.
                self._reply(msg, MsgType.PONG)
            else:
                raise SimulationError(f"agent {self.site} got unexpected {msg}")
        except AgentCrashed:
            # The probe killed the agent mid-handler; the rest of the
            # handler (replies included) never happened.
            pass

    def _probe(self, point: str, txn: TxnId) -> None:
        """Crash here if the injected probe says so."""
        hook = self.crash_probe
        if hook is not None and not self._down and hook(point, txn):
            self.crash()
            raise AgentCrashed(self.site, point, txn)

    def _reply(
        self,
        msg: Message,
        type_: MsgType,
        payload=None,
        reason: Optional[RefusalReason] = None,
    ) -> None:
        self.network.send(
            Message(
                type=type_,
                src=self.address,
                dst=msg.src,
                txn=msg.txn,
                payload=payload,
                reason=reason,
            )
        )

    # ------------------------------------------------------------------
    # Active state: BEGIN and COMMAND
    # ------------------------------------------------------------------

    def _on_begin(self, msg: Message) -> None:
        existing = self._states.get(msg.txn)
        if existing is not None:
            if existing.recovered:
                # The pre-crash ack died with the process; the sender
                # redelivered. The WAL already reopened this entry —
                # drop the duplicate so the sender's window drains.
                self.begin_redeliveries += 1
                return
            raise SimulationError(f"duplicate BEGIN for {msg.txn} at {self.site}")
        local = self.ltm.begin(SubtxnId(msg.txn, self.site, 0))
        state = _AgentTxn(
            txn=msg.txn,
            coordinator=msg.src,
            local=local,
            last_activity=self.kernel.now,
            deadline=msg.deadline,
        )
        self._states[msg.txn] = state
        self._open[msg.txn] = state
        self.log.open(msg.txn, coordinator=msg.src)
        self._arm_orphan_timer(state)

    def _on_command(self, msg: Message) -> None:
        state = self._states.get(msg.txn)
        if state is None:
            # A restart wiped the volatile state (the entry never
            # reached its prepare record): fail the command so the
            # coordinator aborts, exactly like a refused participant.
            self._reply(
                msg,
                MsgType.COMMAND_RESULT,
                payload=TransactionAborted(
                    RefusalReason.SITE_UNREACHABLE,
                    f"agent {self.site} restarted; no state for {msg.txn}",
                ),
            )
            return
        if state.phase is not AgentPhase.ACTIVE:
            # A late COMMAND (the coordinator gave up on this site and
            # rolled back, or the wire reordered around a session
            # reset): the log entry is gone, fail the command instead
            # of executing against a finished transaction.
            self._reply(
                msg,
                MsgType.COMMAND_RESULT,
                payload=TransactionAborted(
                    RefusalReason.REQUESTED,
                    f"{msg.txn} already {state.phase.value} at {self.site}",
                ),
            )
            return
        if msg.deadline is not None:
            state.deadline = msg.deadline
        if state.deadline is not None and self.kernel.now >= state.deadline:
            # Expired work is refused, never executed: under overload
            # the cheapest transaction is the one you stop working on.
            reason = RefusalReason.DEADLINE_EXPIRED
            if state.local.state is TxnState.ACTIVE:
                state.local.abort(reason)
            self.refusals[reason] = self.refusals.get(reason, 0) + 1
            self._reply(
                msg,
                MsgType.COMMAND_RESULT,
                payload=TransactionAborted(
                    reason,
                    f"{msg.txn} past deadline {state.deadline:g} at {self.site}",
                ),
            )
            self._finalize(state)
            return
        command: Command = msg.payload
        self.log.log_command(msg.txn, command)
        completion = state.local.execute(command)
        epoch = self._epoch

        def answer(event) -> None:
            if self._epoch != epoch:
                return  # subscribed by a process incarnation that died
            if event.error is None:
                state.last_activity = self.kernel.now
                self._reply(msg, MsgType.COMMAND_RESULT, payload=event._value)
            else:
                self._reply(msg, MsgType.COMMAND_RESULT, payload=event.error)

        completion.subscribe(answer)

    # ------------------------------------------------------------------
    # PREPARE: extended + basic certification, alive check (Appendix B)
    # ------------------------------------------------------------------

    def _on_prepare(self, msg: Message) -> None:
        if self.config.batch_prepares:
            # Coalesce every PREPARE delivered in this kernel step into
            # one certification batch; the flush runs before time moves,
            # so the candidate intervals are the same either way.
            self._prepare_queue.append(msg)
            if not self._prepare_flush_armed:
                self._prepare_flush_armed = True
                self.kernel.call_soon(self._flush_prepare_batch)
            return
        self._handle_prepare(msg)

    def _flush_prepare_batch(self) -> None:
        self._prepare_flush_armed = False
        queue, self._prepare_queue = self._prepare_queue, []
        if self._down or not queue:
            return
        self._refresh_intervals()
        batch = self.certifier.begin_prepare_batch()
        self.prepare_batches += 1
        for msg in queue:
            if self._down:
                # A probe killed the agent mid-batch; the survivors are
                # dropped like any message to a dead process.
                return
            try:
                self._handle_prepare(msg, batch=batch)
            except AgentCrashed:
                pass

    def _handle_prepare(self, msg: Message, batch=None) -> None:
        state = self._states.get(msg.txn)
        if state is None:
            # Restart wiped an un-prepared entry; refuse so the
            # coordinator rolls the global transaction back.
            reason = RefusalReason.SITE_UNREACHABLE
            self.refusals[reason] = self.refusals.get(reason, 0) + 1
            self._reply(
                msg,
                MsgType.REFUSE,
                payload=f"agent {self.site} restarted; no state for {msg.txn}",
                reason=reason,
            )
            return
        if state.phase is AgentPhase.PREPARED:
            # Duplicate PREPARE (resent around a session reset): the
            # durable promise already stands — repeat the vote.
            self._reply(msg, MsgType.READY)
            return
        if state.phase is AgentPhase.DONE:
            # The transaction already finished here (e.g. rolled back
            # after the coordinator gave us up); a late PREPARE gets a
            # consistent, idempotent refusal.
            self._reply(
                msg,
                MsgType.REFUSE,
                payload=f"{msg.txn} already finished at {self.site}",
                reason=RefusalReason.REQUESTED,
            )
            return
        self._probe("pre-prepare", msg.txn)
        if msg.deadline is not None:
            state.deadline = msg.deadline
        if state.deadline is not None and self.kernel.now >= state.deadline:
            # Never enter the prepared state for work that is already
            # too late: a prepared entry blocks the certifier's table
            # until the coordinator decides, and this one can only be
            # aborted anyway.
            self._abort_and_refuse(
                state,
                msg,
                RefusalReason.DEADLINE_EXPIRED,
                f"{msg.txn} past deadline {state.deadline:g} at {self.site}",
            )
            return
        state.sn = msg.sn
        candidate = AliveInterval(state.last_activity, self.kernel.now)
        # Perform an alive check on every prepared subtransaction right
        # now and extend the intervals of the live ones — otherwise "too
        # long a time between alive time checks" would cause unnecessary
        # aborts (paper Sec. 6) and the failure-free zero-abort property
        # would not hold.  (A batch does this once for the whole group.)
        if batch is None:
            self._refresh_intervals()
        if batch is not None:
            decision = batch.certify(msg.txn, msg.sn, candidate)
        else:
            decision = self.certifier.certify_prepare(msg.txn, msg.sn, candidate)
        if not decision.ok:
            self._abort_and_refuse(state, msg, decision.reason, decision.detail)
            return
        # The alive check: UAN would have told us about any unilateral
        # abort of the current incarnation; commands are all done
        # (coordinators only send PREPARE after the last result).
        alive = not state.uan and self.ltm.is_alive(state.local.subtxn)
        if not alive:
            self._abort_and_refuse(state, msg, RefusalReason.NOT_ALIVE, "")
            return
        if batch is not None:
            batch.admit(msg.txn, msg.sn, candidate)
        else:
            self.certifier.insert(msg.txn, msg.sn, candidate)
        self.log.write_prepare(msg.txn, msg.sn, self.kernel.now)
        if self.dlu_guard is not None:
            self.dlu_guard.bind(
                msg.txn,
                self.ltm.access_set_of(state.local.subtxn),
                tables=self.ltm.scanned_tables_of(state.local.subtxn),
            )
        self.history.record_prepare(self.kernel.now, msg.txn, self.site, msg.sn)
        state.phase = AgentPhase.PREPARED
        state.prepared_at = self.kernel.now
        # Prepare record is on disk, READY not yet sent: a crash here
        # leaves the coordinator to time the vote out and abort, while
        # the recovered agent re-enters prepared and later obeys the
        # ROLLBACK idempotently.
        self._probe("post-prepare", msg.txn)
        state.alive_timer = Timer(
            self.kernel,
            self.config.alive_check_interval,
            lambda: self._alive_check(state),
        )
        state.alive_timer.start()
        self.ready_sent += 1
        self._reply(msg, MsgType.READY)
        for observer in self.on_ready_observers:
            observer(msg.txn, self.site)
        # READY is out: the durable promise is now binding.
        self._probe("post-ready", msg.txn)

    def _abort_and_refuse(
        self,
        state: _AgentTxn,
        msg: Message,
        reason: Optional[RefusalReason],
        detail: str,
    ) -> None:
        reason = reason or RefusalReason.REQUESTED
        if state.local.state is TxnState.ACTIVE:
            state.local.abort(reason)
        self.refusals[reason] = self.refusals.get(reason, 0) + 1
        self._reply(msg, MsgType.REFUSE, payload=detail, reason=reason)
        self._finalize(state)

    def _refresh_intervals(self) -> None:
        """Alive-check every prepared entry and extend live intervals."""
        for other in self._open.values():
            if other.phase is not AgentPhase.PREPARED:
                continue
            if other.uan or other.resubmitting:
                continue
            if self.certifier.contains(other.txn):
                self.alive_checks += 1
                self.certifier.extend_interval(other.txn, self.kernel.now)

    # ------------------------------------------------------------------
    # Alive check (Appendix A)
    # ------------------------------------------------------------------

    def _alive_check(self, state: _AgentTxn) -> None:
        if state.phase is not AgentPhase.PREPARED:
            return
        self.alive_checks += 1
        if state.uan:
            # Unilaterally aborted: resubmit commands from the Agent log.
            self._ensure_resubmission(state)
        elif not state.resubmitting:
            # No failure: update the end of the alive time interval.
            self.certifier.extend_interval(state.txn, self.kernel.now)
        self._maybe_inquire(state)
        if state.alive_timer is not None:
            state.alive_timer.restart()

    def _maybe_inquire(self, state: _AgentTxn) -> None:
        """Ask the coordinator for an overdue decision (presumed abort).

        Only prepared entries *without* a known decision inquire —
        ``commit_pending`` means COMMIT already arrived, so the local
        commit is this agent's own job.  The reply is either the logged
        decision (re-driven idempotently) or ROLLBACK when the
        coordinator has never heard of the transaction: the decision
        record is forced before any COMMIT is sent, so an unknown
        transaction can never have committed anywhere.
        """
        after = self.config.decision_inquiry_after
        if after <= 0 or state.commit_pending:
            return
        now = self.kernel.now
        if now - state.prepared_at < after or now - state.last_inquiry_at < after:
            return
        self._send_inquiry(state)

    def _arm_orphan_timer(self, state: _AgentTxn) -> None:
        if self.config.decision_inquiry_after <= 0:
            return
        state.orphan_timer = Timer(
            self.kernel,
            self.config.alive_check_interval,
            lambda: self._orphan_check(state),
        )
        state.orphan_timer.start()

    def _orphan_check(self, state: _AgentTxn) -> None:
        """Inquire for *active* entries whose coordinator went silent.

        The prepared window is covered by the alive-check timer (see
        :meth:`_maybe_inquire`); this timer covers the window before it
        — BEGIN received, commands possibly executed, no PREPARE yet.
        A coordinator killed in that window never speaks again, so the
        entry would otherwise stay active forever with its in-place
        writes visible to the bank invariants and its locks blocking
        every later transaction.  Once the entry leaves the active
        phase the timer retires (prepared entries have their own).
        """
        if state.phase is not AgentPhase.ACTIVE:
            state.orphan_timer = None
            return
        after = self.config.decision_inquiry_after
        now = self.kernel.now
        if (
            now - state.last_activity >= after
            and now - state.last_inquiry_at >= after
        ):
            self._send_inquiry(state)
        if state.orphan_timer is not None:
            state.orphan_timer.restart()

    def _send_inquiry(self, state: _AgentTxn) -> None:
        state.last_inquiry_at = self.kernel.now
        self.inquiries_sent += 1
        self.network.send(
            Message(
                type=MsgType.INQUIRE,
                src=self.address,
                dst=state.coordinator,
                txn=state.txn,
                payload=f"decision overdue at {self.site}",
            )
        )

    # ------------------------------------------------------------------
    # Resubmission
    # ------------------------------------------------------------------

    def _on_uan(self, subtxn: SubtxnId) -> None:
        state = self._states.get(subtxn.txn)
        if state is None or state.phase is AgentPhase.DONE:
            return
        if state.local.subtxn != subtxn:
            return  # an already-replaced incarnation; nothing to note
        state.uan = True

    def _ensure_resubmission(self, state: _AgentTxn) -> None:
        if state.resubmitting or state.phase is not AgentPhase.PREPARED:
            return
        state.resubmitting = True
        Process(
            self.kernel,
            self._resubmit_body(state),
            name=f"resubmit:{state.txn}@{self.site}",
        )

    def _resubmit_body(self, state: _AgentTxn):
        """Replay the Agent log as a new local subtransaction.

        Retries until an attempt runs to completion (the TW assumption
        guarantees a bounded number of retries suffices; the failure
        injector honours a per-subtransaction abort budget).
        """
        while state.phase is AgentPhase.PREPARED:
            if state.local.state is TxnState.ACTIVE:
                # Never leak a live incarnation (and its locks) when
                # replacing it with a fresh one.
                state.local.abort(RefusalReason.REQUESTED)
            incarnation = SubtxnId(state.txn, self.site, state.incarnations)
            state.incarnations += 1
            self.log.note_resubmission(state.txn)
            local = self.ltm.begin(incarnation)
            state.local = local
            state.uan = False
            try:
                for command in self.log.commands(state.txn):
                    if state.phase is not AgentPhase.PREPARED:
                        local.abort(RefusalReason.REQUESTED)
                        state.resubmitting = False
                        return
                    yield local.execute(command)
            except TransactionAborted:
                # This incarnation died too (injected abort, deadlock
                # timeout...).  The LTM already rolled it back; retry.
                state.resubmit_failures += 1
                self.resubmit_failures += 1
                for observer in self.on_resubmit_failure_observers:
                    observer(state.txn)
                self._maybe_giveup(state)
                yield Sleep(self._resubmit_delay(state))
                continue
            if state.phase is not AgentPhase.PREPARED:
                # A ROLLBACK arrived while the last command was running.
                local.abort(RefusalReason.REQUESTED)
                state.resubmitting = False
                return
            # Resubmission of all the commands is complete: initiate the
            # new alive time interval.
            state.last_activity = self.kernel.now
            state.resubmitting = False
            state.resubmissions += 1
            self.resubmissions += 1
            if self.certifier.contains(state.txn):
                self.certifier.restart_interval(state.txn, self.kernel.now)
            if self.dlu_guard is not None:
                self.dlu_guard.bind(
                    state.txn,
                    self.ltm.access_set_of(incarnation),
                    tables=self.ltm.scanned_tables_of(incarnation),
                )
            state.resubmit_failures = 0
            if state.commit_pending and not state.retry_armed:
                state.retry_armed = True
                self.kernel.call_soon(lambda: self._guarded_try_commit(state))
            return
        state.resubmitting = False

    def _resubmit_delay(self, state: _AgentTxn) -> float:
        """Pause before the next resubmission attempt."""
        if self._backoff is not None:
            return self._backoff.delay(state.resubmit_failures)
        return self.config.resubmit_retry_delay

    def _maybe_giveup(self, state: _AgentTxn) -> None:
        """Escalate an exhausted resubmission budget to the coordinator.

        GIVEUP is strictly advisory — a READY vote cannot be revoked, so
        the agent keeps its prepared state and keeps resubmitting.  The
        coordinator honours the hint only while the global decision is
        still open (it turns into a global abort with
        ``RESUBMIT_BUDGET``); after COMMIT the hint is ignored and the
        resubmission loop must eventually succeed (TW assumption).  Once
        ``commit_pending`` is set the decision is already COMMIT, so the
        hint would be pure noise and is suppressed.
        """
        if self._overload is None or state.giveup_sent:
            return
        if state.commit_pending:
            return
        if state.resubmit_failures <= self._overload.resubmit_budget:
            return
        state.giveup_sent = True
        self.giveups_sent += 1
        self.network.send(
            Message(
                type=MsgType.GIVEUP,
                src=self.address,
                dst=state.coordinator,
                txn=state.txn,
                payload=f"resubmit budget exhausted at {self.site} "
                f"after {state.resubmit_failures} failures",
            )
        )

    # ------------------------------------------------------------------
    # COMMIT: commit certification (Appendix C)
    # ------------------------------------------------------------------

    def _on_commit(self, msg: Message) -> None:
        state = self._states.get(msg.txn)
        if state is None or state.phase is AgentPhase.DONE:
            # Already committed (possibly by a recovered incarnation that
            # re-acked and discarded): acknowledge idempotently so
            # coordinator resends converge.
            self._reply(msg, MsgType.COMMIT_ACK)
            return
        if state.phase is not AgentPhase.PREPARED:
            raise SimulationError(
                f"COMMIT for {msg.txn} at {self.site} in phase {state.phase}"
            )
        # The global decision has arrived but nothing local happened yet.
        self._probe("post-commit-decision", msg.txn)
        state.commit_pending = True
        self._try_commit(state)

    def _guarded_try_commit(self, state: _AgentTxn) -> None:
        """_try_commit for timer/call_soon contexts: a crash probe firing
        here must not unwind into the kernel."""
        state.retry_armed = False
        try:
            self._try_commit(state)
        except AgentCrashed:
            pass

    def _try_commit(self, state: _AgentTxn) -> None:
        if state.phase is not AgentPhase.PREPARED or not state.commit_pending:
            return
        decision = self.certifier.certify_commit(state.txn)
        if not decision.ok:
            # Commit certification failed: retry at a later time.
            if state.retry_timer is None:
                state.retry_timer = Timer(
                    self.kernel,
                    self.config.commit_retry_interval,
                    lambda: self._guarded_try_commit(state),
                )
            if self._overload is not None:
                # Starvation guard: the longer this entry has sat
                # prepared, the shorter its retry interval — an aged
                # commit certification gets first crack at every newly
                # freed slot instead of losing the race forever.
                age = max(0.0, self.kernel.now - state.prepared_at)
                state.retry_timer.interval = max(
                    self._overload.min_commit_retry,
                    self.config.commit_retry_interval
                    / (1.0 + age / self._overload.commit_retry_halflife),
                )
            state.retry_timer.restart()
            return
        if state.resubmitting:
            return  # the resubmission's completion re-triggers us
        if state.uan or not self.ltm.is_alive(state.local.subtxn):
            # The incarnation is gone; resubmit first, then commit.
            self._ensure_resubmission(state)
            return
        if state.commit_in_flight:
            return  # a duplicate COMMIT; the running local commit answers
        if not state.commit_record_written:
            self.log.write_commit(state.txn, self.kernel.now)
            state.commit_record_written = True
        # The commit record is durable, the local commit not yet issued:
        # recovery resumes the commit from the log.
        self._probe("post-commit-record", state.txn)
        state.commit_in_flight = True
        completion = state.local.commit()
        epoch = self._epoch

        def on_commit(event) -> None:
            if self._epoch != epoch:
                return  # the agent process that issued this commit died
            state.commit_in_flight = False
            try:
                if event.error is None:
                    self._local_commit_done(state)
                else:
                    # A unilateral abort raced the commit and won; resubmit.
                    state.uan = True
                    self._ensure_resubmission(state)
            except AgentCrashed:
                pass

        completion.subscribe(on_commit)

    def _local_commit_done(self, state: _AgentTxn) -> None:
        # The LDBS committed; the COMMIT-ACK is not out yet.  A crash
        # here is the classic committed-but-unacked window: recovery
        # finds commit record + committed local state and just re-acks.
        self._probe("post-local-commit", state.txn)
        self.certifier.record_local_commit(state.txn)
        self.log.record_committed_sn(state.sn)
        self.commits_done += 1
        self.network.send(
            Message(
                type=MsgType.COMMIT_ACK,
                src=self.address,
                dst=state.coordinator,
                txn=state.txn,
            )
        )
        for observer in self.on_local_commit_observers:
            observer(state.txn, self.site)
        self._finalize(state)

    # ------------------------------------------------------------------
    # ROLLBACK
    # ------------------------------------------------------------------

    def _on_rollback(self, msg: Message) -> None:
        state = self._states.get(msg.txn)
        if state is None or state.phase is AgentPhase.DONE:
            # Already refused / finished; acknowledge idempotently.
            self._reply(msg, MsgType.ROLLBACK_ACK)
            return
        if state.local.state is TxnState.ACTIVE:
            state.local.abort(RefusalReason.REQUESTED)
        elif self.certifier.contains(state.txn):
            # The incarnation already died unilaterally; the ROLLBACK is
            # what ends the *simulated* prepared state, so make the exit
            # visible in the history (the CI checker and the log both
            # need the boundary).
            self.history.record_local_abort(
                self.kernel.now,
                state.local.subtxn,
                self.site,
                unilateral=False,
                reason=RefusalReason.REQUESTED,
            )
        self.rollbacks_done += 1
        self._reply(msg, MsgType.ROLLBACK_ACK)
        self._finalize(state)

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def _finalize(self, state: _AgentTxn) -> None:
        was_in_table = self.certifier.contains(state.txn)
        state.phase = AgentPhase.DONE
        self._open.pop(state.txn, None)
        state.commit_pending = False
        if state.alive_timer is not None:
            state.alive_timer.cancel()
        if state.retry_timer is not None:
            state.retry_timer.cancel()
        if state.orphan_timer is not None:
            state.orphan_timer.cancel()
            state.orphan_timer = None
        self.certifier.remove(state.txn)
        if self.dlu_guard is not None:
            self.dlu_guard.unbind(state.txn)
        self.log.discard(state.txn)
        for observer in self.on_finalized_observers:
            observer(state.txn, self.site)
        if was_in_table and self.config.eager_commit_retry:
            # The alive interval table shrank: commits blocked on the
            # commit certification may pass now.  Wakeups coalesce: at
            # most one eager retry per subtransaction is ever queued, so
            # a burst of finalizations cannot build a thundering herd of
            # redundant certify_commit calls against the same entry.
            for other in self._open.values():
                if (
                    other.commit_pending
                    and other.phase is AgentPhase.PREPARED
                    and not other.retry_armed
                ):
                    other.retry_armed = True
                    self.kernel.call_soon(
                        lambda candidate=other: self._guarded_try_commit(candidate)
                    )

    def note_global_end(self, txn: TxnId) -> None:
        """GC watermark: the coordinator sealed the global END record.

        All acks for ``txn`` are in, so no further message about it can
        require this agent's per-transaction state.  With
        ``gc_done_txns`` the DONE entry is dropped (bounding ``_states``
        under sustained load); without it this is a no-op, preserving
        the default refusal behaviour for late stragglers.  Entries not
        yet DONE are never dropped — a crash-recovered agent may still
        be driving a resumed commit when the watermark arrives.
        """
        if not self.config.gc_done_txns:
            return
        state = self._states.get(txn)
        if state is not None and state.phase is AgentPhase.DONE:
            del self._states[txn]
            self.done_forgotten += 1

    # ------------------------------------------------------------------
    # Agent restart recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill the 2PC Agent process.

        Every volatile structure dies — the transaction table, the
        timers, the certifier's alive interval table.  The LDBS aborts
        the orphaned local subtransactions (a lost connection is a
        unilateral abort from the DTM's view) and the log is closed (a
        durable log's on-disk state is exactly what the dead process
        managed to write).  Until :meth:`recover` runs, incoming
        messages are dropped on the floor.
        """
        if self._down:
            return
        self._down = True
        self.crashes += 1
        self._epoch += 1
        self._prepare_queue = []
        # Tell the transport the process is gone: a session layer must
        # stop acknowledging deliveries nobody is listening to, so the
        # senders keep retransmitting until recovery.
        self.network.note_endpoint_down(self.address)
        old_states = self._states
        self._states = {}
        self._open = {}
        for state in old_states.values():
            if state.alive_timer is not None:
                state.alive_timer.cancel()
            if state.retry_timer is not None:
                state.retry_timer.cancel()
            state.phase = AgentPhase.DONE  # kills in-flight resubmissions
        # The LDBS rolls orphaned subtransactions back (connection loss).
        for state in old_states.values():
            self.ltm.unilaterally_abort(state.local.subtxn)
        # Volatile certifier state is gone with the process.
        self.certifier = self.certifier.fresh()
        self.log.close()

    def recover(self, log: Optional[AgentLog] = None) -> int:
        """Restart the crashed agent: :meth:`boot` it again.

        With the in-memory log, pass nothing — the object survives by
        fiat.  With a :class:`~repro.durability.agent_log.DurableAgentLog`,
        pass a freshly re-opened instance (``DurableAgentLog.open_site``)
        — the crashed one is closed and holds only dead file handles.
        """
        if not self._down:
            # Recovering a live agent would wipe its volatile state and
            # re-insert stale log entries; injectors whose scheduled
            # recovery races an earlier heal must be a no-op here.
            return 0
        if log is not None:
            self.log = log
        self.restarts += 1
        return self.boot()

    def boot(self) -> int:
        """The RECOVERY step: bring the agent up from its Agent log.

        Run once routes to the coordinators exist; until then inbound
        traffic is dropped unacknowledged, so senders retransmit.  The
        LTM must know each subtransaction the log names (a fresh LDBS
        process learns them from ``LocalTransactionManager.restore``).
        Prepared entries re-enter the prepared state (the alive check
        resubmits a dead incarnation); committed ones resume the commit,
        or are re-acked and discarded if the local commit happened;
        active ones fail their next COMMAND or PREPARE and arm the
        orphan timer.  The extension's max-committed-SN register is
        reloaded.  Returns the number of recovered (non-final)
        transactions; 0 for an agent already up.
        """
        if not self._down:
            return 0
        self._down = False
        self.network.note_endpoint_up(self.address)
        self.certifier.restore_max_committed_sn(self.log.max_committed_sn)

        recovered = 0
        for entry in self.log.entries():
            incarnation = SubtxnId(entry.txn, self.site, entry.incarnations - 1)
            local = self.ltm.handle_of(incarnation)
            committed_locally = local.state is TxnState.COMMITTED
            if entry.committed and committed_locally:
                # The crash hit between local commit and COMMIT-ACK:
                # just re-acknowledge.
                self.log.record_committed_sn(entry.prepare_sn)
                self.certifier.restore_max_committed_sn(entry.prepare_sn)
                self.network.send(
                    Message(
                        type=MsgType.COMMIT_ACK,
                        src=self.address,
                        dst=entry.coordinator,
                        txn=entry.txn,
                    )
                )
                self.log.discard(entry.txn)
                continue
            state = _AgentTxn(
                txn=entry.txn,
                coordinator=entry.coordinator,
                local=local,
                last_activity=self.kernel.now,
                uan=not committed_locally,
                incarnations=entry.incarnations,
                commit_pending=entry.committed,
                commit_record_written=entry.committed,
                sn=entry.prepare_sn,
                recovered=True,
            )
            self._states[entry.txn] = state
            self._open[entry.txn] = state
            recovered += 1
            if entry.prepared:
                state.phase = AgentPhase.PREPARED
                state.prepared_at = self.kernel.now
                self.certifier.insert(
                    entry.txn,
                    entry.prepare_sn,
                    AliveInterval.instant(entry.prepare_time),
                )
                state.alive_timer = Timer(
                    self.kernel,
                    self.config.alive_check_interval,
                    lambda s=state: self._alive_check(s),
                )
                state.alive_timer.start()
                if state.commit_pending:
                    state.retry_armed = True
                    self.kernel.call_soon(
                        lambda s=state: self._guarded_try_commit(s)
                    )
            else:
                self._arm_orphan_timer(state)
        return recovered

    def simulate_restart(self) -> int:
        """Crash and immediately recover (in-memory log convenience)."""
        self.crash()
        return self.recover()

    @property
    def crashed(self) -> bool:
        """Down: crashed and not yet recovered (or not booted yet)."""
        return self._down

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _state(self, txn: TxnId) -> _AgentTxn:
        state = self._states.get(txn)
        if state is None:
            raise SimulationError(f"agent {self.site} has no state for {txn}")
        return state

    def phase_of(self, txn: TxnId) -> Optional[AgentPhase]:
        state = self._states.get(txn)
        return None if state is None else state.phase

    def current_incarnation(self, txn: TxnId) -> Optional[SubtxnId]:
        state = self._states.get(txn)
        return None if state is None else state.local.subtxn

    def prepared_txns(self) -> List[TxnId]:
        return self.certifier.prepared_txns()

    def open_txn_count(self) -> int:
        """Entries not yet DONE (active or prepared, decided or not).

        Zero means quiescence: no undecided in-place writes, no held
        locks — the store totals are exactly the committed image.
        """
        return len(self._open)

    def resubmissions_of(self, txn: TxnId) -> int:
        state = self._states.get(txn)
        return 0 if state is None else state.resubmissions
