"""The Local Transaction Manager (system S6).

One LTM fronts one LDBS.  It realizes every assumption the paper makes
about the local systems:

* **DDF** — commands execute exactly the elementary sequence given by
  :func:`repro.ldbs.commands.decompose` evaluated on the state at
  execution time;
* **RR** — abort restores before-images via the versioned store;
* **RTT** — command semantics depend only on the values read (commands
  are pure values; no hidden clock or randomness);
* **SRS** — strict multi-granularity 2PL (all locks held to the end)
  yields rigorous histories; ``LTMConfig(rigorous=False)`` releases
  read locks after each command to produce *non*-rigorous histories for
  the ablation experiments;
* **E-autonomy / unilateral abort** — :meth:`LocalTransactionManager.
  unilaterally_abort` rolls a transaction back at any point before
  local commit, including while it is blocked on a lock, and fires the
  **UAN** callbacks the 2PC Agent subscribes to;
* **DLU** — physical writes by *local* transactions pass through the
  site's :class:`~repro.ldbs.dlu.BoundDataGuard`.

The LTM treats the original and every resubmitted local subtransaction
as completely independent transactions (each has its own
:class:`~repro.common.ids.SubtxnId`), exactly as the paper requires —
the correlation back to one global transaction lives only in the agent
and in the history checkers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import (
    RefusalReason,
    SimulationError,
    TransactionAborted,
)
from repro.common.ids import DataItemId, SubtxnId
from repro.history.model import History
from repro.kernel.events import Event, EventKernel
from repro.kernel.process import Process, Sleep
from repro.ldbs import commands as cmd
from repro.ldbs.commands import Command, CommandResult, validate_command
from repro.ldbs.dlu import BoundDataGuard
from repro.ldbs.locks import LockManager, LockMode
from repro.ldbs.storage import VersionedStore


@dataclass(frozen=True)
class LTMConfig:
    """Tunables of one LDBS."""

    #: Simulated duration of one elementary R/W operation.
    op_duration: float = 1.0
    #: Deadlock-resolution timeout for lock waits (paper: "timeout based
    #: deadlock resolution").
    lock_timeout: Optional[float] = 200.0
    #: Strict 2PL (rigorous, the SRS assumption) when True; early
    #: read-lock release (non-rigorous) when False — ablation only.
    rigorous: bool = True
    #: Optional *active* deadlock detection: scan the wait-for graph
    #: every this many time units and unilaterally abort one victim per
    #: cycle.  ``None`` (default) leaves resolution to the timeout, as
    #: the paper assumes for 2CM; CGM-style systems turn this on to
    #: break deadlocks long before the timeout fires.
    deadlock_detection_period: Optional[float] = None


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _TxnRecord:
    handle: "LocalTxn"
    state: TxnState = TxnState.ACTIVE
    executing: Optional[Process] = None
    commands_done: int = 0
    abort_reason: Optional[RefusalReason] = None
    aborted_unilaterally: bool = False
    #: Items read or written so far (feeds the agent's bound-data set).
    access_set: List[DataItemId] = field(default_factory=list)
    #: Tables scanned so far (feeds table-level binding: a local insert
    #: into a scanned table would change the resubmitted decomposition).
    scanned_tables: List[str] = field(default_factory=list)
    #: Per-command resources whose read locks may be dropped when the
    #: LTM is configured non-rigorous.
    read_locks: List[Tuple[str, Any]] = field(default_factory=list)
    last_op_completed_at: float = 0.0


class LocalTxn:
    """Handle to one transaction at the local interface (LI)."""

    def __init__(self, ltm: "LocalTransactionManager", subtxn: SubtxnId) -> None:
        self._ltm = ltm
        self.subtxn = subtxn

    @property
    def state(self) -> TxnState:
        return self._ltm.state_of(self.subtxn)

    def execute(self, command: Command) -> Event:
        """Submit one DML command; the event yields a CommandResult."""
        return self._ltm._execute(self.subtxn, command)

    def commit(self) -> Event:
        """Attempt local commit; fails if the LTM already aborted us."""
        return self._ltm._commit(self.subtxn)

    def abort(self, reason: RefusalReason = RefusalReason.REQUESTED) -> None:
        """Roll the transaction back (no-op if already terminated)."""
        self._ltm._abort(self.subtxn, reason, unilateral=False)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<LocalTxn {self.subtxn} {self.state.value}>"


class LocalTransactionManager:
    """One site's transactional engine."""

    def __init__(
        self,
        site: str,
        kernel: EventKernel,
        history: History,
        config: Optional[LTMConfig] = None,
        dlu_guard: Optional[BoundDataGuard] = None,
    ) -> None:
        self.site = site
        self.kernel = kernel
        self.history = history
        self.config = config or LTMConfig()
        self.store = VersionedStore(site)
        self.locks = LockManager(kernel, default_timeout=self.config.lock_timeout)
        self.dlu_guard = dlu_guard
        self._txns: Dict[SubtxnId, _TxnRecord] = {}
        self._uan_callbacks: List[Callable[[SubtxnId], None]] = []
        self.unilateral_aborts = 0
        self.commits = 0
        self.aborts = 0
        self.deadlocks_broken = 0
        self._deadlock_timer: Optional["Timer"] = None
        if self.config.deadlock_detection_period is not None:
            from repro.kernel.events import Timer

            self._deadlock_timer = Timer(
                kernel,
                self.config.deadlock_detection_period,
                self._detect_deadlocks,
            )
            # Demand-driven: the scan only runs while requests wait, so
            # an idle system still quiesces.
            self.locks.on_wait = self._arm_deadlock_timer

    def _arm_deadlock_timer(self) -> None:
        if self._deadlock_timer is not None and not self._deadlock_timer.armed:
            self._deadlock_timer.start()

    def _detect_deadlocks(self) -> None:
        """Break one wait-for cycle per scan (deterministic victim)."""
        cycle = self.locks.find_deadlock()
        if cycle is not None:
            # Deterministic victim: the largest id in the cycle (the
            # "youngest" by our ordering).  Locals are plain aborts;
            # global subtransactions are unilateral (UAN fires).
            victim = max(cycle[:-1])
            self.deadlocks_broken += 1
            self._abort(
                victim,
                RefusalReason.DEADLOCK_VICTIM,
                unilateral=not victim.txn.is_local,
            )
        if self._deadlock_timer is not None and self.locks.has_waiters:
            self._deadlock_timer.restart()

    def stop_deadlock_detection(self) -> None:
        """Cancel the periodic scan (used at simulation teardown)."""
        if self._deadlock_timer is not None:
            self._deadlock_timer.cancel()
            self._deadlock_timer = None

    # ------------------------------------------------------------------
    # UAN subscription (the 2PC Agent registers here)
    # ------------------------------------------------------------------

    def on_unilateral_abort(self, callback: Callable[[SubtxnId], None]) -> None:
        """UAN assumption: notify about every unilateral abort."""
        self._uan_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, subtxn: SubtxnId) -> LocalTxn:
        """Start a new (sub)transaction; ids must never be reused."""
        if subtxn in self._txns:
            raise SimulationError(f"duplicate begin for {subtxn}")
        handle = LocalTxn(self, subtxn)
        self._txns[subtxn] = _TxnRecord(handle=handle)
        return handle

    def restore(self, subtxn: SubtxnId, committed: bool) -> None:
        """Re-create a subtransaction a previous process of this LDBS
        ran: committed if its local commit is in the LDBS's own log,
        otherwise it died with that process (a unilateral abort)."""
        self.begin(subtxn)
        if committed:
            self._txns[subtxn].state = TxnState.COMMITTED
        else:
            self.unilaterally_abort(subtxn)

    def state_of(self, subtxn: SubtxnId) -> TxnState:
        return self._record(subtxn).state

    def abort_reason_of(self, subtxn: SubtxnId) -> Optional[RefusalReason]:
        return self._record(subtxn).abort_reason

    def is_alive(self, subtxn: SubtxnId) -> bool:
        """Paper's aliveness: all submitted commands completely executed
        and neither locally committed nor aborted."""
        record = self._txns.get(subtxn)
        return (
            record is not None
            and record.state is TxnState.ACTIVE
            and record.executing is None
        )

    def access_set_of(self, subtxn: SubtxnId) -> List[DataItemId]:
        """The items the (sub)transaction has accessed so far."""
        return list(self._record(subtxn).access_set)

    def handle_of(self, subtxn: SubtxnId) -> LocalTxn:
        """The LI handle of a known (sub)transaction (agent recovery)."""
        return self._record(subtxn).handle

    def scanned_tables_of(self, subtxn: SubtxnId) -> List[str]:
        """Tables the (sub)transaction scanned (predicate commands)."""
        return list(self._record(subtxn).scanned_tables)

    def active_txns(self) -> List[SubtxnId]:
        return sorted(
            sub for sub, rec in self._txns.items() if rec.state is TxnState.ACTIVE
        )

    def _record(self, subtxn: SubtxnId) -> _TxnRecord:
        record = self._txns.get(subtxn)
        if record is None:
            raise SimulationError(f"unknown transaction {subtxn}")
        return record

    # ------------------------------------------------------------------
    # Unilateral abort (failure injection / internal victims)
    # ------------------------------------------------------------------

    def unilaterally_abort(self, subtxn: SubtxnId) -> bool:
        """Roll back ``subtxn`` on the LTM's own initiative.

        Returns False when the transaction already terminated (a commit
        raced the failure and won — then there is nothing to abort).
        """
        record = self._txns.get(subtxn)
        if record is None or record.state is not TxnState.ACTIVE:
            return False
        self._abort(subtxn, RefusalReason.UNILATERAL, unilateral=True)
        return True

    def crash(self) -> List[SubtxnId]:
        """Site crash: the collective unilateral abort.

        The paper treats a site crash as a unilateral abort of *every*
        transaction the LDBS was running ("without making difference
        between single and collective abort (i.e. site crash)"): the
        recovery manager restores all before-images, every lock is
        released, and the UAN callbacks fire per victim.  The committed
        state survives (durability is the LDBS's own business).

        Returns the aborted subtransactions, in deterministic order.
        """
        victims = self.active_txns()
        for subtxn in victims:
            self.unilaterally_abort(subtxn)
        return victims

    def _abort(
        self, subtxn: SubtxnId, reason: RefusalReason, unilateral: bool
    ) -> None:
        record = self._txns.get(subtxn)
        if record is None or record.state is not TxnState.ACTIVE:
            return
        record.state = TxnState.ABORTED
        record.abort_reason = reason
        record.aborted_unilaterally = unilateral
        if record.executing is not None:
            record.executing.interrupt(TransactionAborted(reason, str(subtxn)))
            record.executing = None
        self.store.undo(subtxn)  # RR: restore before-images
        self.locks.release_all(subtxn)
        self.history.record_local_abort(
            self.kernel.now, subtxn, self.site, unilateral=unilateral, reason=reason
        )
        self.aborts += 1
        if unilateral:
            self.unilateral_aborts += 1
            for callback in self._uan_callbacks:
                callback(subtxn)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self, subtxn: SubtxnId) -> Event:
        event = Event(self.kernel, name=f"commit:{subtxn}")
        record = self._txns.get(subtxn)
        if record is None:
            event.fail(SimulationError(f"unknown transaction {subtxn}"))
            return event
        if record.state is TxnState.ABORTED:
            # The LDBS "refuses to execute a COMMIT": the transaction is
            # already gone (this is the hole 2PC + resubmission plugs).
            event.fail(
                TransactionAborted(
                    record.abort_reason or RefusalReason.UNILATERAL, str(subtxn)
                )
            )
            return event
        if record.state is TxnState.COMMITTED:
            event.succeed(None)  # idempotent
            return event
        if record.executing is not None:
            event.fail(
                SimulationError(f"commit of {subtxn} while a command is executing")
            )
            return event
        record.state = TxnState.COMMITTED
        self.store.commit(subtxn)
        self.locks.release_all(subtxn)
        self.history.record_local_commit(self.kernel.now, subtxn, self.site)
        self.commits += 1
        event.succeed(None)
        return event

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    def _execute(self, subtxn: SubtxnId, command: Command) -> Event:
        validate_command(command)
        event = Event(self.kernel, name=f"exec:{subtxn}:{command}")
        record = self._txns.get(subtxn)
        if record is None:
            event.fail(SimulationError(f"unknown transaction {subtxn}"))
            return event
        if record.state is not TxnState.ACTIVE:
            event.fail(
                TransactionAborted(
                    record.abort_reason or RefusalReason.REQUESTED, str(subtxn)
                )
            )
            return event
        if record.executing is not None:
            event.fail(
                SimulationError(
                    f"{subtxn} submitted a command while one is executing"
                )
            )
            return event

        process = Process(
            self.kernel,
            self._command_body(record, subtxn, command),
            name=f"cmd:{subtxn}",
        )
        record.executing = process

        def finish(completion) -> None:
            if record.executing is process:
                record.executing = None
                record.last_op_completed_at = self.kernel.now
            if completion.error is None:
                record.commands_done += 1
                if not self.config.rigorous:
                    self._release_read_locks(record, subtxn)
                event.succeed(completion._value)
            else:
                error = completion.error
                if isinstance(error, TransactionAborted):
                    # Ensure the transaction is rolled back; a lock
                    # timeout surfaces here before any abort happened.
                    if record.state is TxnState.ACTIVE:
                        unilateral = not subtxn.txn.is_local
                        self._abort(subtxn, error.reason, unilateral=unilateral)
                event.fail(error)

        process.completion.subscribe(finish)
        return event

    def _release_read_locks(self, record: _TxnRecord, subtxn: SubtxnId) -> None:
        """Non-rigorous variant: drop S/IS locks after each command."""
        for resource in record.read_locks:
            held = self.locks.held_by(subtxn).get(resource)
            if held in (LockMode.S, LockMode.IS):
                self.locks.release(subtxn, resource)
        record.read_locks.clear()

    def _command_body(self, record: _TxnRecord, subtxn: SubtxnId, command: Command):
        """Generator realizing one command at the elementary interface.

        The locking plan:

        ===============  ==================  =======================
        Command class    Table lock          Row locks
        ===============  ==================  =======================
        point read       IS                  S on the row
        scan read        S                   (covered by S table)
        point write      IX                  X on the row
        scan write       SIX                 X on written rows
        ===============  ==================  =======================
        """
        table_resource = ("table", command.table)
        if command.is_scan() and command.is_update():
            table_mode = LockMode.SIX
        elif command.is_scan():
            table_mode = LockMode.S
        elif command.is_update():
            table_mode = LockMode.IX
        else:
            table_mode = LockMode.IS
        yield self.locks.acquire(subtxn, table_resource, table_mode)
        if table_mode in (LockMode.IS, LockMode.S):
            record.read_locks.append(table_resource)
        if command.is_scan() and command.table not in record.scanned_tables:
            record.scanned_tables.append(command.table)

        result = yield from self._run_decomposition(record, subtxn, command)
        return result

    def _run_decomposition(self, record: _TxnRecord, subtxn: SubtxnId, command):
        """Execute the elementary operations of ``command`` step by step.

        The decomposition is *interleaved* with execution (rather than
        precomputed) but is equivalent to ``decompose(command, S)`` with
        ``S`` the state at command start: the held table lock prevents
        any concurrent change that could perturb the scan set or match
        decisions for this table.
        """
        table = command.table
        rows: List[Tuple[Any, Any]] = []
        affected = 0

        if isinstance(command, cmd.ReadItem):
            item = DataItemId(table, command.key)
            yield self.locks.acquire(subtxn, ("row", item), LockMode.S)
            record.read_locks.append(("row", item))
            existed, value, _writer = yield from self._elem_read(record, subtxn, item)
            if existed:
                rows.append((command.key, value))

        elif isinstance(command, (cmd.ScanTable, cmd.SelectWhere)):
            predicate = getattr(command, "pred", None)
            for item in self.store.scan(table):
                existed, value, _writer = yield from self._elem_read(
                    record, subtxn, item
                )
                if not existed:
                    continue
                if predicate is None or predicate.matches(item.key, value):
                    rows.append((item.key, value))

        elif isinstance(command, cmd.InsertItem):
            item = DataItemId(table, command.key)
            yield self.locks.acquire(subtxn, ("row", item), LockMode.X)
            yield from self._elem_write(record, subtxn, item, command.value)
            affected = 1

        elif isinstance(command, cmd.UpdateItem):
            item = DataItemId(table, command.key)
            yield self.locks.acquire(subtxn, ("row", item), LockMode.X)
            existed, value, _writer = yield from self._elem_read(record, subtxn, item)
            if existed:
                yield from self._elem_write(
                    record, subtxn, item, command.op.apply(value)
                )
                affected = 1

        elif isinstance(command, cmd.UpdateWhere):
            for item in self.store.scan(table):
                existed, value, _writer = yield from self._elem_read(
                    record, subtxn, item
                )
                if existed and command.pred.matches(item.key, value):
                    yield self.locks.acquire(subtxn, ("row", item), LockMode.X)
                    yield from self._elem_write(
                        record, subtxn, item, command.op.apply(value)
                    )
                    affected += 1

        elif isinstance(command, cmd.DeleteItem):
            item = DataItemId(table, command.key)
            yield self.locks.acquire(subtxn, ("row", item), LockMode.X)
            existed, _value, _writer = yield from self._elem_read(record, subtxn, item)
            if existed:
                yield from self._elem_delete(record, subtxn, item)
                affected = 1

        elif isinstance(command, cmd.DeleteWhere):
            for item in self.store.scan(table):
                existed, value, _writer = yield from self._elem_read(
                    record, subtxn, item
                )
                if existed and command.pred.matches(item.key, value):
                    yield self.locks.acquire(subtxn, ("row", item), LockMode.X)
                    yield from self._elem_delete(record, subtxn, item)
                    affected += 1

        else:
            raise SimulationError(f"unknown command type {command!r}")

        return CommandResult(rows=tuple(rows), affected=affected)

    # -- elementary operations ------------------------------------------------

    def _elem_read(self, record: _TxnRecord, subtxn: SubtxnId, item: DataItemId):
        existed, value, writer = self.store.read(item)
        self.history.record_read(
            self.kernel.now, subtxn, self.site, item, read_from=writer, value=value
        )
        self._touch(record, item)
        yield Sleep(self.config.op_duration)
        return existed, value, writer

    def _elem_write(
        self, record: _TxnRecord, subtxn: SubtxnId, item: DataItemId, value
    ):
        yield from self._dlu_gate(subtxn, item)
        self.store.write(subtxn, item, value)
        self.history.record_write(
            self.kernel.now, subtxn, self.site, item, value=value
        )
        self._touch(record, item)
        yield Sleep(self.config.op_duration)

    def _elem_delete(self, record: _TxnRecord, subtxn: SubtxnId, item: DataItemId):
        yield from self._dlu_gate(subtxn, item)
        self.store.delete(subtxn, item)
        self.history.record_write(self.kernel.now, subtxn, self.site, item)
        self._touch(record, item)
        yield Sleep(self.config.op_duration)

    def _dlu_gate(self, subtxn: SubtxnId, item: DataItemId):
        """DLU check: local writers must be authorized for bound items."""
        if self.dlu_guard is not None and subtxn.txn.is_local:
            yield self.dlu_guard.authorize_local_update(item)

    def _touch(self, record: _TxnRecord, item: DataItemId) -> None:
        if item not in record.access_set:
            record.access_set.append(item)
