"""Exception hierarchy for the reproduction.

Exceptions are used for *local* control flow (e.g. a lock timeout aborts
the waiting subtransaction); protocol-level refusals travel as 2PC
messages, but carry a :class:`RefusalReason` so benchmarks can break
abort counts down by cause.
"""

from __future__ import annotations

import enum
from typing import Optional


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event kernel detected an internal inconsistency."""


class HistoryError(ReproError):
    """A recorded history is malformed or a checker precondition fails."""


class RefusalReason(enum.Enum):
    """Why a certifier refused (or an LTM aborted) a subtransaction.

    The first three correspond to the three abort sources in the paper's
    Appendix algorithms; the rest come from the substrate.
    """

    #: Basic prepare certification: empty alive-interval intersection.
    ALIVE_INTERSECTION = "alive-intersection"
    #: Extended prepare certification: an "older" (bigger-SN) subtxn has
    #: already committed locally (PREPARE out of order, Sec. 5.3).
    PREPARE_OUT_OF_ORDER = "prepare-out-of-order"
    #: The subtransaction was found unilaterally aborted during the
    #: prepare certification's alive check.
    NOT_ALIVE = "not-alive"
    #: Lock wait exceeded the deadlock timeout.
    LOCK_TIMEOUT = "lock-timeout"
    #: A local wait-for-graph deadlock detector chose this victim.
    DEADLOCK_VICTIM = "deadlock-victim"
    #: The LTM unilaterally aborted the transaction (failure injection).
    UNILATERAL = "unilateral-abort"
    #: The DLU guard rejected a local update to bound data.
    DLU = "dlu-violation"
    #: The CGM baseline refused to commit because the commit graph would
    #: become cyclic.
    COMMIT_GRAPH_CYCLE = "commit-graph-cycle"
    #: The CGM baseline's data partition was violated (a global touched
    #: the locally-updatable set the wrong way, or a local updated the
    #: globally-updatable set).
    PARTITION = "partition-violation"
    #: The ticket baseline observed an out-of-order local serialization.
    TICKET_ORDER = "ticket-order"
    #: The application or coordinator requested the abort.
    REQUESTED = "requested"
    #: The coordinator gave up on a site that stopped answering (crash
    #: injection / vote or result timeout), or an agent refused because
    #: a restart wiped the transaction's volatile state.
    SITE_UNREACHABLE = "site-unreachable"
    #: The failure detector suspects the site; the coordinator refuses
    #: new global transactions touching it instead of letting them hang
    #: (graceful degradation — lifted when the site is heard from again).
    SITE_QUARANTINED = "site-quarantined"
    #: Admission control shed the transaction at BEGIN: the coordinator's
    #: in-flight-globals budget was full (overload survival — refuse
    #: early instead of queueing unboundedly).
    OVERLOADED = "overloaded"
    #: The transaction's deadline passed before it could be prepared or
    #: committed; expired work is aborted, never prepared.
    DEADLINE_EXPIRED = "deadline-expired"
    #: A prepared subtransaction exhausted its resubmission budget and
    #: the agent escalated (GIVEUP) to a coordinator-driven global abort.
    RESUBMIT_BUDGET = "resubmit-budget"
    #: The per-site circuit breaker is open: the site's recent error
    #: rate crossed the threshold and new work is refused until a
    #: half-open probe succeeds.
    SITE_BREAKER_OPEN = "site-breaker-open"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AgentCrashed(ReproError):
    """A crash probe fired: the 2PC Agent died mid-handler.

    Raised to unwind the in-flight message handler exactly where the
    crash was injected — everything the handler would have done after
    the kill point never happens, like a real process death.  Caught at
    the agent's event-loop boundaries, never propagated to the kernel.
    """

    def __init__(self, site: str, point: str, txn: object = None) -> None:
        self.site = site
        self.point = point
        self.txn = txn
        super().__init__(f"agent {site} crashed at {point} ({txn})")


class TransactionAborted(ReproError):
    """A (sub)transaction was aborted; carries the cause."""

    def __init__(self, reason: RefusalReason, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        message = str(reason) if not detail else f"{reason}: {detail}"
        super().__init__(message)


class LockTimeout(TransactionAborted):
    """A lock request waited longer than the deadlock timeout."""

    def __init__(self, detail: str = "") -> None:
        super().__init__(RefusalReason.LOCK_TIMEOUT, detail)


class DLUViolation(TransactionAborted):
    """A local transaction attempted to update bound data (DLU)."""

    def __init__(self, detail: str = "") -> None:
        super().__init__(RefusalReason.DLU, detail)


class CertificationRefused(TransactionAborted):
    """A certifier refused to move/keep a subtransaction forward."""

    def __init__(self, reason: RefusalReason, detail: str = "") -> None:
        super().__init__(reason, detail)


def reason_of(exc: Optional[BaseException]) -> Optional[RefusalReason]:
    """Extract the :class:`RefusalReason` from an exception, if any."""
    if isinstance(exc, TransactionAborted):
        return exc.reason
    return None
