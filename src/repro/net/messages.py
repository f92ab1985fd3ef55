"""The 2PC message vocabulary of the paper's Sec. 2.

Coordinator → Participant: BEGIN, COMMAND (DML submission), PREPARE,
COMMIT, ROLLBACK.  Participant → Coordinator: COMMAND_RESULT, READY,
REFUSE, COMMIT_ACK, ROLLBACK_ACK.

The COMMAND/COMMAND_RESULT pair is how the coordinator "submits [global
subtransactions], command by command, to the Participating Sites"; the
rest is the standard two-phase-commit exchange.

Three transport-level kinds exist below the paper's protocol: ACK is
the session layer's cumulative acknowledgement (never delivered to the
protocol endpoints), PING/PONG are the failure detector's heartbeat
pair.  They carry no transaction.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.common.errors import RefusalReason
from repro.common.ids import SerialNumber, TxnId


class MsgType(enum.Enum):
    """Message kinds exchanged between Coordinators and 2PC Agents."""

    BEGIN = "BEGIN"
    COMMAND = "COMMAND"
    COMMAND_RESULT = "COMMAND_RESULT"
    PREPARE = "PREPARE"
    READY = "READY"
    REFUSE = "REFUSE"
    COMMIT = "COMMIT"
    COMMIT_ACK = "COMMIT-ACK"
    ROLLBACK = "ROLLBACK"
    ROLLBACK_ACK = "ROLLBACK-ACK"
    #: Participant → Coordinator escalation: the agent's resubmission
    #: budget for a prepared subtransaction is exhausted.  Advisory —
    #: the coordinator honours it only while the global decision is
    #: still open (a READY vote cannot be revoked unilaterally).
    GIVEUP = "GIVEUP"
    #: Participant → Coordinator status inquiry: a prepared
    #: subtransaction's decision is overdue (coordinator may have
    #: crashed before deciding).  The coordinator answers with the
    #: logged decision, or ROLLBACK when it has none — presumed abort
    #: is safe because a DECISION record is always forced before the
    #: first COMMIT leaves the coordinator.
    INQUIRE = "INQUIRE"
    #: Session-layer cumulative acknowledgement (transport-internal).
    ACK = "ACK"
    #: Failure-detector heartbeat probe / reply (transport-internal).
    PING = "PING"
    PONG = "PONG"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_msg_seq = itertools.count()


@dataclass
class Message:
    """One message in flight.

    ``payload`` carries the DML command (COMMAND), the command's result
    or error (COMMAND_RESULT), or arbitrary method-specific extras.
    ``sn`` rides on PREPARE messages — the paper transmits the serial
    number "with the PREPARE messages to each participating site".
    ``reason`` explains a REFUSE.  ``seq`` is a globally unique send
    sequence used only for deterministic tie-breaking and tracing.
    ``txn`` is ``None`` for the transport-internal kinds (ACK, PING,
    PONG), which exist below the transaction protocol.

    ``session`` is the reliable-channel envelope: ``(epoch, seq)``
    stamped by the session layer on tracked sends, ``None`` on messages
    from unreliable peers and on transport-internal kinds.

    ``deadline`` is the absolute simulated time after which the
    transaction's outcome no longer matters to its submitter.  It rides
    on BEGIN/COMMAND/PREPARE when the overload layer is on, so agents
    can abort expired work instead of preparing it; ``None`` (the
    default, and always when the overload layer is off) means no bound.
    """

    type: MsgType
    src: str
    dst: str
    txn: Optional[TxnId]
    payload: Any = None
    sn: Optional[SerialNumber] = None
    reason: Optional[RefusalReason] = None
    seq: int = field(default_factory=lambda: next(_msg_seq))
    session: Optional[Tuple[int, int]] = None
    deadline: Optional[float] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        extra = ""
        if self.sn is not None:
            extra += f" {self.sn}"
        if self.reason is not None:
            extra += f" ({self.reason})"
        return f"{self.type} {self.txn} {self.src}->{self.dst}{extra}"
