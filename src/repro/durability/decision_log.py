"""``DurableDecisionLog``: the coordinator's commit/abort record.

In 2PC the coordinator's decision is *the* ground truth: once the
DECISION record is forced, the transaction's fate is sealed no matter
which participants crash.  This log persists exactly that — one forced
DECISION record per transaction (with the serial number and the
participant set, so a successor coordinator can finish delivery), and
one unforced END record once every participant acknowledged, which
makes the entry compactable.

``in_doubt()`` after a reopen lists decisions without an END — the
transactions a recovering (or adopting) coordinator must re-drive to
completion via :meth:`Coordinator.resume_in_doubt
<repro.core.coordinator.Coordinator.resume_in_doubt>`.

``sn_high_water`` is the largest SN any DECISION record ever carried,
kept across checkpoints.  A restarted coordinator floors its site clock
strictly above it, so its SNs never fall behind a commit its previous
incarnation already sealed at some certifier.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import SerialNumber, TxnId
from repro.durability.config import DurabilityConfig
from repro.durability.records import RecordKind, WalRecord
from repro.durability.segments import SyncPolicy
from repro.durability.wal import WriteAheadLog


def coordinator_wal_directory(root: str, name: str) -> str:
    return os.path.join(root, f"coord-{name}")


@dataclass(frozen=True)
class Decision:
    """One sealed transaction outcome."""

    txn: TxnId
    committed: bool
    sn: Optional[SerialNumber]
    #: Participant sites the decision must reach.
    sites: Tuple[str, ...]


class DurableDecisionLog:
    """Coordinator-side decision log backed by a :class:`WriteAheadLog`."""

    def __init__(self, name: str, wal: WriteAheadLog) -> None:
        self.name = name
        self.wal = wal
        self._decisions: Dict[TxnId, Decision] = {}
        self._ended: Dict[TxnId, Decision] = {}
        self.force_writes = 0
        self._ends_since_checkpoint = 0
        self._compact_min = 64
        #: Largest SN of any decision ever logged (``None``: none yet).
        self.sn_high_water: Optional[SerialNumber] = None

    @classmethod
    def open_name(cls, name: str, config: DurabilityConfig) -> "DurableDecisionLog":
        wal = WriteAheadLog(
            coordinator_wal_directory(config.root, name),
            sync_policy=SyncPolicy.of(config.sync, config.batch_size),
            segment_bytes=config.segment_bytes,
            disk_faults=config.disk_faults,
        )
        log = cls(name, wal)
        log._compact_min = config.compact_min_discards
        log._replay(wal.recovery.records)
        return log

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------

    def log_decision(self, decision: Decision) -> None:
        """Force-write the outcome; after this returns, it is sealed."""
        self._decisions[decision.txn] = decision
        self._note_sn(decision.sn)
        self.wal.append(
            RecordKind.DECISION,
            {
                "txn": decision.txn,
                "committed": decision.committed,
                "sn": decision.sn,
                "sites": list(decision.sites),
            },
            force=True,
        )
        self.force_writes += 1

    def log_end(self, txn: TxnId) -> None:
        """Record that every participant acknowledged the decision."""
        decision = self._decisions.pop(txn, None)
        if decision is None:
            return
        self._ended[txn] = decision
        self.wal.append(RecordKind.END, {"txn": txn})
        self._ends_since_checkpoint += 1
        if self._ends_since_checkpoint >= self._compact_min:
            self.checkpoint()

    def _note_sn(self, sn: Optional[SerialNumber]) -> None:
        if sn is not None and (
            self.sn_high_water is None or sn > self.sn_high_water
        ):
            self.sn_high_water = sn

    def close(self) -> None:
        self.wal.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def decision(self, txn: TxnId) -> Optional[Decision]:
        return self._decisions.get(txn) or self._ended.get(txn)

    def in_doubt(self) -> List[Decision]:
        """Decisions whose delivery was never confirmed complete."""
        return [self._decisions[txn] for txn in sorted(self._decisions)]

    def decisions(self) -> List[Decision]:
        """Every known decision (ended or not), in txn order."""
        merged = {**self._ended, **self._decisions}
        return [merged[txn] for txn in sorted(merged)]

    # ------------------------------------------------------------------
    # Replay + checkpointing
    # ------------------------------------------------------------------

    def _replay(self, records: List[WalRecord]) -> None:
        # Retired record kinds and unknown checkpoint keys fall through:
        # old logs replay to exactly their decisions.
        for record in records:
            body = record.body
            if record.kind is RecordKind.CHECKPOINT:
                self._decisions.clear()
                self._ended.clear()
                for entry in body.get("decisions", ()):
                    decision = _decision_from_body(entry)
                    if entry.get("ended"):
                        self._ended[decision.txn] = decision
                    else:
                        self._decisions[decision.txn] = decision
                    self._note_sn(decision.sn)
                self._note_sn(body.get("sn_high_water"))
            elif record.kind is RecordKind.DECISION:
                decision = _decision_from_body(body)
                self._decisions[decision.txn] = decision
                self._note_sn(decision.sn)
            elif record.kind is RecordKind.END:
                decision = self._decisions.pop(body["txn"], None)
                if decision is not None:
                    self._ended[body["txn"]] = decision

    def _snapshot(self) -> Dict[str, Any]:
        # Ended decisions are dropped from the checkpoint entirely —
        # that is the compaction: only in-doubt outcomes must survive.
        return {
            "name": self.name,
            "decisions": [
                {
                    "txn": d.txn,
                    "committed": d.committed,
                    "sn": d.sn,
                    "sites": list(d.sites),
                    "ended": False,
                }
                for d in self.in_doubt()
            ],
            "sn_high_water": self.sn_high_water,
        }

    def checkpoint(self) -> None:
        self.wal.checkpoint(self._snapshot())
        self._ended.clear()
        self._ends_since_checkpoint = 0


def _decision_from_body(body: Dict[str, Any]) -> Decision:
    return Decision(
        txn=body["txn"],
        committed=body["committed"],
        sn=body.get("sn"),
        sites=tuple(body.get("sites", ())),
    )
