"""The WAL record codec: checksummed, length-prefixed, versioned.

On-disk layout of one record::

    +----------+----------+---------------------------+
    | length   | crc32    | payload (length bytes)    |
    | u32 LE   | u32 LE   |                           |
    +----------+----------+---------------------------+

    payload = version (u8) | kind (u8) | body (pickle)

* ``length`` covers the payload only, never the 8-byte frame header.
* ``crc32`` (zlib) is computed over the payload, so a bit flip in
  either the version, the kind or the body is detected.
* ``version`` is the *record-format* version; a reader rejects records
  from the future instead of misparsing them.
* ``body`` is a plain dict of small immutable values (transaction ids,
  serial numbers, DML commands) — exactly the objects the in-memory
  Agent log stores, which the command module guarantees are closure-free
  and picklable (the RTT assumption).

Decoding never trusts the frame: a record that runs past the end of the
buffer is a *torn tail* (:class:`TornRecord`), a record whose checksum
or structure is wrong is :class:`CorruptRecord`.  The recovery scanner
maps both onto "truncate here".
"""

from __future__ import annotations

import enum
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.common.errors import ReproError

#: Format version stamped into every record payload.
RECORD_VERSION = 1

#: Frame header: payload length + payload crc32, little endian.
_FRAME = struct.Struct("<II")
FRAME_SIZE = _FRAME.size

#: Payload prologue: record version + record kind.
_PROLOGUE = struct.Struct("<BB")

#: Hard ceiling on a single record's payload — a corrupted length field
#: must never make the scanner try to allocate gigabytes.
MAX_RECORD_BYTES = 16 * 1024 * 1024


class WalError(ReproError):
    """Base class of durability-layer failures."""


class TornRecord(WalError):
    """The buffer ended mid-record (a torn tail write)."""


class CorruptRecord(WalError):
    """A record failed its CRC or structural checks."""


class RecordKind(enum.IntEnum):
    """What one WAL record describes.

    Agent-log kinds mirror the in-memory
    :class:`~repro.core.agent_log.AgentLog` transitions; DECISION and
    END serve the Coordinator's decision log.  Values are part of the
    on-disk format — never renumber, only append.  Retired kinds stay
    decodable (an unknown kind reads as corruption and would truncate
    the log there) and are never reused; replay skips them.
    """

    OPEN = 1          #: agent log entry opened (txn, coordinator)
    COMMAND = 2       #: one DML command appended to the replay sequence
    PREPARE = 3       #: the force-written prepare record (READY promise)
    COMMIT = 4        #: the force-written commit record
    RESUBMIT = 5      #: one more incarnation was started
    MAX_SN = 6        #: the max-committed-SN register advanced
    DISCARD = 7       #: the entry reached a final state and was dropped
    CHECKPOINT = 8    #: full live-state snapshot (compaction boundary)
    DECISION = 9      #: coordinator decision record (commit/abort)
    END = 10          #: coordinator finished a decided transaction
    RETIRED_LEASE = 11        #: retired: a granted SN range ([lo, hi) + owner)
    RETIRED_SHARD_EPOCH = 12  #: retired: a key-range ownership change (epoch + owner)


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    kind: RecordKind
    body: Dict[str, Any]

    def describe(self) -> str:
        """One-line human rendering (the ``wal inspect`` CLI)."""
        txn = self.body.get("txn")
        parts = [self.kind.name.lower()]
        if txn is not None:
            parts.append(str(txn))
        for key in ("coordinator", "sn", "committed", "sites"):
            if key in self.body and self.body[key] is not None:
                parts.append(f"{key}={self.body[key]}")
        if self.kind is RecordKind.COMMAND:
            parts.append(repr(self.body.get("command")))
        if self.kind is RecordKind.CHECKPOINT:
            parts.append(f"entries={len(self.body.get('entries', ()))}")
        return " ".join(parts)


def encode_record(record: WalRecord) -> bytes:
    """Serialize ``record`` into one framed, checksummed blob."""
    body = pickle.dumps(record.body, protocol=pickle.HIGHEST_PROTOCOL)
    payload = _PROLOGUE.pack(RECORD_VERSION, int(record.kind)) + body
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(
            f"record too large: {len(payload)} bytes (kind={record.kind.name})"
        )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(buffer: bytes, offset: int = 0) -> Tuple[WalRecord, int]:
    """Decode the record at ``offset``; returns ``(record, next_offset)``.

    Raises :class:`TornRecord` when the buffer ends mid-record and
    :class:`CorruptRecord` on any checksum/structure failure.  The
    caller (the recovery scanner) turns either into a truncation point.
    """
    end = len(buffer)
    if offset + FRAME_SIZE > end:
        raise TornRecord(f"frame header torn at offset {offset}")
    length, crc = _FRAME.unpack_from(buffer, offset)
    if length < _PROLOGUE.size or length > MAX_RECORD_BYTES:
        raise CorruptRecord(f"implausible record length {length} at {offset}")
    start = offset + FRAME_SIZE
    if start + length > end:
        raise TornRecord(f"payload torn at offset {offset} (need {length} bytes)")
    payload = buffer[start : start + length]
    if zlib.crc32(payload) != crc:
        raise CorruptRecord(f"CRC mismatch at offset {offset}")
    version, kind_value = _PROLOGUE.unpack_from(payload, 0)
    if version > RECORD_VERSION:
        raise CorruptRecord(
            f"record version {version} from the future at offset {offset}"
        )
    try:
        kind = RecordKind(kind_value)
    except ValueError as exc:
        raise CorruptRecord(f"unknown record kind {kind_value} at {offset}") from exc
    try:
        body = pickle.loads(payload[_PROLOGUE.size :])
    except Exception as exc:  # pickle raises a zoo of types
        raise CorruptRecord(f"undecodable body at offset {offset}: {exc}") from exc
    if not isinstance(body, dict):
        raise CorruptRecord(f"record body is not a dict at offset {offset}")
    return WalRecord(kind=kind, body=body), start + length
