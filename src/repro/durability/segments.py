"""Append-only segment files and the fsync policy.

A WAL directory holds numbered segments::

    wal-00000001.seg
    wal-00000002.seg
    ...

Each segment starts with a 12-byte header (magic + format version);
records follow back to back in the codec's frame format.  Segment
numbers only ever grow — compaction writes a *new* segment and deletes
the old ones, so the active tail is always the highest number.

:class:`SyncPolicy` decouples "the record is in the OS page cache"
(every append is ``flush()``-ed, so an in-process crash — the failure
the simulator can actually inject — never loses an acknowledged
record) from "the record is on the platter" (``fsync``), which is the
expensive call real systems batch:

* ``always`` — fsync on every force point (textbook 2PC participant);
* ``batched(n)`` — group commit: force points accumulate and one fsync
  covers up to ``n`` of them (or an explicit ``sync()``);
* ``simulated`` — never fsync, only count; for benchmarks where the
  physical write cost is modelled, not paid.
"""

from __future__ import annotations

import contextlib
import errno
import os
import random
import struct
from dataclasses import dataclass
from typing import IO, Dict, Iterator, List, Optional, Tuple

from repro.durability.records import CorruptRecord, WalError, encode_record

SEGMENT_MAGIC = b"REPROWAL"
#: Format version of the segment container (header + frame layout).
SEGMENT_VERSION = 1
_HEADER = struct.Struct("<8sHH")  # magic, version, reserved
SEGMENT_HEADER_SIZE = _HEADER.size

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def segment_name(index: int) -> str:
    """``wal-00000042.seg`` — zero padded so lexical order = log order."""
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def segment_index(name: str) -> Optional[int]:
    """Inverse of :func:`segment_name`; ``None`` for foreign files."""
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(index, path)`` of every segment in ``directory``, in log order."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        index = segment_index(name)
        if index is not None:
            found.append((index, os.path.join(directory, name)))
    found.sort()
    return found


def encode_segment_header() -> bytes:
    return _HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, 0)


def check_segment_header(buffer: bytes, path: str = "") -> None:
    """Validate a segment's 12-byte header; raises :class:`CorruptRecord`."""
    if len(buffer) < SEGMENT_HEADER_SIZE:
        raise CorruptRecord(f"segment {path!r} shorter than its header")
    magic, version, _reserved = _HEADER.unpack_from(buffer, 0)
    if magic != SEGMENT_MAGIC:
        raise CorruptRecord(f"segment {path!r} has bad magic {magic!r}")
    if version > SEGMENT_VERSION:
        raise CorruptRecord(
            f"segment {path!r} has version {version} from the future"
        )


@dataclass(frozen=True)
class SyncPolicy:
    """When force points turn into physical ``fsync`` calls.

    ``batch_size`` is the group-commit window: 1 = sync every force
    point, N>1 = one fsync per N force points, 0 = never (simulated).
    """

    name: str
    batch_size: int

    @staticmethod
    def always() -> "SyncPolicy":
        return SyncPolicy("always", 1)

    @staticmethod
    def batched(batch_size: int = 8) -> "SyncPolicy":
        if batch_size < 1:
            raise WalError(f"batch_size must be >= 1, got {batch_size}")
        return SyncPolicy("batched", batch_size)

    @staticmethod
    def simulated() -> "SyncPolicy":
        return SyncPolicy("simulated", 0)

    @staticmethod
    def of(name: str, batch_size: int = 8) -> "SyncPolicy":
        """Resolve a config string (``always``/``batched``/``simulated``)."""
        if name == "always":
            return SyncPolicy.always()
        if name == "batched":
            return SyncPolicy.batched(batch_size)
        if name == "simulated":
            return SyncPolicy.simulated()
        raise WalError(f"unknown sync policy {name!r}")


class DiskFault(OSError):
    """An injected disk failure (fsync EIO, short write, torn tail).

    Subclasses ``OSError`` because that is exactly what the real
    syscall would raise; carries ``errno.EIO`` so callers that branch
    on errno behave as they would against failing hardware.
    """

    def __init__(self, message: str) -> None:
        super().__init__(errno.EIO, message)


class FileOps:
    """The file syscalls a :class:`SegmentWriter` performs.

    Pluggable so chaos drills can interpose
    :class:`FaultingFileOps`; the default is a transparent passthrough.
    One instance is shared by every writer of a WAL (counters and
    one-shot fault indices span segment rotations).
    """

    def write(self, file, data: bytes) -> None:
        file.write(data)
        file.flush()

    def fsync(self, file) -> None:
        os.fsync(file.fileno())

    def stats(self) -> Dict[str, int]:
        return {}


class FaultingFileOps(FileOps):
    """Seeded fault injection over :class:`FileOps`.

    Built from a
    :class:`~repro.durability.config.DiskFaultConfig`: deterministic
    one-shot faults by call index plus seeded steady-state rates.  A
    short/torn write persists a *prefix* of the record (write + flush)
    before raising, so the damage is a genuine torn tail on disk — the
    recovery scanner must truncate it, not this code.

    ``marker_path`` (when set) implements fire-at-most-once across
    process incarnations: the marker file is created the instant a
    one-shot fault fires, and a fresh instance that finds it disables
    its one-shot faults (rates stay live).
    """

    def __init__(self, config, marker_path: Optional[str] = None) -> None:
        self.config = config
        self.marker_path = marker_path
        self._rng = random.Random(config.seed ^ 0xD15C)
        self.writes = 0
        self.fsyncs = 0
        self.torn_writes = 0
        self.fsync_failures = 0
        self._one_shots_armed = not (
            config.once
            and marker_path is not None
            and os.path.exists(marker_path)
        )

    @property
    def fired(self) -> bool:
        """Did a one-shot fault fire — now or in a past incarnation?"""
        if self.torn_writes or self.fsync_failures:
            return True
        return self.marker_path is not None and os.path.exists(self.marker_path)

    def _mark_fired(self) -> None:
        if self.config.once and self.marker_path is not None:
            with open(self.marker_path, "w") as fh:
                fh.write("fired\n")

    def write(self, file, data: bytes) -> None:
        self.writes += 1
        tear = (
            self._one_shots_armed
            and self.config.torn_append_at
            and self.writes == self.config.torn_append_at
        )
        if not tear and self.config.short_write_rate:
            tear = self._rng.random() < self.config.short_write_rate
        if tear:
            keep = max(1, len(data) // 2)
            file.write(data[:keep])
            file.flush()
            self.torn_writes += 1
            self._mark_fired()
            raise DiskFault(
                f"injected short write ({keep}/{len(data)} bytes) on "
                f"append #{self.writes}"
            )
        file.write(data)
        file.flush()

    def fsync(self, file) -> None:
        self.fsyncs += 1
        fail = (
            self._one_shots_armed
            and self.config.fail_fsync_at
            and self.fsyncs == self.config.fail_fsync_at
        )
        if not fail and self.config.fsync_eio_rate:
            fail = self._rng.random() < self.config.fsync_eio_rate
        if fail:
            self.fsync_failures += 1
            self._mark_fired()
            raise DiskFault(f"injected fsync EIO on fsync #{self.fsyncs}")
        os.fsync(file.fileno())

    def stats(self) -> Dict[str, int]:
        return {
            "writes": self.writes,
            "fsyncs": self.fsyncs,
            "torn_writes": self.torn_writes,
            "fsync_failures": self.fsync_failures,
            "fired": self.fired,
        }


class SegmentWriter:
    """Appends framed records to one segment file.

    The writer always ``flush()``-es the Python buffer after an append
    (process-crash durability); ``maybe_sync``/``sync`` handle the
    fsync side per :class:`SyncPolicy`.  All physical writes/fsyncs go
    through ``file_ops`` so fault injection can interpose.
    """

    def __init__(
        self,
        path: str,
        policy: SyncPolicy,
        fresh: bool,
        file_ops: Optional[FileOps] = None,
    ) -> None:
        self.path = path
        self.policy = policy
        self.file_ops = file_ops if file_ops is not None else FileOps()
        self._pending_forces = 0
        self.fsyncs = 0
        self.appends = 0
        if fresh:
            self._file = open(path, "wb")
            self._file.write(encode_segment_header())
            self._file.flush()
            self.size = SEGMENT_HEADER_SIZE
        else:
            self._file = open(path, "ab")
            self.size = self._file.tell()

    def append(self, blob: bytes) -> None:
        try:
            self.file_ops.write(self._file, blob)
        except OSError:
            # A short write may have persisted a prefix: account for
            # what we know reached the file object, then re-raise —
            # the owner fail-stops and recovery truncates the tear.
            self.size = self._file.tell()
            raise
        self.size += len(blob)
        self.appends += 1

    def force(self) -> bool:
        """Register one force point; fsync if the policy says so now."""
        if self.policy.batch_size == 0:
            return False
        self._pending_forces += 1
        if self._pending_forces >= self.policy.batch_size:
            return self.sync()
        return False

    def sync(self) -> bool:
        """Drain the group-commit window with one physical fsync."""
        if self.policy.batch_size == 0:
            self._pending_forces = 0
            return False
        self._file.flush()
        self.file_ops.fsync(self._file)
        self.fsyncs += 1
        self._pending_forces = 0
        return True

    @property
    def pending_forces(self) -> int:
        return self._pending_forces

    def close(self) -> None:
        if self._file.closed:
            return
        if self._pending_forces:
            self.sync()
        self._file.close()


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Replace ``path`` so that a reader sees the old file or the new
    one, never a prefix: write a temp sibling, fsync it, rename it over
    ``path``.  On an exception inside the block ``path`` is untouched."""
    tmp = path + ".tmp"
    with open(tmp, mode) as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_segment(path: str, records) -> int:
    """Write a brand-new segment containing ``records``; returns bytes.

    Used by compaction to materialize a checkpoint segment atomically.
    """
    size = 0
    with atomic_write(path) as handle:
        header = encode_segment_header()
        handle.write(header)
        size += len(header)
        for record in records:
            blob = encode_record(record)
            handle.write(blob)
            size += len(blob)
    return size
