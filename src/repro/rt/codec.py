"""The wire codec: framed, CRC-checked, versioned protocol envelopes.

Frame layout (all integers little-endian), mirroring the WAL record
codec in :mod:`repro.durability.records`::

    u32 payload-length | u32 crc32(payload) | payload
    payload = u8 wire-version | u8 frame-kind | pickle(body)

Three frame kinds travel on a connection:

- ``FRAME_HELLO`` — connection preamble ``{"name", "boot"}``; the boot
  id changes on every process (re)start and lets the far side reset
  its session-layer channel state exactly once per restart.
- ``FRAME_MESSAGE`` — one ``net/messages.py`` envelope, all fields
  including the session layer's ``(epoch, seq)`` stamp and the
  overload layer's ``deadline``; the session contract IS the wire
  protocol.
- ``FRAME_CONTROL`` — out-of-band cluster plumbing (route tables,
  workload submission, kill-switch arming, stats), a dict with a
  ``"dst"`` address and an ``"op"``.

A frame that fails its CRC, declares a foreign wire version, or names
an unknown kind is rejected; the connection carrying it is closed (the
session layer retransmits over the next connection, so rejection is
safe). A short read is not an error — ``TruncatedFrame`` means "feed
me more bytes".
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, List, Optional, Tuple

from repro.common.errors import RefusalReason
from repro.net.messages import Message, MsgType

#: Bump on any incompatible change to the frame or body layout.
WIRE_VERSION = 1

FRAME_HELLO = 1
FRAME_MESSAGE = 2
FRAME_CONTROL = 3
_KINDS = frozenset((FRAME_HELLO, FRAME_MESSAGE, FRAME_CONTROL))

#: Upper bound on a single frame's payload; anything larger is treated
#: as stream corruption rather than buffered indefinitely.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
_PROLOGUE = struct.Struct("<BB")  # wire version, frame kind


class WireError(Exception):
    """Base class for wire codec failures."""


class TruncatedFrame(WireError):
    """The buffer ends mid-frame — not corruption, just a short read."""


class CorruptFrame(WireError):
    """CRC mismatch, impossible length, or unknown frame kind."""


class WireVersionMismatch(WireError):
    """The peer speaks a different wire version; refuse the stream."""


def encode_frame(kind: int, body: Any) -> bytes:
    """Encode one frame of ``kind`` carrying the picklable ``body``."""
    if kind not in _KINDS:
        raise WireError(f"unknown frame kind {kind}")
    payload = _PROLOGUE.pack(WIRE_VERSION, kind) + pickle.dumps(
        body, protocol=pickle.HIGHEST_PROTOCOL
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame payload {len(payload)}B exceeds {MAX_FRAME_BYTES}B")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frame(buffer, offset: int = 0) -> Tuple[int, Any, int]:
    """Decode one frame at ``buffer[offset:]``.

    Returns ``(kind, body, next_offset)``. Raises ``TruncatedFrame``
    when the buffer ends before the frame does (feed more bytes and
    retry from the same offset), ``CorruptFrame`` / ``WireVersionMismatch``
    when the bytes are damaged or foreign.
    """
    if len(buffer) - offset < _HEADER.size:
        raise TruncatedFrame("incomplete frame header")
    length, crc = _HEADER.unpack_from(buffer, offset)
    if length > MAX_FRAME_BYTES:
        raise CorruptFrame(f"declared payload {length}B exceeds {MAX_FRAME_BYTES}B")
    if length < _PROLOGUE.size:
        raise CorruptFrame(f"declared payload {length}B is shorter than its prologue")
    start = offset + _HEADER.size
    end = start + length
    if len(buffer) < end:
        raise TruncatedFrame("incomplete frame payload")
    payload = bytes(buffer[start:end])
    if zlib.crc32(payload) != crc:
        raise CorruptFrame("payload CRC mismatch")
    version, kind = _PROLOGUE.unpack_from(payload, 0)
    if version != WIRE_VERSION:
        raise WireVersionMismatch(
            f"peer speaks wire version {version}, this process speaks {WIRE_VERSION}"
        )
    if kind not in _KINDS:
        raise CorruptFrame(f"unknown frame kind {kind}")
    try:
        body = pickle.loads(payload[_PROLOGUE.size :])
    except Exception as exc:  # a valid CRC over an unloadable body
        raise CorruptFrame(f"undecodable frame body: {exc}") from exc
    return kind, body, end


class FrameDecoder:
    """Incremental decoder for a TCP byte stream.

    ``feed`` returns every complete frame and keeps the tail buffered;
    corruption raises through to the caller, who should drop the
    connection (retransmission recovers anything undelivered).
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, Any]]:
        self._buffer.extend(data)
        frames: List[Tuple[int, Any]] = []
        offset = 0
        while True:
            try:
                kind, body, offset = decode_frame(self._buffer, offset)
            except TruncatedFrame:
                break
            frames.append((kind, body))
        if offset:
            del self._buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- message envelopes --------------------------------------------------------


def message_body(message: Message) -> dict:
    """Flatten a ``Message`` to its wire body (enums by value)."""
    return {
        "type": message.type.value,
        "src": message.src,
        "dst": message.dst,
        "txn": message.txn,
        "payload": message.payload,
        "sn": message.sn,
        "reason": message.reason.value if message.reason is not None else None,
        "seq": message.seq,
        "session": message.session,
        "deadline": message.deadline,
    }


def message_from_body(body: dict) -> Message:
    """Rebuild a ``Message`` from its wire body."""
    reason = body.get("reason")
    session = body.get("session")
    return Message(
        type=MsgType(body["type"]),
        src=body["src"],
        dst=body["dst"],
        txn=body["txn"],
        payload=body.get("payload"),
        sn=body.get("sn"),
        reason=RefusalReason(reason) if reason is not None else None,
        seq=body["seq"],
        session=tuple(session) if session is not None else None,
        deadline=body.get("deadline"),
    )


def encode_message(message: Message) -> bytes:
    """Encode one protocol envelope as a ``FRAME_MESSAGE`` frame."""
    return encode_frame(FRAME_MESSAGE, message_body(message))


def decode_message(frame: bytes) -> Message:
    """Decode a single complete ``FRAME_MESSAGE`` frame (tests/tools)."""
    kind, body, _end = decode_frame(frame)
    if kind != FRAME_MESSAGE:
        raise WireError(f"expected a message frame, got kind {kind}")
    return message_from_body(body)
