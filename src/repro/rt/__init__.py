"""Real-deployment runtime: the DTM protocol objects over asyncio TCP.

The simulator's ``core/`` actors (TwoPCAgent, Coordinator, Certifier)
are written against a small kernel-facing surface: ``kernel.schedule``
/ ``Timer`` for timeouts, ``network.send`` / ``register`` for messages.
This package satisfies that surface with real machinery instead of the
deterministic simulation:

- :mod:`repro.rt.kernel` — ``RealtimeKernel``, the event kernel pumped
  by an asyncio loop (1 simulated time unit = 1 wall-clock second).
- :mod:`repro.rt.codec` — the length-prefixed, CRC-checked, versioned
  wire frames carrying the existing ``net/messages.py`` envelopes
  (including the session layer's ``(epoch, seq)`` stamp).
- :mod:`repro.rt.wire` — ``TcpTransport``, a ``Network``-duck-typed
  transport over asyncio TCP with per-peer outbound queues and
  reconnect/backoff.
- :mod:`repro.rt.host` — ``ProtocolHost``, one process's substrate:
  realtime kernel + TCP transport + the session layer, with boot-id
  hellos driving exactly-one session reset per peer restart.
- :mod:`repro.rt.journal` — flushed per-process history journal, the
  committed-store redo log and the input to the merged-history
  invariant battery.
- :mod:`repro.rt.node` — agent/coordinator process entrypoints with
  WAL-backed crash recovery (``python -m repro serve``).
- :mod:`repro.rt.cluster` — the 1-coordinator + 3-agent subprocess
  launcher/supervisor with a readiness handshake and auto-restart.
- :mod:`repro.rt.storm` — the live-cluster debit-credit client with
  ``--kill-agent N --at prepared`` and the merged-journal invariant
  battery; its record is one ``--json-report`` line.

The protocol objects themselves run unmodified; nothing in ``core/``
knows whether its kernel is simulated or real.
"""

from repro.rt.codec import (
    FRAME_CONTROL,
    FRAME_HELLO,
    FRAME_MESSAGE,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    CorruptFrame,
    FrameDecoder,
    TruncatedFrame,
    WireError,
    WireVersionMismatch,
    decode_frame,
    encode_frame,
    encode_message,
    message_from_body,
)
from repro.rt.host import ProtocolHost
from repro.rt.kernel import RealtimeKernel
from repro.rt.wire import TcpTransport

__all__ = [
    "CorruptFrame",
    "FRAME_CONTROL",
    "FRAME_HELLO",
    "FRAME_MESSAGE",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "ProtocolHost",
    "RealtimeKernel",
    "TcpTransport",
    "TruncatedFrame",
    "WIRE_VERSION",
    "WireError",
    "WireVersionMismatch",
    "decode_frame",
    "encode_frame",
    "encode_message",
    "message_from_body",
]
