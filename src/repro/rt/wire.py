"""``TcpTransport``: the ``Network`` surface over real asyncio sockets.

The protocol objects and the session layer see the same duck type the
simulated :class:`repro.net.network.Network` offers — ``register`` /
``unregister`` / ``note_endpoint_down`` / ``note_endpoint_up`` /
``send`` — but ``send`` routes by address: locally-registered handlers
get a loopback delivery through the kernel, everything else is framed
by :mod:`repro.rt.codec` and pushed onto a per-peer outbound queue
drained by a writer task with reconnect + exponential backoff.

Both directions work per wake-up, not per frame: the writer sends
every frame queued for its peer with one ``write`` and one ``drain``,
and the reader dispatches every frame of one ``read`` from one kernel
callback, in arrival order.

Connections are directional: each process dials its peers and keeps
its own outbound connection; replies travel back on the *replier's*
outbound connection, not this one. Both sides of every connection open
with a ``FRAME_HELLO`` carrying the sender's name and boot id, which
is how a peer learns that its counterpart restarted (the boot id
changes) and resets the session-layer channel state exactly once.

Protocol handler exceptions are contained per message: they are
counted, logged to stderr, and never tear down the reader loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import traceback
import uuid
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigError, SimulationError
from repro.net.messages import Message
from repro.rt.codec import (
    FRAME_CONTROL,
    FRAME_HELLO,
    FRAME_MESSAGE,
    FrameDecoder,
    WireError,
    encode_frame,
    encode_message,
    message_from_body,
)

#: Reconnect backoff bounds (seconds).
RECONNECT_MIN = 0.05
RECONNECT_MAX = 1.0
#: Default per-peer outbound queue bound; the oldest frame is dropped
#: beyond it (the session layer retransmits anything that mattered).
#: A long partition otherwise grows a disconnected peer's reconnect
#: queue without limit.
OUTBOX_LIMIT = 4096
_READ_CHUNK = 65536

Route = Tuple[str, int]


class _Peer:
    """One dialled neighbour: its queue, connection, and writer task."""

    __slots__ = ("route", "queue", "wake", "writer", "task", "closed", "dropped")

    def __init__(self, route: Route) -> None:
        self.route = route
        self.queue: Deque[bytes] = deque()
        self.wake = asyncio.Event()
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task: Optional[asyncio.Task] = None
        self.closed = False
        self.dropped = 0


class TcpTransport:
    """A ``Network``-compatible transport over asyncio TCP."""

    def __init__(
        self,
        name: str,
        kernel,
        *,
        boot_id: Optional[str] = None,
        outbox_limit: int = OUTBOX_LIMIT,
    ) -> None:
        self.name = name
        self.kernel = kernel
        #: Per-peer outbound queue bound (drop-oldest beyond it).
        self.outbox_limit = max(1, int(outbox_limit))
        #: Changes on every process start; rides on HELLO frames so
        #: peers can detect restarts.
        self.boot_id = boot_id if boot_id is not None else uuid.uuid4().hex
        self._handlers: Dict[str, Callable[[Message], Any]] = {}
        self._control_handlers: Dict[str, Callable[[dict], Any]] = {}
        self._down: Set[str] = set()
        self._routes: Dict[str, Route] = {}
        self._peers: Dict[Route, _Peer] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._closed = False
        #: Dispatches collected while one read's frames are decoded;
        #: ``None`` outside that loop (see :meth:`_defer`).
        self._inbound: Optional[List[Callable[[], None]]] = None
        #: ``(host, port)`` actually bound (port 0 resolves here).
        self.bound: Optional[Route] = None
        #: Fired with ``(name, boot_id, body)`` on every HELLO frame.
        self.on_hello: Optional[Callable[[str, str, dict], None]] = None
        # counters (metrics parity with Network / SessionLayer)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.dropped_no_handler = 0
        self.dropped_to_down = 0
        self.protocol_errors = 0
        self.reconnects = 0
        self.outbox_dropped = 0
        self.dead_letters: list = []
        self.dead_letters_dropped = 0
        #: Exceptions a protocol handler may raise that mean the process
        #: must fail-stop instead of counting a protocol error — e.g. a
        #: durability :class:`~repro.durability.segments.DiskFault`: a
        #: node that cannot log must not keep voting.  The owner
        #: installs the handler; ``None`` keeps errors contained.
        self.fatal_error_types: Tuple[type, ...] = ()
        self.on_fatal: Optional[Callable[[BaseException], None]] = None

    # -- the Network duck type ------------------------------------------------

    def register(
        self, address: str, handler: Callable[[Message], Any], replace: bool = False
    ) -> None:
        if address in self._handlers and not replace:
            raise ConfigError(f"endpoint {address!r} already registered")
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        self._handlers.pop(address, None)

    def note_endpoint_down(self, address: str) -> None:
        self._down.add(address)

    def note_endpoint_up(self, address: str) -> None:
        self._down.discard(address)

    def send(self, message: Message) -> float:
        """Route one protocol envelope; returns a nominal delay of 0.

        Locally-registered destinations get a loopback delivery via the
        kernel (never a socket); remote destinations are framed and
        queued. An unroutable destination raises ``SimulationError``
        exactly like the simulated ``Network``.
        """
        if self._closed:
            raise SimulationError("transport closed")
        self.messages_sent += 1
        dst = message.dst
        if dst in self._handlers:
            self._deliver_message(message)
            return 0.0
        route = self._routes.get(dst)
        if route is None:
            raise SimulationError(f"no endpoint registered for {dst!r}")
        self._enqueue(route, encode_message(message))
        return 0.0

    # -- routing + control plane ----------------------------------------------

    def add_route(self, address: str, host: str, port: int) -> None:
        """Map a protocol address to a peer's listening socket."""
        self._routes[address] = (host, int(port))

    def routes(self) -> Dict[str, Route]:
        return dict(self._routes)

    def register_control(self, address: str, handler: Callable[[dict], Any]) -> None:
        self._control_handlers[address] = handler

    def send_control(self, address: str, body: dict) -> None:
        """Send an out-of-band control frame to ``address``."""
        body = dict(body)
        body["dst"] = address
        if address in self._control_handlers:
            handler = self._control_handlers[address]
            self._defer(lambda: self._invoke_control(handler, body))
            return
        route = self._routes.get(address)
        if route is None:
            raise SimulationError(f"no route to control endpoint {address!r}")
        self._enqueue(route, encode_frame(FRAME_CONTROL, body))

    # -- delivery -------------------------------------------------------------

    def _deliver_message(self, message: Message) -> None:
        def dispatch() -> None:
            if self._closed:
                return
            if message.dst in self._down:
                self.dropped_to_down += 1
                return
            handler = self._handlers.get(message.dst)
            if handler is None:
                self.dropped_no_handler += 1
                return
            try:
                handler(message)
                self.messages_delivered += 1
            except Exception as exc:
                if self._maybe_fatal(exc):
                    return
                self.protocol_errors += 1
                print(
                    f"rt[{self.name}]: handler error for {message.type} -> "
                    f"{message.dst}",
                    file=sys.stderr,
                )
                traceback.print_exc(file=sys.stderr)

        self._defer(dispatch)

    def _defer(self, dispatch: Callable[[], None]) -> None:
        """Run ``dispatch`` from the kernel: inside a read, as part of
        that read's one callback; otherwise as a callback of its own."""
        batch = self._inbound
        if batch is None:
            self.kernel.call_soon(dispatch)
        else:
            batch.append(dispatch)

    @staticmethod
    def _run_batch(batch: List[Callable[[], None]]) -> None:
        # Each dispatch contains its handler's exceptions, so one bad
        # message never costs the rest of the read.
        for dispatch in batch:
            dispatch()

    def _maybe_fatal(self, exc: BaseException) -> bool:
        if self.fatal_error_types and isinstance(exc, self.fatal_error_types):
            if self.on_fatal is not None:
                self.on_fatal(exc)
                return True
        return False

    def _invoke_control(self, handler: Callable[[dict], Any], body: dict) -> None:
        try:
            handler(body)
        except Exception as exc:
            if self._maybe_fatal(exc):
                return
            self.protocol_errors += 1
            print(
                f"rt[{self.name}]: control handler error for op "
                f"{body.get('op')!r}",
                file=sys.stderr,
            )
            traceback.print_exc(file=sys.stderr)

    def _dispatch_frame(self, kind: int, body: Any) -> None:
        if kind == FRAME_MESSAGE:
            self._deliver_message(message_from_body(body))
        elif kind == FRAME_CONTROL:
            dst = body.get("dst")
            handler = self._control_handlers.get(dst)
            if handler is None:
                self.dropped_no_handler += 1
                return
            self._defer(lambda: self._invoke_control(handler, body))
        elif kind == FRAME_HELLO:
            if self.on_hello is not None:
                try:
                    self.on_hello(body["name"], body["boot"], body)
                except Exception:
                    self.protocol_errors += 1
                    traceback.print_exc(file=sys.stderr)

    # -- outbound: per-peer queue + writer task -------------------------------

    def _enqueue(self, route: Route, frame: bytes) -> None:
        peer = self._peers.get(route)
        if peer is None:
            peer = self._peers[route] = _Peer(route)
            peer.task = asyncio.ensure_future(self._peer_writer(peer))
        peer.queue.append(frame)
        self._trim(peer)
        peer.wake.set()

    def _trim(self, peer: _Peer) -> None:
        """Drop the oldest frames beyond ``outbox_limit``."""
        while len(peer.queue) > self.outbox_limit:
            peer.queue.popleft()
            peer.dropped += 1
            self.outbox_dropped += 1

    def _hello_body(self) -> dict:
        return {"name": self.name, "boot": self.boot_id}

    async def _peer_writer(self, peer: _Peer) -> None:
        backoff = RECONNECT_MIN
        while not self._closed and not peer.closed:
            if peer.writer is None:
                try:
                    reader, writer = await asyncio.open_connection(*peer.route)
                except OSError:
                    try:
                        await asyncio.sleep(backoff)
                    except asyncio.CancelledError:
                        return
                    backoff = min(backoff * 2.0, RECONNECT_MAX)
                    continue
                backoff = RECONNECT_MIN
                peer.writer = writer
                self.reconnects += 1
                # the far side replies with its own HELLO on this
                # connection, so a restart is noticed even before it
                # dials us back.
                task = asyncio.ensure_future(
                    self._read_stream(reader, writer, peer=peer)
                )
                self._conn_tasks.add(task)
                task.add_done_callback(self._conn_tasks.discard)
                try:
                    writer.write(encode_frame(FRAME_HELLO, self._hello_body()))
                    await writer.drain()
                except (OSError, asyncio.CancelledError):
                    self._drop_peer_conn(peer)
                    continue
            if not peer.queue:
                peer.wake.clear()
                try:
                    await peer.wake.wait()
                except asyncio.CancelledError:
                    return
                continue
            # Everything queued since the last wake-up leaves in one
            # write; a single frame is written as is, not copied.
            batch = list(peer.queue)
            peer.queue.clear()
            try:
                peer.writer.write(batch[0] if len(batch) == 1 else b"".join(batch))
                await peer.writer.drain()
                self.frames_sent += len(batch)
            except (OSError, asyncio.CancelledError):
                # The peer may have got any prefix of the batch; resend
                # all of it, in order, ahead of what queued meanwhile
                # (the session layer drops the duplicates).
                peer.queue.extendleft(reversed(batch))
                self._trim(peer)
                self._drop_peer_conn(peer)

    def _drop_peer_conn(self, peer: _Peer) -> None:
        writer, peer.writer = peer.writer, None
        if writer is not None:
            with contextlib.suppress(Exception):
                writer.close()

    # -- inbound: server + shared reader loop ---------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Route:
        """Bind the listening socket; port 0 picks an ephemeral port.

        Returns the actually-bound ``(host, port)`` — the readiness
        point for launchers: once this returns, peers can connect.
        """
        self._server = await asyncio.start_server(self._on_client, host=host, port=port)
        sockname = self._server.sockets[0].getsockname()
        self.bound = (sockname[0], sockname[1])
        return self.bound

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed:
            with contextlib.suppress(Exception):
                writer.close()
            return
        # Track the handler task: ``server.wait_closed()`` does not wait
        # for accepted connections (pre-3.12.1), so ``close()`` cancels
        # these explicitly — otherwise a blocked read could dispatch one
        # last batch of frames after the transport shut down.
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        # greet the dialler so it learns our boot id without needing a
        # route back to us.
        try:
            writer.write(encode_frame(FRAME_HELLO, self._hello_body()))
            await writer.drain()
        except (OSError, asyncio.CancelledError):
            with contextlib.suppress(Exception):
                writer.close()
            return
        await self._read_stream(reader, writer, peer=None)

    async def _read_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: Optional[_Peer],
    ) -> None:
        decoder = FrameDecoder()
        try:
            while not self._closed:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except WireError as exc:
                    self.protocol_errors += 1
                    print(
                        f"rt[{self.name}]: dropping connection: {exc}",
                        file=sys.stderr,
                    )
                    break
                batch = self._inbound = []
                try:
                    for kind, body in frames:
                        self.frames_received += 1
                        self._dispatch_frame(kind, body)
                finally:
                    self._inbound = None
                    if batch:
                        self.kernel.call_soon(lambda b=batch: self._run_batch(b))
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            if peer is not None and peer.writer is writer:
                self._drop_peer_conn(peer)
            else:
                with contextlib.suppress(Exception):
                    writer.close()

    # -- lifecycle ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return sum(len(peer.queue) for peer in self._peers.values())

    def stats(self) -> Dict[str, Any]:
        """Counters + per-peer outbound queue depth and drops."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "protocol_errors": self.protocol_errors,
            "reconnects": self.reconnects,
            "outbox_limit": self.outbox_limit,
            "outbox_dropped": self.outbox_dropped,
            "peers": {
                f"{route[0]}:{route[1]}": {
                    "queued": len(peer.queue),
                    "dropped": peer.dropped,
                    "connected": peer.writer is not None,
                }
                for route, peer in self._peers.items()
            },
        }

    async def close(self) -> None:
        self._closed = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        tasks = []
        for peer in self._peers.values():
            peer.closed = True
            peer.wake.set()
            self._drop_peer_conn(peer)
            if peer.task is not None:
                peer.task.cancel()
                tasks.append(peer.task)
        for task in list(self._conn_tasks):
            task.cancel()
            tasks.append(task)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
