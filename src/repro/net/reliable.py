"""Session layer re-deriving the paper's lossless-FIFO wire contract.

The paper assumes the Network delivers every message, uncorrupted, in
per-channel FIFO order (Sec. 2).  :class:`~repro.net.faults.FaultyNetwork`
breaks all of that; :class:`SessionLayer` rebuilds it on top, the way a
real RDU/agent stack would sit on TCP:

* every tracked message is stamped with an ``(epoch, seq)`` envelope
  per directed channel;
* the receiver delivers strictly in sequence order, buffering
  out-of-order arrivals and dropping duplicates, and returns
  **cumulative acknowledgements** (``ACK`` carries the next sequence
  number it is waiting for);
* the sender retransmits *all* unacknowledged messages (go-back-N) on
  a timer with exponential backoff and seeded jitter;
* the retry budget is bounded: after ``max_retries`` fruitless rounds
  the sender gives up, dead-letters the unacknowledged messages and
  **bumps its epoch**.  The receiver resynchronises on the first
  higher-epoch message, so the channel is usable again instead of
  wedged forever on a hole that will never fill.  (The upper protocol
  — coordinator timeouts, ``resume_in_doubt`` — owns recovery from the
  gap, exactly as it owns recovery from a crashed site.)

Transport-internal kinds (ACK, PING, PONG) ride outside the session:
losing a heartbeat *is the signal* the failure detector exists to
observe, and a lost cumulative ack is repaired by the next one.

The layer presents the same duck-typed ``send``/``register`` surface as
:class:`~repro.net.network.Network`, so coordinators and agents do not
know whether they are talking to the perfect wire or to this layer over
a faulty one.  Anything it does not implement is delegated to the
wrapped network (``trace``, ``pause_channel``, fault counters, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.kernel.events import EventKernel
from repro.net.messages import Message, MsgType
from repro.net.network import Handler, Network

#: Kinds that travel outside the session (no envelope, no retransmit).
UNTRACKED = frozenset({MsgType.ACK, MsgType.PING, MsgType.PONG})


@dataclass(frozen=True)
class ReliableConfig:
    """Tuning knobs for the retransmission machinery."""

    #: Initial retransmission timeout (simulated time units).
    rto: float = 15.0
    #: Multiplicative backoff applied after every fruitless round.
    backoff: float = 2.0
    #: Ceiling on the backed-off timeout.
    max_rto: float = 120.0
    #: Uniform jitter added to every timeout (decorrelates retransmit
    #: storms from many senders at once).
    jitter: float = 2.0
    #: Retransmit rounds without progress before the sender gives up on
    #: the outstanding window and resets the session (epoch bump).
    max_retries: int = 8
    #: Seed for the jitter RNG (independent of latency and fault RNGs).
    seed: int = 0
    #: Bound on the ``dead_letters`` list; oldest entries are evicted
    #: past it and counted in ``dead_letters_dropped``.
    dead_letter_limit: int = 1_000


class _SendState:
    """Per directed channel: the sender's sliding window."""

    __slots__ = ("epoch", "next_seq", "unacked", "timer", "retries", "rto")

    def __init__(self, rto: float) -> None:
        self.epoch = 0
        self.next_seq = 0
        #: seq -> message, insertion-ordered (== sequence-ordered).
        self.unacked: Dict[int, Message] = {}
        self.timer = None
        self.retries = 0
        self.rto = rto


class _RecvState:
    """Per directed channel: the receiver's reassembly cursor."""

    __slots__ = ("epoch", "expected", "buffer")

    def __init__(self) -> None:
        self.epoch = 0
        self.expected = 0
        #: seq -> message parked ahead of the cursor.
        self.buffer: Dict[int, Message] = {}


class SessionLayer:
    """Reliable channels over an unreliable :class:`Network`."""

    def __init__(
        self,
        kernel: EventKernel,
        network: Network,
        config: Optional[ReliableConfig] = None,
    ) -> None:
        self._kernel = kernel
        self._network = network
        self.config = config or ReliableConfig()
        self._rng = random.Random(self.config.seed ^ 0xAC4)
        self._handlers: Dict[str, Handler] = {}
        self._send_states: Dict[Tuple[str, str], _SendState] = {}
        self._recv_states: Dict[Tuple[str, str], _RecvState] = {}
        #: Addresses whose process is currently dead: inbound messages
        #: for them are dropped *before* the session sees them, so the
        #: sender keeps retransmitting until the process is back.
        self._down: Set[str] = set()
        self.retransmits = 0
        self.dups_dropped = 0
        self.acks_sent = 0
        self.out_of_order_buffered = 0
        self.session_resets = 0
        self.dropped_to_down = 0
        #: In-order messages whose handler raised (each dead-lettered).
        self.handler_errors = 0
        #: ``(message, why)`` pairs the sender gave up on.  Bounded like
        #: the network's list (see :meth:`_dead_letter`).
        self.dead_letters: List[Tuple[Message, str]] = []
        self.dead_letters_dropped = 0
        #: Optional observer fired once per dead-lettered message — the
        #: overload layer's circuit breakers feed on it (a channel whose
        #: retry budget keeps dying is a failing site).
        self.on_dead_letter: Optional[Callable[[Message, str], None]] = None

    # ------------------------------------------------------------------
    # Network-compatible surface.

    def register(
        self, address: str, handler: Handler, replace: bool = False
    ) -> None:
        self._network.register(address, self._on_receive, replace=replace)
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        self._handlers.pop(address, None)
        self._network.unregister(address)

    def note_endpoint_down(self, address: str) -> None:
        """Deliveries to ``address`` are black-holed (and *not* acked)
        until :meth:`note_endpoint_up` — a dead process cannot ack."""
        self._down.add(address)

    def note_endpoint_up(self, address: str) -> None:
        self._down.discard(address)

    def reset_peer(self, address: str) -> int:
        """The process behind ``address`` restarted: resynchronise.

        A restarted process lost its receiver-side reassembly cursors,
        so retransmissions stamped with the old ``(epoch, seq)`` would
        park in its fresh reorder buffer forever (the new incarnation
        expects ``(0, 0)``).  Bump the send epoch towards ``address``
        and re-stamp + retransmit the whole unacked window under the
        new epoch, in order — the receiver resynchronises on the higher
        epoch and sees every pending message exactly once.  Receive
        state *from* ``address`` is forgotten too: the dead
        incarnation's stream never continues, and its successor opens
        with a fresh epoch of its own.

        Returns the number of send channels reset.  Callers (the
        runtime's :class:`repro.rt.host.ProtocolHost`) must invoke this
        once per detected restart — e.g. keyed on a boot-id change —
        so the epoch bumps exactly once per incarnation.
        """
        reset = 0
        for channel, state in self._send_states.items():
            if channel[1] != address:
                continue
            reset += 1
            state.epoch += 1
            pending = list(state.unacked.values())
            state.unacked.clear()
            state.next_seq = 0
            state.retries = 0
            state.rto = self.config.rto
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            for message in pending:
                message.session = (state.epoch, state.next_seq)
                state.next_seq += 1
                state.unacked[message.session[1]] = message
                try:
                    self._network.send(message)
                except SimulationError as exc:
                    self._dead_letter(message, str(exc))
                    state.unacked.pop(message.session[1], None)
                    continue
                self.retransmits += 1
            self.session_resets += 1
            self._arm_timer(channel, state)
        for channel in [c for c in self._recv_states if c[0] == address]:
            del self._recv_states[channel]
        return reset

    def send(self, message: Message) -> float:
        if message.type in UNTRACKED:
            # Heartbeats and acks take the raw wire: losing them is
            # either the failure signal itself or repaired cumulatively.
            return self._network.send(message)
        channel = (message.src, message.dst)
        state = self._send_states.get(channel)
        if state is None:
            state = self._send_states[channel] = _SendState(self.config.rto)
        message.session = (state.epoch, state.next_seq)
        state.next_seq += 1
        state.unacked[message.session[1]] = message
        delivery = self._network.send(message)
        self._arm_timer(channel, state)
        return delivery

    def __getattr__(self, name: str):
        # Everything else (trace, counters, pause_channel, ...) belongs
        # to the wrapped network.
        return getattr(self._network, name)

    # ------------------------------------------------------------------
    # Sender side.

    def _arm_timer(self, channel: Tuple[str, str], state: _SendState) -> None:
        if state.timer is not None or not state.unacked:
            return
        delay = state.rto + self._rng.uniform(0.0, self.config.jitter)
        state.timer = self._kernel.schedule(
            delay, lambda: self._on_timeout(channel)
        )

    def _on_timeout(self, channel: Tuple[str, str]) -> None:
        state = self._send_states.get(channel)
        if state is None:
            return
        state.timer = None
        if not state.unacked:
            state.retries = 0
            state.rto = self.config.rto
            return
        state.retries += 1
        if state.retries > self.config.max_retries:
            self._give_up(channel, state)
            return
        for message in list(state.unacked.values()):
            try:
                self._network.send(message)
            except SimulationError as exc:
                # Endpoint unregistered since the original send: the
                # window can never drain, give up on it now.
                self._dead_letter(message, str(exc))
                state.unacked.pop(message.session[1], None)
                continue
            self.retransmits += 1
        state.rto = min(state.rto * self.config.backoff, self.config.max_rto)
        self._arm_timer(channel, state)

    def _give_up(self, channel: Tuple[str, str], state: _SendState) -> None:
        """Retry budget exhausted: abandon the window, reset the session.

        Without the epoch bump the receiver would wait forever for the
        abandoned head-of-line sequence number and every later message
        on the channel would park in its reorder buffer — a wedged
        channel.  The bump tells it to resynchronise instead; the
        abandoned messages surface in :attr:`dead_letters` and the upper
        protocol's timeouts handle their loss.
        """
        for message in state.unacked.values():
            self._dead_letter(
                message, f"retry budget exhausted towards {channel[1]!r}"
            )
        state.unacked.clear()
        state.epoch += 1
        state.next_seq = 0
        state.retries = 0
        state.rto = self.config.rto
        self.session_resets += 1

    def _dead_letter(self, message: Message, why: str) -> None:
        """Record an abandoned message (bounded list) and notify."""
        self.dead_letters.append((message, why))
        while len(self.dead_letters) > self.config.dead_letter_limit:
            del self.dead_letters[0]
            self.dead_letters_dropped += 1
        if self.on_dead_letter is not None:
            self.on_dead_letter(message, why)

    def _on_ack(self, message: Message) -> None:
        epoch, cumulative = message.payload
        # The ack's source is the receiver; the window it acknowledges
        # is ours towards it.
        channel = (message.dst, message.src)
        state = self._send_states.get(channel)
        if state is None or epoch != state.epoch:
            return
        progressed = False
        for seq in [s for s in state.unacked if s < cumulative]:
            del state.unacked[seq]
            progressed = True
        if progressed:
            state.retries = 0
            state.rto = self.config.rto
            # Restart the timer: the clock must measure the *oldest
            # outstanding* message, not the first send on the channel —
            # otherwise a busy channel retransmits traffic younger than
            # one round trip every rto.
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            self._arm_timer(channel, state)
        if not state.unacked and state.timer is not None:
            state.timer.cancel()
            state.timer = None

    # ------------------------------------------------------------------
    # Receiver side.

    def _on_receive(self, message: Message) -> None:
        if message.type is MsgType.ACK:
            self._on_ack(message)
            return
        if message.dst in self._down:
            # The process is dead: a real host would drop the packet on
            # the floor.  Crucially we must NOT ack it — the sender has
            # to keep retransmitting until the process recovers.
            self.dropped_to_down += 1
            return
        handler = self._handlers.get(message.dst)
        if handler is None:
            return
        if message.type in UNTRACKED or message.session is None:
            # Heartbeats, or a peer sending outside the session.
            handler(message)
            return
        epoch, seq = message.session
        channel = (message.src, message.dst)
        state = self._recv_states.get(channel)
        if state is None:
            state = self._recv_states[channel] = _RecvState()
        if epoch > state.epoch:
            # The sender gave up on an old window and reset; adopt its
            # new session and resynchronise the cursor on this message.
            state.epoch = epoch
            state.expected = seq
            state.buffer.clear()
        elif epoch < state.epoch:
            self.dups_dropped += 1
            return
        if seq < state.expected:
            # Duplicate (retransmit raced the ack, or the wire copied
            # it).  Re-ack so the sender's window can drain.
            self.dups_dropped += 1
            self._ack(channel, state)
            return
        if seq > state.expected:
            if seq in state.buffer:
                self.dups_dropped += 1
            else:
                state.buffer[seq] = message
                self.out_of_order_buffered += 1
            self._ack(channel, state)
            return
        # In order: deliver, then drain whatever it unblocked.
        failure = self._deliver(handler, message, state)
        while state.expected in state.buffer:
            parked = state.buffer.pop(state.expected)
            error = self._deliver(handler, parked, state)
            failure = failure or error
        self._ack(channel, state)
        if failure is not None:
            # Cursor and ack are past the message; the transport still
            # sees (and logs) the handler's error.
            raise failure

    def _deliver(
        self, handler: Handler, message: Message, state: _RecvState
    ) -> Optional[Exception]:
        """Move the cursor past one in-order message and hand it up.

        A handler that raises has still consumed its sequence number:
        were the cursor left behind, every retransmit would re-run the
        failing handler and the channel behind it would stall.  The
        message is counted, dead-lettered and its error returned.
        """
        state.expected += 1
        try:
            handler(message)
        except Exception as exc:
            self.handler_errors += 1
            self._dead_letter(message, f"handler raised {exc!r}")
            return exc
        return None

    def _ack(self, channel: Tuple[str, str], state: _RecvState) -> None:
        src, dst = channel
        ack = Message(
            MsgType.ACK,
            src=dst,
            dst=src,
            txn=None,
            payload=(state.epoch, state.expected),
        )
        try:
            self._network.send(ack)
        except SimulationError:
            return  # Sender endpoint gone; nothing to acknowledge to.
        self.acks_sent += 1
