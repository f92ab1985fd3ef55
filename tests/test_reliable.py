"""Unit tests for the session layer (repro.net.reliable)."""

import pytest

from repro.common.ids import global_txn
from repro.kernel import EventKernel
from repro.net.faults import FaultPlan, FaultyNetwork, Partition
from repro.net.messages import Message, MsgType
from repro.net.network import LatencyModel, Network
from repro.net.reliable import ReliableConfig, SessionLayer


def make(plan=None, config=None, latency=None, seed=0):
    kernel = EventKernel()
    net = FaultyNetwork(
        kernel, latency=latency or LatencyModel(base=5.0), seed=seed, plan=plan
    )
    session = SessionLayer(kernel, net, config or ReliableConfig())
    return kernel, net, session


def msg(src, dst, seq, type_=MsgType.COMMAND):
    return Message(
        type=type_, src=src, dst=dst, txn=global_txn(1), payload=seq
    )


def wire(session, receiver):
    """Register a receiver at "b" and a sender endpoint at "a" (the
    sender must be addressable or the cumulative ACKs cannot return)."""
    session.register("a", lambda m: None)
    session.register("b", receiver)


class TestLosslessFifoOverLossyWire:
    def test_heavy_loss_all_messages_arrive_in_order(self):
        kernel, net, session = make(
            plan=FaultPlan(loss=0.3),
            config=ReliableConfig(rto=20.0, max_retries=20, seed=1),
        )
        got = []
        wire(session, lambda m: got.append(m.payload))
        for i in range(20):
            session.send(msg("a", "b", i))
        kernel.run()
        assert got == list(range(20))
        assert net.messages_lost > 0  # the wire really did drop some
        assert session.retransmits > 0  # and the session repaired it
        assert session.dead_letters == []
        assert kernel.pending == 0

    def test_duplication_deduped_exactly_once_delivery(self):
        kernel, net, session = make(plan=FaultPlan(duplication=1.0))
        got = []
        wire(session, lambda m: got.append(m.payload))
        for i in range(10):
            session.send(msg("a", "b", i))
        kernel.run()
        assert got == list(range(10))
        assert net.messages_duplicated >= 10  # data + their acks
        assert session.dups_dropped > 0

    def test_spike_reordering_is_resequenced(self):
        kernel, net, session = make(
            plan=FaultPlan(spike_probability=0.5, spike_delay=200.0),
            config=ReliableConfig(rto=40.0, max_retries=20, seed=2),
        )
        got = []
        wire(session, lambda m: got.append(m.payload))
        for i in range(20):
            session.send(msg("a", "b", i))
        kernel.run()
        assert got == list(range(20))
        assert net.messages_spiked > 0

    def test_perfect_wire_costs_nothing_extra(self):
        kernel, net, session = make()
        got = []
        wire(session, lambda m: got.append(m.payload))
        for i in range(5):
            session.send(msg("a", "b", i))
        kernel.run()
        assert got == list(range(5))
        assert session.retransmits == 0
        assert session.dups_dropped == 0


class TestUntracked:
    def test_heartbeats_bypass_the_session(self):
        kernel, _net, session = make()
        got = []
        wire(session, got.append)
        ping = Message(MsgType.PING, src="a", dst="b", txn=None)
        session.send(ping)
        kernel.run()
        assert got == [ping]
        assert ping.session is None  # no envelope was stamped
        assert session._send_states == {}  # no window was opened


class TestGiveUp:
    def test_retry_exhaustion_dead_letters_and_resets_epoch(self):
        plan = FaultPlan(loss=1.0, heal_at=500.0)
        kernel, _net, session = make(
            plan=plan,
            config=ReliableConfig(rto=10.0, backoff=1.0, max_retries=3, jitter=0.0),
        )
        got = []
        wire(session, lambda m: got.append(m.payload))
        for i in range(3):
            session.send(msg("a", "b", i))
        kernel.run(until=400.0, advance=True)
        # Budget exhausted long ago: the window was abandoned.
        assert [m.payload for m, _ in session.dead_letters] == [0, 1, 2]
        assert session.session_resets == 1
        assert got == []
        # After heal the *new* epoch resynchronises the receiver: the
        # channel is usable again, not wedged on the abandoned seqs.
        kernel.run(until=600.0, advance=True)
        session.send(msg("a", "b", 99))
        kernel.run()
        assert got == [99]
        assert kernel.pending == 0

    def test_sustained_partition_dead_letters_then_resyncs_exactly_once(self):
        # The full overload-survival story on one channel: a partition
        # outlives the retry budget (dead letters + epoch bump, with the
        # on_dead_letter observer notified), and after the heal a fresh
        # batch flows through the resynchronised session exactly once.
        plan = FaultPlan(
            partitions=(
                Partition(isolated=frozenset({"b"}), start=0.0, end=300.0),
            )
        )
        kernel, net, session = make(
            plan=plan,
            config=ReliableConfig(
                rto=10.0, backoff=1.0, max_retries=2, jitter=0.0
            ),
        )
        got = []
        observed = []
        wire(session, lambda m: got.append(m.payload))
        session.on_dead_letter = lambda m, why: observed.append(m.payload)
        for i in range(4):
            session.send(msg("a", "b", i))
        kernel.run(until=250.0, advance=True)
        # Every message of the first batch was abandoned, not silently
        # lost: dead-lettered, observer notified, epoch bumped.
        assert [m.payload for m, _ in session.dead_letters] == [0, 1, 2, 3]
        assert observed == [0, 1, 2, 3]
        assert session.session_resets >= 1
        assert got == []
        assert net.partition_drops > 0
        # Post-heal: the next batch arrives exactly once, in order.
        kernel.run(until=320.0, advance=True)
        for i in range(10, 14):
            session.send(msg("a", "b", i))
        kernel.run()
        assert got == [10, 11, 12, 13]
        assert net.trace_dropped == 0  # the trace saw every message
        assert kernel.pending == 0

    def test_session_dead_letters_are_bounded(self):
        kernel, _net, session = make(
            plan=FaultPlan(loss=1.0),
            config=ReliableConfig(
                rto=5.0,
                backoff=1.0,
                max_retries=1,
                jitter=0.0,
                dead_letter_limit=2,
            ),
        )
        observed = []
        wire(session, lambda m: None)
        session.on_dead_letter = lambda m, why: observed.append(m.payload)
        for i in range(5):
            session.send(msg("a", "b", i))
        kernel.run(until=500.0, advance=True)
        # All five were abandoned and every abandonment was observed,
        # but only the newest two are retained.
        assert observed == [0, 1, 2, 3, 4]
        assert [m.payload for m, _ in session.dead_letters] == [3, 4]
        assert session.dead_letters_dropped == 3

    def test_stale_epoch_messages_are_dropped(self):
        """A straggler from the pre-reset epoch must not be delivered
        after the receiver adopted the new epoch."""
        kernel, net, session = make()
        got = []
        wire(session, lambda m: got.append(m.payload))
        stale = msg("a", "b", 0)
        stale.session = (0, 0)
        fresh = msg("a", "b", 1)
        fresh.session = (1, 0)
        net.send(fresh)  # epoch 1 arrives first: receiver resyncs
        kernel.run()
        net.send(stale)  # epoch 0 straggler
        kernel.run()
        assert got == [1]
        assert session.dups_dropped == 1


class TestRaisingHandler:
    def test_a_raising_handler_does_not_wedge_its_channel(self):
        """The message whose handler raised is consumed: the cursor and
        the ack move past it, so the channel behind it keeps flowing
        with no retransmits, and the error still reaches the caller."""
        kernel, _net, session = make()
        got = []

        def receiver(m):
            if m.payload == 0:
                raise RuntimeError("handler bug")
            got.append(m.payload)

        wire(session, receiver)
        for i in range(101):
            session.send(msg("a", "b", i))
        with pytest.raises(RuntimeError, match="handler bug"):
            kernel.run()
        kernel.run()
        assert got == list(range(1, 101))
        assert session.retransmits == 0
        assert session.handler_errors == 1
        assert [(m.payload, why) for m, why in session.dead_letters] == [
            (0, "handler raised RuntimeError('handler bug')")
        ]
        assert session._send_states[("a", "b")].unacked == {}
        assert kernel.pending == 0

    def test_parked_messages_behind_a_raising_handler_are_delivered(self):
        """An in-order arrival that unblocks parked messages delivers all
        of them even when its own handler raises."""
        kernel, net, session = make()
        got = []

        def receiver(m):
            if m.payload == 0:
                raise RuntimeError("handler bug")
            got.append(m.payload)

        wire(session, receiver)
        for seq in (2, 1, 0):
            parked = msg("a", "b", seq)
            parked.session = (0, seq)
            net.send(parked)
            if seq:
                kernel.run()
        with pytest.raises(RuntimeError):
            kernel.run()
        assert got == [1, 2]
        assert session._recv_states[("a", "b")].expected == 3


class TestEndpointDown:
    def test_dead_process_is_not_acked_sender_retries_until_recovery(self):
        kernel, _net, session = make(
            config=ReliableConfig(rto=20.0, backoff=1.0, max_retries=50, jitter=0.0)
        )
        got = []
        wire(session, lambda m: got.append(m.payload))
        session.note_endpoint_down("b")
        session.send(msg("a", "b", 7))
        kernel.run(until=100.0, advance=True)
        assert got == []
        assert session.dropped_to_down > 0
        assert session.retransmits > 0  # no ack came back, so it retried
        session.note_endpoint_up("b")
        kernel.run()
        assert got == [7]  # the next retransmit landed, exactly once
        assert kernel.pending == 0


class TestDelegation:
    def test_unknown_attributes_delegate_to_wrapped_network(self):
        _kernel, net, session = make()
        assert session.messages_sent == net.messages_sent
        assert session.trace is net.trace
        session.pause_channel("a", "b")  # Network method via __getattr__
        assert ("a", "b") in net._paused
