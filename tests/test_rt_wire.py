"""Wire-level robustness under the nemesis (satellite regression).

Two promises the chaos drill leans on, pinned at the smallest scale
that exercises them over real sockets:

1. A hard connection reset that cuts a frame mid-stream never yields a
   phantom dispatch — the codec's ``TruncatedFrame`` is "feed me more
   bytes", and a connection that dies before the rest arrives simply
   drops the partial buffer with the connection.
2. The session layer's go-back-N retransmission redelivers the window
   lost to a nemesis reset **exactly once** — no lost messages, no
   duplicate dispatches — once the link heals.
"""

import asyncio

import pytest

from repro.common.ids import global_txn
from repro.net.messages import Message, MsgType
from repro.net.reliable import ReliableConfig
from repro.rt.codec import (
    FRAME_CONTROL,
    FRAME_MESSAGE,
    FrameDecoder,
    encode_frame,
    encode_message,
)
from repro.rt.host import ProtocolHost
from repro.rt.nemesis import NemesisProxy, link_key

FAST = ReliableConfig(
    rto=0.2, backoff=2.0, max_rto=1.0, jitter=0.0, max_retries=200
)


def _msg(n: int, payload: str) -> Message:
    return Message(
        MsgType.COMMAND,
        src="ep:a",
        dst="ep:b",
        txn=global_txn(n),
        payload=payload,
    )


async def _wait_for(cond, timeout: float = 15.0, what: str = "condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not cond():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.02)


def test_decoder_buffers_partial_frames_and_never_dispatches_them():
    frame = encode_message(_msg(1, "whole"))
    decoder = FrameDecoder()
    # every proper prefix is silence, not a dispatch and not an error
    for cut in range(1, len(frame)):
        assert FrameDecoder().feed(frame[:cut]) == []
    # byte-at-a-time delivery yields exactly one frame at the last byte
    dispatched = []
    for index in range(len(frame)):
        dispatched += decoder.feed(frame[index : index + 1])
        if index < len(frame) - 1:
            assert dispatched == []
    assert len(dispatched) == 1
    kind, body = dispatched[0]
    assert kind == FRAME_MESSAGE and body["payload"] == "whole"
    assert decoder.pending_bytes == 0


def test_partial_frame_then_raw_disconnect_never_reaches_handler():
    """A connection that dies mid-frame leaves no trace in the handler."""

    async def scenario():
        b = ProtocolHost("b", reliable=FAST, boot_id="boot-b")
        bhost, bport = await b.start()
        got = []
        b.transport.register("ep:b", lambda m: got.append(m.payload))

        frame = encode_message(_msg(1, "phantom"))
        _reader, writer = await asyncio.open_connection(bhost, bport)
        writer.write(frame[: len(frame) // 2])
        await writer.drain()
        await asyncio.sleep(0.3)  # let the half-frame soak in b's decoder
        writer.transport.abort()  # nemesis-style hard reset, no FIN
        await asyncio.sleep(0.3)
        assert got == []
        await b.close()

    asyncio.run(scenario())


def test_reset_mid_window_redelivers_exactly_once():
    """Nemesis reset between two hosts: go-back-N refills the gap, the
    receiver dispatches every payload exactly once, in order."""

    async def scenario():
        upstream_b = ProtocolHost("b", reliable=FAST, boot_id="boot-b")
        bhost, bport = await upstream_b.start()
        got = []
        upstream_b.transport.register("ep:b", lambda m: got.append(m.payload))

        proxy = NemesisProxy()
        relay = await proxy.add_link("a", "b", bhost, bport)

        a = ProtocolHost("a", reliable=FAST, boot_id="boot-a")
        ahost, aport = await a.start()
        a.transport.register("ep:a", lambda m: None)
        a.add_peer("b", relay[0], relay[1], ["ep:b"])
        upstream_b.add_peer("a", ahost, aport, ["ep:a"])

        a.transport.send(_msg(1, "m1"))
        await _wait_for(lambda: got == ["m1"], what="first delivery")

        # cut the link, then send into the void: the frames die with
        # the aborted connection (or inside the refused window)
        proxy.apply({"op": "partition", "a": "a", "b": "b", "duration": 0.6})
        a.transport.send(_msg(2, "m2"))
        a.transport.send(_msg(3, "m3"))
        await asyncio.sleep(0.2)
        assert got == ["m1"]

        # heal: retransmission must deliver m2 and m3 exactly once
        await _wait_for(lambda: len(got) >= 3, what="redelivery after heal")
        await asyncio.sleep(0.5)  # any duplicate would land here
        assert got == ["m1", "m2", "m3"]

        state = a.session._send_states[("ep:a", "ep:b")]
        await _wait_for(lambda: not state.unacked, what="window drain")
        assert a.session.retransmits >= 1

        await a.close()
        await upstream_b.close()
        await proxy.close()

    asyncio.run(scenario())


def test_corrupt_frame_closes_connection_but_session_recovers():
    """A CRC-corrupt frame is rejected with the connection — and the
    session layer re-sends the real traffic over the next one."""

    async def scenario():
        b = ProtocolHost("b", reliable=FAST, boot_id="boot-b")
        bhost, bport = await b.start()
        got = []
        b.transport.register("ep:b", lambda m: got.append(m.payload))

        # a raw client feeding garbage: the connection must be closed on it
        reader, writer = await asyncio.open_connection(bhost, bport)
        frame = bytearray(encode_frame(FRAME_MESSAGE, {"bogus": True}))
        frame[-1] ^= 0xFF  # break the CRC
        writer.write(bytes(frame))
        await writer.drain()
        # drain b's HELLO, then require EOF: the connection was dropped
        await asyncio.wait_for(reader.read(), 10.0)
        assert reader.at_eof()
        assert got == []

        # real traffic still flows on a fresh, clean connection
        a = ProtocolHost("a", reliable=FAST, boot_id="boot-a")
        ahost, aport = await a.start()
        a.transport.register("ep:a", lambda m: None)
        a.add_peer("b", bhost, bport, ["ep:b"])
        b.add_peer("a", ahost, aport, ["ep:a"])
        a.transport.send(_msg(1, "clean"))
        await _wait_for(lambda: got == ["clean"], what="clean delivery")

        await a.close()
        await b.close()

    asyncio.run(scenario())


def _only_peer(host: ProtocolHost):
    (peer,) = host.wire._peers.values()
    return peer


def test_frames_queued_while_the_writer_is_parked_leave_in_one_write():
    """Every frame queued since the writer's last wake-up goes out in
    one socket write, and the receiver dispatches them in order."""

    async def scenario():
        b = ProtocolHost("b", boot_id="boot-b")
        bhost, bport = await b.start()
        got = []
        b.transport.register("ep:b", lambda m: got.append(m.payload))
        a = ProtocolHost("a", boot_id="boot-a")
        await a.start()
        a.add_peer("b", bhost, bport, ["ep:b"])
        a.transport.send(_msg(0, "warm"))
        await _wait_for(lambda: got == ["warm"], what="first delivery")

        writer = _only_peer(a).writer
        writes = []
        write = writer.write
        writer.write = lambda data: (writes.append(data), write(data))[1]
        payloads = [f"m{n}" for n in range(1, 51)]
        for n, payload in enumerate(payloads, start=1):
            a.transport.send(_msg(n, payload))
        await _wait_for(lambda: len(got) == 51, what="the burst")
        assert got == ["warm"] + payloads
        assert len(writes) == 1
        assert a.wire.frames_sent == 51

        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_failed_write_requeues_the_batch_in_order_and_delivers_once():
    """A batch whose write fails goes back to the head of the queue in
    order; after the reconnect the whole batch is written again, and
    the session layer delivers each message exactly once."""

    async def scenario():
        b = ProtocolHost("b", reliable=FAST, boot_id="boot-b")
        bhost, bport = await b.start()
        got = []
        b.transport.register("ep:b", lambda m: got.append(m.payload))
        a = ProtocolHost("a", reliable=FAST, boot_id="boot-a")
        ahost, aport = await a.start()
        a.transport.register("ep:a", lambda m: None)
        a.add_peer("b", bhost, bport, ["ep:b"])
        b.add_peer("a", ahost, aport, ["ep:a"])
        a.transport.send(_msg(0, "warm"))
        await _wait_for(lambda: got == ["warm"], what="first delivery")

        peer = _only_peer(a)
        first = peer.writer
        drain = first.drain

        async def failing_drain():
            # The bytes left; the connection dies before the writer
            # learns so, as when a peer resets mid-batch.
            await drain()
            first.drain = drain
            raise ConnectionResetError("injected")

        first.drain = failing_drain
        writes = []
        write = asyncio.StreamWriter.write

        def recording_write(writer, data):
            if writer is first or writer is peer.writer:
                writes.append((writer, bytes(data)))
            return write(writer, data)

        asyncio.StreamWriter.write = recording_write
        try:
            payloads = [f"m{n}" for n in range(1, 11)]
            for n, payload in enumerate(payloads, start=1):
                a.transport.send(_msg(n, payload))
            await _wait_for(lambda: len(got) == 11, what="redelivery")
            await asyncio.sleep(0.3)  # any duplicate dispatch would land here
        finally:
            asyncio.StreamWriter.write = write
        assert got == ["warm"] + payloads
        assert a.wire.reconnects == 2
        # One write on the failing connection; on the new one, HELLO and
        # then the same batch again, byte for byte.
        (failed,) = [data for writer, data in writes if writer is first]
        again = [data for writer, data in writes if writer is not first]
        assert [body["payload"] for _kind, body in FrameDecoder().feed(failed)] == (
            payloads
        )
        assert again[1] == failed
        assert b.session.dups_dropped >= len(payloads)
        await _wait_for(
            lambda: not a.session._send_states[("ep:a", "ep:b")].unacked,
            what="window drain",
        )

        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_control_frame_between_two_messages_is_dispatched_in_arrival_order():
    """Messages and control frames of one read are dispatched in
    arrival order, from one kernel callback."""

    async def scenario():
        b = ProtocolHost("b", boot_id="boot-b")
        bhost, bport = await b.start()
        seen = []
        b.transport.register("ep:b", lambda m: seen.append(m.payload))
        b.wire.register_control("ctl:b", lambda body: seen.append(body["op"]))
        callbacks = []
        call_soon = b.kernel.call_soon
        b.kernel.call_soon = lambda cb: (callbacks.append(cb), call_soon(cb))[1]

        _reader, writer = await asyncio.open_connection(bhost, bport)
        writer.write(
            encode_message(_msg(1, "before"))
            + encode_frame(FRAME_CONTROL, {"dst": "ctl:b", "op": "between"})
            + encode_message(_msg(2, "after"))
        )
        await writer.drain()
        await _wait_for(lambda: len(seen) == 3, what="dispatch")
        assert seen == ["before", "between", "after"]
        assert len(callbacks) == 1
        writer.close()
        await b.close()

    asyncio.run(scenario())


def test_a_raising_handler_costs_only_its_own_message_in_a_read():
    """One read's batch: a handler error is counted and contained, and
    the messages after it are still delivered."""

    async def scenario():
        b = ProtocolHost("b", boot_id="boot-b")
        bhost, bport = await b.start()
        seen = []

        def handler(m):
            if m.payload == "bad":
                raise RuntimeError("handler bug")
            seen.append(m.payload)

        b.transport.register("ep:b", handler)
        _reader, writer = await asyncio.open_connection(bhost, bport)
        writer.write(
            b"".join(encode_message(_msg(n, p)) for n, p in enumerate(("bad", "ok")))
        )
        await writer.drain()
        await _wait_for(lambda: seen == ["ok"], what="dispatch")
        assert b.wire.protocol_errors == 1
        assert b.wire.messages_delivered == 1
        writer.close()
        await b.close()

    asyncio.run(scenario())
