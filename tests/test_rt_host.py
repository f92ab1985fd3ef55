"""ProtocolHost + SessionLayer restart resynchronisation (regression).

The satellite promise under test: when a recovered peer re-registers
under the runtime adapter — detected by a boot-id change in its HELLO —
the surviving host bumps the session epoch towards that peer **exactly
once** per restart (however many connections carry the new boot id),
re-delivers the pending window exactly once, and never double-acks.
Also pins the ``Network.register(replace=)`` / ``note_endpoint_down``
idempotency promises the transport duck-types.
"""

import asyncio

import pytest

from repro.common.errors import ConfigError
from repro.common.ids import global_txn
from repro.kernel.events import EventKernel
from repro.net.messages import Message, MsgType
from repro.net.network import LatencyModel, Network
from repro.net.reliable import ReliableConfig, SessionLayer
from repro.rt.host import ProtocolHost
from repro.rt.wire import TcpTransport

FAST = ReliableConfig(rto=0.2, backoff=2.0, max_rto=1.0, jitter=0.0, max_retries=200)


def _msg(payload: str) -> Message:
    return Message(
        MsgType.COMMAND,
        src="ep:a",
        dst="ep:b",
        txn=global_txn(1),
        payload=payload,
    )


async def _wait_for(cond, timeout: float = 10.0, what: str = "condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not cond():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.02)


def test_restart_bumps_epoch_exactly_once_and_never_double_delivers():
    async def scenario():
        a = ProtocolHost("a", reliable=FAST, boot_id="boot-a")
        await a.start()
        a.transport.register("ep:a", lambda m: None)

        b = ProtocolHost("b", reliable=FAST, boot_id="boot-b1")
        bhost, bport = await b.start()
        got_b1 = []
        b.transport.register("ep:b", lambda m: got_b1.append(m.payload))
        a.add_peer("b", bhost, bport, ["ep:b"])
        b.add_peer("a", *a.bound, ["ep:a"])

        # Establish the channel: one message delivered and acked.
        a.transport.send(_msg("m1"))
        await _wait_for(lambda: got_b1 == ["m1"], what="first delivery")
        state = a.session._send_states[("ep:a", "ep:b")]
        await _wait_for(lambda: not state.unacked, what="first ack")
        assert state.epoch == 0
        await _wait_for(
            lambda: "b" in a._peer_boots, what="b's hello reaching a"
        )

        # SIGKILL stand-in: the first incarnation vanishes mid-window.
        await b.close()
        a.transport.send(_msg("m2"))
        a.transport.send(_msg("m3"))

        # The successor binds the same port under a *new* boot id.
        b2 = ProtocolHost("b", reliable=FAST, boot_id="boot-b2")
        await b2.start(bhost, bport)
        got_b2 = []
        b2.transport.register("ep:b", lambda m: got_b2.append(m.payload))
        b2.add_peer("a", *a.bound, ["ep:a"])

        await _wait_for(
            lambda: got_b2 == ["m2", "m3"], what="window redelivery"
        )
        # Epoch bumped exactly once for the restart, never again for
        # the extra connections that carry the same new boot id.
        assert a.peer_resets == 1
        assert a.session.session_resets == 1
        assert state.epoch == 1

        # A fresh connection from the same incarnation (b2 dialling a
        # to say something) re-announces boot-b2: still exactly one.
        b2.transport.send(
            Message(
                MsgType.COMMAND_RESULT,
                src="ep:b",
                dst="ep:a",
                txn=global_txn(1),
                payload="hi",
            )
        )
        await _wait_for(
            lambda: a._peer_boots.get("b") == "boot-b2",
            what="b2's hello reaching a",
        )
        await asyncio.sleep(0.2)
        assert a.peer_resets == 1
        assert state.epoch == 1

        # The re-stamped window drains: no eternal retransmission, and
        # the successor saw each pending message exactly once.
        await _wait_for(lambda: not state.unacked, what="window drain")
        assert got_b2 == ["m2", "m3"]
        assert got_b1 == ["m1"]

        await a.close()
        await b2.close()

    asyncio.run(scenario())


def test_reset_peer_restamps_pending_window_under_new_epoch():
    """Session-layer unit of the same promise, on the sim kernel."""
    kernel = EventKernel()
    network = Network(kernel, latency=LatencyModel(base=0.01))
    session = SessionLayer(kernel, network, ReliableConfig(jitter=0.0))
    received = []
    session.register("ep:a", lambda m: None)
    session.register("ep:b", lambda m: received.append(m.payload))

    session.send(_msg("m1"))
    kernel.run(until=1.0)
    assert received == ["m1"]

    # The process behind ep:b dies: deliveries black-hole un-acked.
    session.note_endpoint_down("ep:b")
    session.send(_msg("m2"))
    session.send(_msg("m3"))
    kernel.run(until=2.0)
    assert received == ["m1"]
    state = session._send_states[("ep:a", "ep:b")]
    assert set(state.unacked) == {1, 2}

    # Restart detected: resynchronise exactly once.
    session.note_endpoint_up("ep:b")
    assert session.reset_peer("ep:b") == 1
    assert state.epoch == 1
    assert list(state.unacked) == [0, 1]  # re-stamped from seq 0
    kernel.run(until=3.0)
    assert received == ["m1", "m2", "m3"]
    assert not state.unacked
    assert session.session_resets == 1

    # Idempotent bookkeeping: nothing pending → nothing retransmitted,
    # but the channel still exists and bumps cleanly if called again.
    before = session.retransmits
    assert session.reset_peer("ep:b") == 1
    assert session.retransmits == before
    kernel.run(until=4.0)
    assert received == ["m1", "m2", "m3"]


def test_reset_peer_unknown_address_is_noop():
    kernel = EventKernel()
    session = SessionLayer(
        kernel, Network(kernel, latency=LatencyModel(base=0.01)), ReliableConfig(jitter=0.0)
    )
    assert session.reset_peer("ep:ghost") == 0
    assert session.session_resets == 0


def test_transport_register_replace_matches_network_contract():
    kernel = EventKernel()
    wire = TcpTransport("t", kernel)
    wire.register("ep:x", lambda m: None)
    with pytest.raises(ConfigError):
        wire.register("ep:x", lambda m: None)
    # A recovered process re-binding its own endpoint is idempotent.
    wire.register("ep:x", lambda m: None, replace=True)
    wire.register("ep:x", lambda m: None, replace=True)

    # note_endpoint_down/up are idempotent too (Network promise).
    wire.note_endpoint_down("ep:x")
    wire.note_endpoint_down("ep:x")
    wire.note_endpoint_up("ep:x")
    wire.note_endpoint_up("ep:x")


def test_transport_loopback_respects_down_endpoints():
    kernel = EventKernel()
    wire = TcpTransport("t", kernel)
    got = []
    wire.register("ep:a", lambda m: None)
    wire.register("ep:b", lambda m: got.append(m.payload))
    wire.note_endpoint_down("ep:b")
    wire.send(_msg("dropped"))
    kernel.run(until=0.1)
    assert got == []
    wire.note_endpoint_up("ep:b")
    wire.send(_msg("kept"))
    kernel.run(until=0.2)
    assert got == ["kept"]


class TestConcurrentCoordinatorRestarts:
    """Per-peer session resets stay per-peer when two coordinators restart."""

    def _msg(self, dst, payload):
        return Message(
            MsgType.COMMAND,
            src="ep:storm",
            dst=dst,
            txn=global_txn(1),
            payload=payload,
        )

    def test_reset_peer_touches_only_that_peers_channels(self):
        kernel = EventKernel()
        network = Network(kernel, latency=LatencyModel(base=0.01))
        session = SessionLayer(kernel, network, ReliableConfig(jitter=0.0))
        session.register("ep:storm", lambda m: None)
        got = {"ep:c1": [], "ep:c2": []}
        session.register("ep:c1", lambda m: got["ep:c1"].append(m.payload))
        session.register("ep:c2", lambda m: got["ep:c2"].append(m.payload))

        session.send(self._msg("ep:c1", "c1-m1"))
        session.send(self._msg("ep:c2", "c2-m1"))
        kernel.run(until=1.0)

        # both coordinators die mid-window
        session.note_endpoint_down("ep:c1")
        session.note_endpoint_down("ep:c2")
        session.send(self._msg("ep:c1", "c1-m2"))
        session.send(self._msg("ep:c2", "c2-m2"))
        kernel.run(until=2.0)
        c1_state = session._send_states[("ep:storm", "ep:c1")]
        c2_state = session._send_states[("ep:storm", "ep:c2")]
        assert c1_state.unacked and c2_state.unacked

        # c1's restart is detected first: only c1's channel may reset
        session.note_endpoint_up("ep:c1")
        assert session.reset_peer("ep:c1") == 1
        assert c1_state.epoch == 1
        assert c2_state.epoch == 0, "c2's window was cross-contaminated"
        c2_pending = list(c2_state.unacked)

        kernel.run(until=3.0)
        assert got["ep:c1"] == ["c1-m1", "c1-m2"]
        # c2 is still down; its window must be exactly as it was
        assert list(c2_state.unacked) == c2_pending

        # now c2's restart lands: its channel resets independently
        session.note_endpoint_up("ep:c2")
        assert session.reset_peer("ep:c2") == 1
        assert c2_state.epoch == 1
        assert c1_state.epoch == 1
        kernel.run(until=4.0)
        assert got["ep:c2"] == ["c2-m1", "c2-m2"]
        assert session.session_resets == 2

    def test_two_live_coordinators_restarting_concurrently(self):
        """ProtocolHost end-to-end: both coordinator peers SIGKILL and
        respawn with new boot ids; each surviving channel resets exactly
        once and redelivers only its own pending window."""
        fast = ReliableConfig(
            rto=0.2, backoff=2.0, max_rto=1.0, jitter=0.0, max_retries=200
        )

        async def scenario():
            client = ProtocolHost("storm", reliable=fast, boot_id="boot-s")
            await client.start()
            client.transport.register("ep:storm", lambda m: None)

            coords = {}
            got = {"c1": [], "c2": []}
            ports = {}
            for name in ("c1", "c2"):
                host = ProtocolHost(name, reliable=fast, boot_id=f"{name}-b1")
                addr, port = await host.start()
                host.transport.register(
                    f"ep:{name}", lambda m, n=name: got[n].append(m.payload)
                )
                client.add_peer(name, addr, port, [f"ep:{name}"])
                host.add_peer("storm", *client.bound, ["ep:storm"])
                coords[name] = host
                ports[name] = (addr, port)

            async def wait_for(cond, what):
                deadline = asyncio.get_running_loop().time() + 10.0
                while not cond():
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(f"timed out waiting for {what}")
                    await asyncio.sleep(0.02)

            client.transport.send(self._msg("ep:c1", "c1-m1"))
            client.transport.send(self._msg("ep:c2", "c2-m1"))
            await wait_for(
                lambda: got["c1"] == ["c1-m1"] and got["c2"] == ["c2-m1"],
                "initial delivery",
            )
            s1 = client.session._send_states[("ep:storm", "ep:c1")]
            s2 = client.session._send_states[("ep:storm", "ep:c2")]
            await wait_for(
                lambda: not s1.unacked and not s2.unacked, "initial acks"
            )

            # both incarnations vanish mid-window
            await coords["c1"].close()
            await coords["c2"].close()
            client.transport.send(self._msg("ep:c1", "c1-m2"))
            client.transport.send(self._msg("ep:c2", "c2-m2"))

            # both respawn concurrently on their old ports, new boots
            got2 = {"c1": [], "c2": []}
            respawned = {}
            for name in ("c1", "c2"):
                host = ProtocolHost(name, reliable=fast, boot_id=f"{name}-b2")
                await host.start(*ports[name])
                host.transport.register(
                    f"ep:{name}", lambda m, n=name: got2[n].append(m.payload)
                )
                host.add_peer("storm", *client.bound, ["ep:storm"])
                respawned[name] = host

            await wait_for(
                lambda: got2["c1"] == ["c1-m2"] and got2["c2"] == ["c2-m2"],
                "window redelivery to both successors",
            )
            # exactly one reset per restarted peer, and each channel's
            # epoch bumped exactly once — no cross-contamination
            assert client.peer_resets == 2
            assert s1.epoch == 1
            assert s2.epoch == 1
            await wait_for(
                lambda: not s1.unacked and not s2.unacked, "window drain"
            )
            # nothing leaked across channels
            assert got2["c1"] == ["c1-m2"]
            assert got2["c2"] == ["c2-m2"]

            await client.close()
            for host in respawned.values():
                await host.close()

        asyncio.run(scenario())
