"""How an rt node boots, in process: the agent replays its Agent WAL
against the journal's committed image once routes arrive, without a
simulated crash; the coordinator reports SNs exactly."""

import asyncio
import json
import types

from repro.common.ids import DataItemId, SerialNumber, SubtxnId, global_txn
from repro.core.agent import AgentPhase
from repro.core.coordinator import GlobalOutcome
from repro.durability.agent_log import DurableAgentLog
from repro.history.model import History
from repro.kernel.events import Event
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.messages import Message, MsgType
from repro.rt.journal import HistoryJournal, journal_path
from repro.rt.node import AgentNode, CoordinatorNode, agent_address, agent_control
from repro.rt.tuning import BankConfig, RtTuning

SITE = "branch1"
COORD = "coord:c1"
TUNING = RtTuning(
    op_duration=0.001,
    alive_check_interval=0.05,
    decision_inquiry_after=0.2,
    rto=0.05,
    max_rto=0.2,
)


async def _wait_for(cond, what: str, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not cond():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


def _previous_incarnation(root: str):
    """What a killed agent left: three Agent WAL entries and a journal
    that holds the local commit of the first one only."""
    committed, prepared, active = global_txn(1), global_txn(2), global_txn(3)
    log = DurableAgentLog.open_site(SITE, TUNING.durability_config(root, owner=SITE))
    for number, txn in enumerate((committed, prepared, active)):
        log.open(txn, coordinator=COORD)
        log.log_command(txn, UpdateItem("accounts", number, AddValue(5)))
    log.write_prepare(committed, SerialNumber(1.0, "c1"), 0.0)
    log.write_commit(committed, 0.0)
    log.write_prepare(prepared, SerialNumber(2.0, "c1"), 0.0)
    log.close()

    journal = HistoryJournal(journal_path(root, f"agent-{SITE}"))
    history = History()
    journal.attach(history)
    sub = SubtxnId(committed, SITE, 0)
    history.record_write(0.0, sub, SITE, DataItemId("accounts", 0), 12345)
    history.record_local_commit(0.0, sub, SITE)
    journal.close()
    return committed, prepared, active


def test_agent_boots_from_its_wal_without_a_simulated_crash(tmp_path):
    root = str(tmp_path)
    committed, prepared, active = _previous_incarnation(root)

    async def scenario():
        node = AgentNode(SITE, root, TUNING, BankConfig())
        assert node.wal_entries_at_boot == 3
        assert node.ltm.store.read(DataItemId("accounts", 0))[1] == 12345
        received = []
        node.host.transport.register(COORD, received.append)

        # Before the route table the agent is down: traffic is dropped
        # unacknowledged, so the sender retransmits it after the boot.
        early = global_txn(4)
        node.host.transport.send(
            Message(MsgType.BEGIN, src=COORD, dst=agent_address(SITE), txn=early)
        )
        session = node.host.session
        await _wait_for(lambda: session.dropped_to_down > 0, "a held BEGIN")
        assert node.agent.phase_of(early) is None

        node.host.wire.send_control(agent_control(SITE), {"op": "routes", "peers": []})
        await _wait_for(lambda: node.routes_installed, "routes")
        assert node.recovered_at_boot == 2
        # A clean first boot is not a crash and not a restart.
        assert (node.agent.crashes, node.agent.restarts) == (0, 0)

        def seen(type_, txn):
            return any(m.type is type_ and m.txn == txn for m in received)

        # Prepared and locally committed: re-acked and discarded.
        await _wait_for(lambda: seen(MsgType.COMMIT_ACK, committed), "re-ack")
        assert committed not in [entry.txn for entry in node.log.entries()]
        # Prepared, not locally committed: PREPARED again, and resubmitted.
        assert node.agent.phase_of(prepared) is AgentPhase.PREPARED
        await _wait_for(
            lambda: node.agent.resubmissions_of(prepared) >= 1, "resubmission"
        )
        # Active: its orphan timer inquires after the silent coordinator.
        await _wait_for(lambda: seen(MsgType.INQUIRE, active), "orphan inquiry")
        # The held BEGIN arrives by retransmission once the agent is up.
        await _wait_for(
            lambda: node.agent.phase_of(early) is AgentPhase.ACTIVE, "held BEGIN"
        )

        stats = node.stats()
        assert (stats["crashes"], stats["restarts"]) == (0, 0)
        assert stats["wal_entries_at_boot"] == 3
        await node.close()

    asyncio.run(scenario())


def test_submit_outcome_reports_sns_exactly(tmp_path):
    """Two wall-clock SNs 5.5 s apart near 1.79e9 s, which ``str(sn)``
    renders alike, come back distinct and exact."""
    clocks = (1792430944.4, 1792430949.9)

    async def scenario():
        node = CoordinatorNode("c1", str(tmp_path), RtTuning())
        replies = []
        node.reply_to = lambda _body, response: replies.append(response)
        for number, clock in enumerate(clocks, start=1):
            txn = global_txn(number)
            done = Event(node.kernel)
            node.coordinator.submit = lambda _spec, done=done: done
            node._submit({"spec": types.SimpleNamespace(txn=txn)})
            done.succeed(GlobalOutcome(txn, True, sn=SerialNumber(clock, "c1", 0)))
        await _wait_for(lambda: len(replies) == 2, "outcomes")
        await node.close()
        return replies

    replies = asyncio.run(scenario())
    sns = [json.loads(json.dumps(reply))["sn"] for reply in replies]
    assert sns == [[clock, "c1", 0] for clock in clocks]
