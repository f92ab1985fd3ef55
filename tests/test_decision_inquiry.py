"""The presumed-abort decision inquiry (2PC blocking-window fix).

A coordinator SIGKILLed *before* forcing its DECISION record leaves
participants stranded: prepared entries hold their locks forever and
active entries keep their in-place writes — with no protocol message
that could ever resolve them (the paper's recovery machinery only
replays *logged* decisions).  The inquiry closes that window:

* agents with an overdue decision send INQUIRE to the coordinator;
* the coordinator answers from its decision log, stays silent for
  transactions it is actively driving, and replies ROLLBACK for
  transactions it has never heard of — *presumed abort*, safe because
  the DECISION record is always forced before the first COMMIT leaves;
* everything is off by default (``decision_inquiry_after = 0``), so
  simulator goldens and the paper's timings are untouched.
"""

import pytest

from repro.common.ids import SerialNumber, global_txn
from repro.core.agent import AgentConfig, AgentPhase
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.durability.config import DurabilityConfig
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.messages import Message, MsgType
from repro.net.network import LatencyModel

from tests.helpers import drain

INQUIRY = AgentConfig(alive_check_interval=50.0, decision_inquiry_after=120.0)


def build(tmp_path=None, agent=INQUIRY, **kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    kwargs.setdefault("latency", LatencyModel(base=5.0))
    if tmp_path is not None:
        kwargs.setdefault(
            "durability", DurabilityConfig(root=str(tmp_path), sync="always")
        )
    system = MultidatabaseSystem(SystemConfig(agent=agent, **kwargs))
    system.load("a", "t", {"X": 100})
    system.load("b", "t", {"Z": 10})
    return system


def spec(number=1):
    return GlobalTransactionSpec(
        txn=global_txn(number),
        steps=(
            ("a", UpdateItem("t", "X", AddValue(-5))),
            ("b", UpdateItem("t", "Z", AddValue(5))),
        ),
    )


def _orphan(system, number, *, prepare=False, command=True):
    """Plant a subtransaction at site ``a`` whose coordinator will never
    speak again — BEGIN (and optionally COMMAND/PREPARE) arrive from the
    real coordinator's address, but the coordinator has no state for it,
    exactly as if it had been killed after sending."""
    coord = system.coordinator()
    txn = global_txn(number)
    system.network.send(
        Message(MsgType.BEGIN, src=coord.address, dst="agent:a", txn=txn)
    )
    if command:
        system.network.send(
            Message(
                MsgType.COMMAND,
                src=coord.address,
                dst="agent:a",
                txn=txn,
                payload=UpdateItem("t", "X", AddValue(-1)),
            )
        )
    if prepare:
        # a real coordinator only sends PREPARE after the last result:
        # let the command finish (and its result go unanswered) first
        system.run(max_events=2_000)
        system.network.send(
            Message(
                MsgType.PREPARE,
                src=coord.address,
                dst="agent:a",
                txn=txn,
                sn=SerialNumber(clock=1.0, site="c0"),
            )
        )
    return txn


def test_active_orphan_is_presumed_aborted_and_releases_its_writes():
    system = build()
    agent = system.agent("a")
    txn = _orphan(system, 90, command=True)
    drain(system)

    assert agent.phase_of(txn) is None or agent.phase_of(txn) is AgentPhase.DONE
    assert agent.open_txn_count() == 0
    assert agent.inquiries_sent >= 1
    coord = system.coordinator()
    assert coord.inquiries >= 1
    assert coord.inquiries_presumed_abort >= 1
    # the orphan's in-place write was undone: X is back to its image
    snapshot = system.ltm("a").store.snapshot("t")
    x = next(v for k, v in snapshot.items() if k.key == "X")
    assert x == 100


def test_prepared_orphan_is_presumed_aborted_and_unblocks_later_txns():
    system = build()
    agent = system.agent("a")
    txn = _orphan(system, 91, prepare=True)
    drain(system)
    assert agent.open_txn_count() == 0
    assert system.coordinator().inquiries_presumed_abort >= 1

    # the lock the orphan held on X is free: a real transaction commits
    done = system.submit(spec(1))
    drain(system)
    assert done.value.committed
    assert agent.phase_of(txn) in (None, AgentPhase.DONE)


def test_logged_decision_is_resent_not_aborted(tmp_path):
    system = build(tmp_path)
    done = system.submit(spec(1))
    drain(system)
    assert done.value.committed

    # a participant whose COMMIT-ACK was the last word asks again —
    # the answer must be the logged COMMIT, never a presumed abort
    coord = system.coordinator()
    system.network.send(
        Message(
            MsgType.INQUIRE,
            src="agent:a",
            dst=coord.address,
            txn=global_txn(1),
        )
    )
    drain(system)
    assert coord.inquiries == 1
    assert coord.inquiries_presumed_abort == 0
    # the resent COMMIT was re-acked idempotently by the DONE agent
    assert system.agent("a").open_txn_count() == 0


def test_inquiry_for_actively_driven_txn_is_ignored():
    system = build()
    coord = system.coordinator()
    done = system.submit(spec(1, ))
    # interleave: fire the inquiry while the transaction is in flight
    system.run(max_events=5)
    assert not done.done
    active = list(coord._active)
    if active:
        coord._on_inquire(
            Message(
                MsgType.INQUIRE,
                src="agent:a",
                dst=coord.address,
                txn=active[0],
            )
        )
        assert coord.inquiries_presumed_abort == 0
    drain(system)
    assert done.value.committed


def test_inquiry_disabled_by_default_keeps_orphans_prepared():
    """With ``decision_inquiry_after = 0`` (the simulator default) the
    blocking window is faithfully preserved — orphans stay put."""
    system = build(agent=AgentConfig(alive_check_interval=50.0))
    agent = system.agent("a")
    txn = _orphan(system, 92, prepare=True)
    # bounded drain: the alive-check timer restarts forever by design
    for _ in range(200):
        if not system.kernel.pending:
            break
        system.run(max_events=200)
        if system.kernel.now > 5_000.0:
            break
    assert agent.phase_of(txn) is AgentPhase.PREPARED
    assert agent.inquiries_sent == 0
    assert system.coordinator().inquiries == 0
