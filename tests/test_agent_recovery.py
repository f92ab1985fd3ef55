"""Tests for 2PC Agent restart recovery (TwoPCAgent.simulate_restart).

The Agent log is the durable half of the simulated prepared state; a
restarted agent must honour every READY promise it force-wrote before
the crash.
"""

from repro.common.errors import RefusalReason
from repro.common.ids import global_txn
from repro.core.agent import AgentConfig, AgentPhase
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.network import LatencyModel
from repro.sim.metrics import audit

from tests.helpers import drain


def build(**kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    kwargs.setdefault("latency", LatencyModel(base=5.0))
    kwargs.setdefault("agent", AgentConfig(alive_check_interval=15.0))
    system = MultidatabaseSystem(SystemConfig(method="2cm", **kwargs))
    system.load("a", "t", {"X": 100})
    system.load("b", "t", {"Z": 10})
    return system


def spec(number=1, think_time=0.0):
    return GlobalTransactionSpec(
        txn=global_txn(number),
        steps=(
            ("a", UpdateItem("t", "X", AddValue(-5))),
            ("b", UpdateItem("t", "Z", AddValue(5))),
        ),
        think_time=think_time,
    )


def restart_when(system, site, predicate, delay=1.0):
    fired = [False]

    def observer(op):
        if fired[0] or not predicate(op):
            return
        fired[0] = True
        system.kernel.schedule(
            delay, lambda: system.agent(site).simulate_restart()
        )

    system.history.subscribe(observer)


class TestRestartWhilePrepared:
    def test_prepared_promise_survives_restart(self):
        """Crash after READY, before COMMIT: the recovered agent
        resubmits from the log and the global commit lands."""
        system = build(
            latency=LatencyModel(
                base=5.0, overrides={("coord:c1", "agent:a"): 60.0}
            )
        )
        done = system.submit(spec())
        restart_when(
            system,
            "a",
            lambda op: op.kind is OpKind.PREPARE and op.site == "a",
        )
        drain(system)
        assert done.value.committed
        assert system.agent("a").restarts == 1
        assert system.agent("a").resubmissions == 1
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot().items()}
        assert snapshot["X"] == 95  # applied exactly once
        assert audit(system).ok

    def test_restart_after_commit_record_finishes_commit(self):
        """Crash after the commit record was forced but before the
        local commit executed: recovery resubmits and commits."""
        system = build(
            latency=LatencyModel(
                base=5.0, overrides={("coord:c1", "agent:a"): 60.0}
            )
        )
        done = system.submit(spec())
        # Crash right when the COMMIT message lands at a (the commit
        # record is written synchronously in the handler; restarting one
        # tick later hits the window before resubmission completes).
        restart_when(
            system,
            "a",
            lambda op: op.kind is OpKind.GLOBAL_COMMIT,
            delay=61.0,  # just after COMMIT delivery at a
        )
        drain(system)
        assert done.value.committed
        assert system.agent("a").restarts == 1
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot().items()}
        assert snapshot["X"] == 95
        assert audit(system).ok

    def test_max_committed_sn_survives_restart(self):
        system = build()
        done = system.submit(spec(1))
        drain(system)
        assert done.value.committed
        sn = done.value.sn
        assert system.agent("a").log.max_committed_sn == sn
        system.agent("a").simulate_restart()
        assert system.certifier("a").max_committed_sn == sn


class TestRestartWhileActive:
    def test_active_transaction_fails_cleanly_after_restart(self):
        """Crash while the transaction is still executing commands: the
        coordinator ends up aborting it (the LDBS lost the orphan)."""
        system = build()
        done = system.submit(spec(1, think_time=40.0))
        system.kernel.schedule(
            20.0, lambda: system.agent("a").simulate_restart()
        )
        drain(system)
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason in (
            RefusalReason.NOT_ALIVE,
            RefusalReason.UNILATERAL,
        )
        # Nothing half-applied anywhere.
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot().items()}
        assert snapshot["X"] == 100
        assert audit(system).ok

    def test_restart_with_no_open_entries_is_trivial(self):
        system = build()
        done = system.submit(spec(1))
        drain(system)
        assert done.value.committed
        assert system.agent("a").simulate_restart() == 0
        # The system still works afterwards.
        second = system.submit(spec(2))
        drain(system)
        assert second.value.committed
        assert audit(system).ok


class TestRestartConcurrency:
    def test_unrelated_transaction_unaffected(self):
        """A restart at site a must not disturb a transaction that only
        touches site b."""
        system = build(
            n_coordinators=2,
            latency=LatencyModel(
                base=5.0, overrides={("coord:c1", "agent:a"): 60.0}
            ),
        )
        slow = system.submit(spec(1), coordinator=0)
        only_b = GlobalTransactionSpec(
            txn=global_txn(2),
            steps=(("b", UpdateItem("t", "Z", AddValue(1))),),
        )
        fast = system.submit(only_b, coordinator=1)
        restart_when(
            system,
            "a",
            lambda op: op.kind is OpKind.PREPARE and op.site == "a",
        )
        drain(system)
        assert slow.value.committed
        assert fast.value.committed
        assert audit(system).ok


class TestRedeliveredBegin:
    def test_redelivered_begin_after_recovery_is_dropped(self):
        """At-least-once redelivery: a BEGIN whose ack died with the
        process must be idempotent against the WAL-recovered entry,
        not a duplicate-BEGIN protocol violation (which livelocks the
        sender's retransmit window in the real runtime)."""
        import pytest

        from repro.common.errors import SimulationError
        from repro.net.messages import Message, MsgType

        system = build()
        agent = system.agent("a")
        begin = Message(
            MsgType.BEGIN, src="coord:c1", dst=agent.address, txn=global_txn(7)
        )
        agent._on_message(begin)
        assert global_txn(7) in agent._states
        agent.crash()
        agent.recover()
        agent._on_message(begin)  # redelivered: dropped, no error
        assert agent.begin_redeliveries == 1

        # A duplicate for a live, non-recovered entry is still a bug.
        fresh = Message(
            MsgType.BEGIN, src="coord:c1", dst=agent.address, txn=global_txn(8)
        )
        agent._on_message(fresh)
        with pytest.raises(SimulationError):
            agent._on_begin(fresh)
