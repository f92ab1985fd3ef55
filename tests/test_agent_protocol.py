"""Protocol-level tests of the 2PC Agent + Coordinator through a full
system (repro.core.agent / repro.core.coordinator / repro.core.dtm)."""

import pytest

from repro.common.errors import RefusalReason
from repro.common.ids import SubtxnId, global_txn
from repro.core.agent import AgentConfig, AgentPhase
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, InsertItem, ReadItem, UpdateItem
from repro.ldbs.ltm import LTMConfig
from repro.net.network import LatencyModel
from repro.sim.failures import (
    abort_current_incarnation,
    inject_abort_after_global_commit,
    inject_abort_after_prepare,
)
from repro.sim.metrics import audit

from tests.helpers import drain


def build(method="2cm", **kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    kwargs.setdefault("latency", LatencyModel(base=5.0))
    system = MultidatabaseSystem(SystemConfig(method=method, **kwargs))
    system.load("a", "t", {"X": 100, "Y": 50})
    system.load("b", "t", {"Z": 10})
    return system


def two_site_spec(number=1, think_time=0.0):
    return GlobalTransactionSpec(
        txn=global_txn(number),
        steps=(
            ("a", UpdateItem("t", "X", AddValue(-5))),
            ("b", UpdateItem("t", "Z", AddValue(5))),
        ),
        think_time=think_time,
    )


class TestHappyPath:
    def test_two_site_commit(self):
        system = build()
        done = system.submit(two_site_spec())
        drain(system)
        outcome = done.value
        assert outcome.committed
        assert outcome.sn is not None
        assert system.ltm("a").store.snapshot("t")[
            next(iter(k for k in system.ltm("a").store.snapshot("t") if k.key == "X"))
        ] == 95

    def test_history_order_invariant(self):
        """Inequality (1): P^i_k < C_k < C^s_k for all sites."""
        system = build()
        system.submit(two_site_spec())
        drain(system)
        kinds = [op.kind for op in system.history.ops]
        prepare_positions = [
            i for i, k in enumerate(kinds) if k is OpKind.PREPARE
        ]
        decision = kinds.index(OpKind.GLOBAL_COMMIT)
        local_commits = [
            i for i, k in enumerate(kinds) if k is OpKind.LOCAL_COMMIT
        ]
        assert max(prepare_positions) < decision < min(local_commits)

    def test_sequential_transactions_share_agents(self):
        system = build()
        first = system.submit(two_site_spec(1))
        drain(system)
        second = system.submit(two_site_spec(2))
        drain(system)
        assert first.value.committed and second.value.committed
        assert audit(system).ok

    def test_command_results_returned_in_order(self):
        system = build()
        spec = GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", ReadItem("t", "X")),
                ("b", ReadItem("t", "Z")),
                ("a", ReadItem("t", "Y")),
            ),
        )
        done = system.submit(spec)
        drain(system)
        values = [r.rows[0][1] for r in done.value.results]
        assert values == [100, 10, 50]

    def test_agent_phase_transitions(self):
        system = build()
        system.submit(two_site_spec())
        agent = system.agent("a")
        drain(system)
        assert agent.phase_of(global_txn(1)) is AgentPhase.DONE
        assert agent.ready_sent == 1
        assert agent.commits_done == 1


class TestCommandFailure:
    def test_lock_timeout_mid_transaction_aborts_globally(self):
        system = build(ltm=LTMConfig(lock_timeout=30.0))
        blocker = system.ltm("a").begin(SubtxnId(global_txn(99), "a", 0))
        blocker.execute(UpdateItem("t", "X", AddValue(1)))
        system.run(until=5.0)
        done = system.submit(two_site_spec(1))
        drain_until_done(system, done)
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.LOCK_TIMEOUT
        blocker.abort()
        drain(system)

    def test_unilateral_abort_while_active_fails_prepare(self):
        """An abort between commands is caught by the alive check at
        PREPARE time (Appendix B) and answered with REFUSE."""
        system = build(agent=AgentConfig(alive_check_interval=10_000.0))
        spec = GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", UpdateItem("t", "X", AddValue(1))),
                ("b", UpdateItem("t", "Z", AddValue(1)) ),
            ),
            # Think time gives us a window after a's command completes.
            think_time=30.0,
        )
        done = system.submit(spec)
        system.kernel.schedule(
            20.0, lambda: abort_current_incarnation(system, global_txn(1), "a")
        )
        drain(system)
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.NOT_ALIVE
        assert "a" in outcome.refusing_sites


class TestPreparedStateResubmission:
    def test_abort_after_global_commit_resubmits_and_commits(self):
        """The core 2PCA promise: a unilaterally aborted prepared
        subtransaction is replayed from the Agent log and the global
        commit still lands everywhere."""
        system = build(
            agent=AgentConfig(alive_check_interval=15.0),
            latency=LatencyModel(base=5.0, overrides={("coord:c1", "agent:a"): 60.0}),
        )
        done = system.submit(two_site_spec())
        inject_abort_after_global_commit(system, global_txn(1), "a", delay=1.0)
        drain(system)
        assert done.value.committed
        assert system.agent("a").resubmissions == 1
        # The final value reflects the (re-executed) update exactly once.
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot("t").items()}
        assert snapshot["X"] == 95
        assert audit(system).ok

    def test_alive_timer_discovers_abort(self):
        system = build(
            agent=AgentConfig(alive_check_interval=10.0),
            latency=LatencyModel(base=5.0, overrides={("coord:c1", "agent:a"): 80.0}),
        )
        done = system.submit(two_site_spec())
        inject_abort_after_global_commit(system, global_txn(1), "a", delay=1.0)
        drain(system)
        assert done.value.committed
        assert system.agent("a").resubmissions == 1

    def test_repeated_aborts_retried_until_success(self):
        """TW: the resubmission machinery keeps going through several
        consecutive failures."""
        system = build(
            agent=AgentConfig(alive_check_interval=10.0, resubmit_retry_delay=5.0),
            latency=LatencyModel(base=5.0, overrides={("coord:c1", "agent:a"): 200.0}),
        )
        done = system.submit(two_site_spec())
        txn = global_txn(1)

        def abort_thrice(op):
            if op.kind is OpKind.GLOBAL_COMMIT and op.txn == txn:
                for delay in (1.0, 25.0, 50.0):
                    system.kernel.schedule(
                        delay, lambda: abort_current_incarnation(system, txn, "a")
                    )

        system.history.subscribe(abort_thrice)
        drain(system)
        assert done.value.committed
        assert system.ltm("a").unilateral_aborts >= 2
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot("t").items()}
        assert snapshot["X"] == 95
        assert audit(system).ok

    def test_abort_after_ready_still_commits(self):
        """An abort landing right after READY does not doom the
        transaction: the agent resubmits at COMMIT time."""
        system = build(agent=AgentConfig(alive_check_interval=10_000.0))
        done = system.submit(two_site_spec())
        inject_abort_after_prepare(system, global_txn(1), "b", delay=0.5)
        drain(system)
        assert done.value.committed
        assert system.agent("b").resubmissions == 1
        assert audit(system).ok

    def test_rollback_of_prepared_txn_cleans_up(self):
        """A REFUSE at one site rolls the other (prepared) site back."""
        system = build(agent=AgentConfig(alive_check_interval=10_000.0))
        spec = two_site_spec(think_time=30.0)
        done = system.submit(spec)
        # Abort at b while the application is still "thinking" — before
        # any PREPARE is sent; b will refuse, a will be rolled back.
        system.kernel.schedule(
            70.0, lambda: abort_current_incarnation(system, global_txn(1), "b")
        )
        drain(system)
        outcome = done.value
        assert not outcome.committed
        # Site a was prepared, then rolled back: nothing left behind.
        assert system.certifier("a").table_size() == 0
        assert not system.guards["a"].bound_items()
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot("t").items()}
        assert snapshot["X"] == 100
        assert audit(system).ok


class TestBoundData:
    def test_prepared_access_set_is_bound_and_released(self):
        system = build(
            latency=LatencyModel(base=5.0, overrides={("coord:c1", "agent:a"): 40.0})
        )
        bound_during_prepare = []
        done = system.submit(two_site_spec())

        def watch(op):
            if op.kind is OpKind.PREPARE and op.site == "a":
                bound_during_prepare.append(
                    {item.key for item in system.guards["a"].bound_items()}
                )

        system.history.subscribe(watch)
        drain(system)
        assert done.value.committed
        assert bound_during_prepare == [{"X"}]
        assert not system.guards["a"].bound_items()


def drain_until_done(system, event, limit=100_000.0):
    while not event.done and system.kernel.pending and system.kernel.now <= limit:
        system.run(max_events=1000)
    assert event.done


class TestCommitDuringResubmission:
    def test_commit_arriving_mid_resubmission_does_not_leak_incarnations(self):
        """Regression: a COMMIT landing while the resubmission is still
        replaying commands must wait for it — not mark the (healthy)
        incarnation as aborted and spawn another one, leaking the
        in-flight incarnation's locks forever."""
        system = build(
            agent=AgentConfig(alive_check_interval=12.0),
            latency=LatencyModel(base=5.0, overrides={("coord:c1", "agent:a"): 45.0}),
        )
        done = system.submit(two_site_spec())
        # Abort right after the global decision; the alive check starts a
        # resubmission; the COMMIT then arrives mid-replay.
        inject_abort_after_global_commit(system, global_txn(1), "a", delay=1.0)
        drain(system)
        assert done.value.committed
        # Exactly one replacement incarnation, nothing leaked.
        state = system.agent("a")._states[global_txn(1)]
        assert state.incarnations == 2
        assert system.ltm("a").active_txns() == []
        assert audit(system).ok


class TestOpenEntryWalks:
    def test_prepare_and_finalize_visit_only_open_entries(self):
        """The alive-check refresh at PREPARE and the eager-retry wakeup
        at finalize walk the open entries, not every entry the agent
        has ever seen: after 300 finished globals, one more commit reads
        none of them."""
        system = build()
        for n in range(1, 301):
            system.submit(two_site_spec(number=n))
            drain(system)
        agent = system.agent("a")
        assert len(agent._states) == 300 and agent.open_txn_count() == 0
        # One global stays open at "a" (BEGIN and a command done, then
        # a long think time before its step at "b").
        opened = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(301),
                steps=(
                    ("a", UpdateItem("t", "Y", AddValue(1))),
                    ("b", UpdateItem("t", "Z", AddValue(1))),
                ),
                think_time=10_000.0,
            )
        )
        system.run(until=system.now + 100.0)
        assert agent.open_txn_count() == 1

        touched = set()

        class Watched(type(agent._states[global_txn(1)])):
            def __getattribute__(self, name):
                touched.add(object.__getattribute__(self, "txn"))
                return object.__getattribute__(self, name)

        for state in agent._states.values():
            state.__class__ = Watched
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(302), steps=(("a", UpdateItem("t", "X", AddValue(-1))),)
            )
        )
        system.run(until=system.now + 100.0)
        assert done.value.committed
        assert touched == {global_txn(301)}
        drain(system)
        assert opened.value.committed
