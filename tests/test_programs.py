"""Tests for interactive application programs (submit_program)."""

import pytest

from repro.common.errors import RefusalReason
from repro.common.ids import global_txn
from repro.core.coordinator import AbortRequested
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, ReadItem, UpdateItem
from repro.net.network import LatencyModel
from repro.sim.failures import inject_abort_after_global_commit
from repro.sim.metrics import audit

from tests.helpers import drain


def build(**kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    system = MultidatabaseSystem(SystemConfig(**kwargs))
    system.load("a", "accounts", {"checking": 300})
    system.load("b", "accounts", {"savings": 50})
    return system


class TestInteractivePrograms:
    def test_result_dependent_branching(self):
        """Read a balance, then transfer an amount computed from it."""
        system = build()

        def program():
            result = yield ("a", ReadItem("accounts", "checking"))
            balance = result.rows[0][1]
            surplus = balance - 100
            yield ("a", UpdateItem("accounts", "checking", AddValue(-surplus)))
            yield ("b", UpdateItem("accounts", "savings", AddValue(surplus)))

        done = system.submit_program(global_txn(1), program())
        drain(system)
        assert done.value.committed
        a = {k.key: v for k, v in system.ltm("a").store.snapshot().items()}
        b = {k.key: v for k, v in system.ltm("b").store.snapshot().items()}
        assert a["checking"] == 100
        assert b["savings"] == 250
        assert audit(system).ok

    def test_application_requested_abort(self):
        """The program inspects a result and bails out: ROLLBACK path."""
        system = build()

        def program():
            result = yield ("a", ReadItem("accounts", "checking"))
            if result.rows[0][1] < 1000:
                raise AbortRequested("insufficient funds")
            yield ("b", UpdateItem("accounts", "savings", AddValue(1)))

        done = system.submit_program(global_txn(1), program())
        drain(system)
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.REQUESTED
        # Site a was begun and rolled back; site b never touched.
        a = {k.key: v for k, v in system.ltm("a").store.snapshot().items()}
        assert a["checking"] == 300
        assert system.ltm("b").commits == 0
        assert audit(system).ok

    def test_empty_program_commits_trivially(self):
        system = build()

        def program():
            return
            yield  # pragma: no cover

        done = system.submit_program(global_txn(1), program())
        drain(system)
        assert done.value.committed
        assert done.value.results == []

    def test_program_bug_surfaces(self):
        system = build()

        def program():
            yield ("a", ReadItem("accounts", "checking"))
            raise ValueError("application bug")

        done = system.submit_program(global_txn(1), program())
        drain(system)
        assert isinstance(done.error, ValueError)

    def test_resubmission_replays_decided_commands_only(self):
        """The application computation is NOT re-run on resubmission:
        the agent log replays the command sequence the program already
        decided (the paper's explicit design point)."""
        runs = {"count": 0}
        system = build(
            latency=LatencyModel(
                base=5.0, overrides={("coord:c1", "agent:a"): 60.0}
            )
        )

        def program():
            runs["count"] += 1
            result = yield ("a", ReadItem("accounts", "checking"))
            yield (
                "a",
                UpdateItem("accounts", "checking", AddValue(-10)),
            )
            yield ("b", UpdateItem("accounts", "savings", AddValue(10)))

        done = system.submit_program(global_txn(1), program())
        inject_abort_after_global_commit(system, global_txn(1), "a", delay=1.0)
        drain(system)
        assert done.value.committed
        assert system.agent("a").resubmissions == 1
        assert runs["count"] == 1  # the program itself ran exactly once
        a = {k.key: v for k, v in system.ltm("a").store.snapshot().items()}
        assert a["checking"] == 290  # the update applied exactly once
        assert audit(system).ok

    def test_interactive_program_runs_full_2pc(self):
        system = build()

        def program():
            yield ("a", UpdateItem("accounts", "checking", AddValue(-1)))
            yield ("b", UpdateItem("accounts", "savings", AddValue(1)))

        done = system.submit_program(global_txn(1), program())
        drain(system)
        assert done.value.committed
        kinds = [op.kind for op in system.history.ops]
        assert kinds.count(OpKind.PREPARE) == 2
        assert OpKind.GLOBAL_COMMIT in kinds
