"""Tests for the Commit Graph Method baseline (repro.baselines.cgm)."""

import pytest

from repro.common.errors import RefusalReason, TransactionAborted
from repro.common.ids import global_txn
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.baselines.cgm import CGMScheduler
from repro.kernel import EventKernel
from repro.ldbs.commands import AddValue, ReadItem, UpdateItem
from repro.sim.metrics import audit

from tests.helpers import drain


class TestCommitGraphAdmission:
    def test_disjoint_site_sets_admitted(self):
        scheduler = CGMScheduler(EventKernel())
        first = scheduler.before_prepare(scheduler._kernel, global_txn(1), ["a", "b"])
        second = scheduler.before_prepare(scheduler._kernel, global_txn(2), ["c", "d"])
        assert first.done and second.done

    def test_shared_single_site_admitted(self):
        """One shared site is a path, not a loop."""
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        second = scheduler.before_prepare(kernel, global_txn(2), ["b", "c"])
        assert second.done

    def test_two_shared_sites_blocked(self):
        """Both transactions span {a, b}: admitting the second closes a
        loop through the two site nodes — the paper's restrictiveness
        argument at site granularity."""
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, timeout=50.0)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        second = scheduler.before_prepare(kernel, global_txn(2), ["a", "b"])
        assert not second.done
        assert scheduler.waiting_admissions() == 1

    def test_blocked_admission_proceeds_after_edges_removed(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, timeout=500.0)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        second = scheduler.before_prepare(kernel, global_txn(2), ["a", "b"])
        scheduler.note_finalized(global_txn(1), "a")
        scheduler.note_finalized(global_txn(1), "b")
        assert second.done

    def test_blocked_admission_times_out(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, timeout=30.0)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        second = scheduler.before_prepare(kernel, global_txn(2), ["a", "b"])
        kernel.run()
        assert isinstance(second.error, TransactionAborted)
        assert second.error.reason is RefusalReason.COMMIT_GRAPH_CYCLE
        assert scheduler.admission_timeouts == 1

    def test_indirect_loop_via_chain_blocked(self):
        """T1 over {a,b}, T2 over {b,c}: components {a,b,c} merged; T3
        over {a,c} would close a loop through the chain."""
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, timeout=10.0)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        scheduler.before_prepare(kernel, global_txn(2), ["b", "c"])
        third = scheduler.before_prepare(kernel, global_txn(3), ["a", "c"])
        assert not third.done

    def test_single_site_txn_never_blocked(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        single = scheduler.before_prepare(kernel, global_txn(2), ["a"])
        assert single.done

    def test_on_end_releases_everything(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, timeout=500.0)
        scheduler.before_prepare(kernel, global_txn(1), ["a", "b"])
        second = scheduler.before_prepare(kernel, global_txn(2), ["a", "b"])
        scheduler.on_end(global_txn(1), committed=False)
        assert second.done
        assert scheduler.edges().get(global_txn(1)) is None


class TestGlobalLocks:
    def test_read_then_write_conflict_blocks(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, timeout=1000.0)
        reader = scheduler.before_command(
            kernel, global_txn(1), "a", ReadItem("t", "X")
        )
        writer = scheduler.before_command(
            kernel, global_txn(2), "a", UpdateItem("t", "X", AddValue(1))
        )
        kernel.run(until=10.0)
        assert reader.done
        assert not writer.done  # S vs X on ("gtable", ("a", "t"))
        scheduler.on_end(global_txn(1), committed=True)
        kernel.run(until=20.0)
        assert writer.done

    def test_different_tables_do_not_conflict(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel)
        first = scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("t", "X", AddValue(1))
        )
        second = scheduler.before_command(
            kernel, global_txn(2), "a", UpdateItem("u", "X", AddValue(1))
        )
        assert first.done and second.done

    def test_same_table_different_sites_do_not_conflict(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel)
        first = scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("t", "X", AddValue(1))
        )
        second = scheduler.before_command(
            kernel, global_txn(2), "b", UpdateItem("t", "X", AddValue(1))
        )
        assert first.done and second.done


class TestEndToEnd:
    def build(self):
        system = MultidatabaseSystem(
            SystemConfig(sites=("a", "b"), n_coordinators=2, method="cgm")
        )
        system.load("a", "t", {"P": 1, "R": 2})
        system.load("b", "t", {"S": 3, "U": 4})
        return system

    def test_single_transaction_commits(self):
        system = self.build()
        spec = GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", UpdateItem("t", "P", AddValue(1))),
                ("b", UpdateItem("t", "S", AddValue(1))),
            ),
        )
        done = system.submit(spec)
        drain(system)
        assert done.value.committed
        assert audit(system).ok

    def test_concurrent_same_span_transactions_serialized(self):
        """Two transactions spanning {a, b} with disjoint data: 2CM
        commits them concurrently; CGM's site-granularity graph makes
        the second wait for the first — both commit, serialized."""
        system = self.build()
        t1 = GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", UpdateItem("t", "P", AddValue(1))),
                ("b", UpdateItem("t", "S", AddValue(1))),
            ),
            think_time=10.0,
        )
        t2 = GlobalTransactionSpec(
            txn=global_txn(2),
            steps=(
                ("a", UpdateItem("t", "R", AddValue(1))),
                ("b", UpdateItem("t", "U", AddValue(1))),
            ),
            think_time=10.0,
        )
        done1 = system.submit(t1, coordinator=0)
        done2 = system.submit(t2, coordinator=1)
        drain(system)
        assert done1.value.committed and done2.value.committed
        assert (
            system.scheduler.admission_waits >= 1
            or system.scheduler.global_locks.waits >= 1
        )
        assert audit(system).ok
