"""Tests for the exact view-serializability checker (repro.history.viewser).

The builder's writer-tag replay gives every read its physical source,
so hand-built histories carry exactly the reads-from information the
live system records.
"""

import sys

from repro.common.ids import global_txn
from repro.history.committed import committed_projection
from repro.history.viewser import check_view_serializable

from tests.helpers import HistoryBuilder


def check(h, **kwargs):
    return check_view_serializable(committed_projection(h.history), **kwargs)


class TestTrivial:
    def test_empty_history(self):
        h = HistoryBuilder()
        result = check(h)
        assert result.serializable is True
        assert result.order == []

    def test_single_transaction(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").w(1, "a", "Y").c(1).cl(1, "a")
        result = check(h)
        assert result.serializable is True
        assert result.order == [global_txn(1)]


class TestSerialAndSerializable:
    def test_serial_execution_accepted(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").c(1).cl(1, "a")
        h.r(2, "a", "X").w(2, "a", "Y").c(2).cl(2, "a")
        result = check(h)
        assert result.serializable is True
        assert result.order == [global_txn(1), global_txn(2)]

    def test_interleaved_but_conflict_serializable(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").r(2, "a", "Y")
        h.w(1, "a", "X").cl(1, "a")
        h.w(2, "a", "Y")
        h.c(1)
        h.c(2).cl(2, "a")
        result = check(h)
        assert result.serializable is True
        assert result.reason == "SG acyclic"


class TestClassicAnomalies:
    def test_lost_update_style_cycle_rejected(self):
        """r1[X] r2[X] w1[X] w2[X] — not view serializable."""
        h = HistoryBuilder()
        h.r(1, "a", "X").r(2, "a", "X")
        h.w(1, "a", "X").cl(1, "a").c(1)
        h.w(2, "a", "X").cl(2, "a").c(2)
        result = check(h)
        assert result.serializable is False

    def test_write_skew_between_two_items(self):
        """r1[X] r2[Y] w1[Y] w2[X] with both reading initial values —
        serializable is impossible (each must precede the other)."""
        h = HistoryBuilder()
        h.r(1, "a", "X").r(2, "a", "Y")
        h.w(1, "a", "Y").w(2, "a", "X")
        h.cl(1, "a").cl(2, "a").c(1).c(2)
        result = check(h)
        assert result.serializable is False

    def test_view_serializable_but_not_conflict_serializable(self):
        """The textbook blind-write case: H = w1[X] w2[X] w2[Y] w1[Y]
        w3[X] w3[Y] ... with T3 writing last.  SG is cyclic (T1→T2 on X,
        T2→T1 on Y) yet the history is view equivalent to T1 T2 T3 or
        T2 T1 T3 because T3 overwrites everything and nobody reads."""
        h = HistoryBuilder()
        h.w(1, "a", "X")
        h.w(2, "a", "X").w(2, "a", "Y")
        h.w(1, "a", "Y")
        h.cl(1, "a").cl(2, "a").c(1).c(2)
        h.w(3, "a", "X").w(3, "a", "Y").cl(3, "a").c(3)
        result = check(h)
        assert result.serializable is True
        assert result.order is not None
        assert result.order[-1] == global_txn(3)


class TestResubmissionSemantics:
    def test_global_view_distortion_rejected(self):
        """H1's essence: T1's two incarnations read X from different
        sources — no serial arrangement can reproduce that."""
        h = HistoryBuilder()
        h.r(1, "a", "X").p(1, "a").c(1).al(1, "a", inc=0)
        h.w(2, "a", "X").c(2).cl(2, "a")
        h.r(1, "a", "X", inc=1).cl(1, "a", inc=1)
        result = check(h)
        assert result.serializable is False

    def test_aborted_incarnation_write_is_undone_in_replay(self):
        """T1's aborted incarnation wrote X; T2 read X afterwards and
        must see the initial value, not the undone write."""
        h = HistoryBuilder()
        h.w(1, "a", "X", inc=0).p(1, "a").c(1).al(1, "a", inc=0)
        h.r(2, "a", "X").c(2).cl(2, "a")   # reads X from T0 (undone write)
        h.w(1, "a", "X", inc=1).cl(1, "a", inc=1)
        result = check(h)
        # Serializable: T2 before T1 (T2 saw initial X, T1's surviving
        # write lands after).
        assert result.serializable is True
        order = result.order
        assert order.index(global_txn(2)) < order.index(global_txn(1))

    def test_dirty_read_from_excluded_txn_rejected(self):
        """A read sourced from a transaction outside C(H) (a dirty read
        under a non-rigorous LTM) can never be matched."""
        h = HistoryBuilder()
        h.w(2, "a", "X")                      # T2 writes, never commits globally
        h.r(1, "a", "X").c(1).cl(1, "a")      # T1 read T2's dirty write
        result = check(h)
        assert result.serializable is False
        assert "dirty read" in result.reason


class TestFinalWrites:
    def test_final_write_mismatch_rejected(self):
        """T1 and T2 blind-write X; physical final writer is T2; an
        order putting T1 last would flip the final write.  The checker
        must find T1 < T2 (both orders match reads trivially — no reads
        — so only the final-write condition selects)."""
        h = HistoryBuilder()
        h.w(1, "a", "X").w(2, "a", "X")
        h.cl(1, "a").cl(2, "a").c(1).c(2)
        result = check(h)
        assert result.serializable is True
        assert result.order.index(global_txn(2)) > result.order.index(global_txn(1))


class TestSearchBounds:
    def test_undecided_beyond_bound_with_cyclic_sg(self):
        h = HistoryBuilder()
        # Three pairwise write-write cycles -> cyclic SG, 4 txns, bound 3.
        h.r(1, "a", "X").r(2, "a", "X").r(3, "a", "X").r(4, "a", "X")
        h.w(1, "a", "X").w(2, "a", "X").w(3, "a", "X").w(4, "a", "X")
        h.cl(1, "a").cl(2, "a").cl(3, "a").cl(4, "a")
        h.c(1).c(2).c(3).c(4)
        result = check(h, max_txns=3)
        assert result.serializable is None
        assert "exceed" in result.reason

    def test_permutation_counter_reported(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").r(2, "a", "X")
        h.w(1, "a", "X").cl(1, "a").c(1)
        h.w(2, "a", "X").cl(2, "a").c(2)
        result = check(h)
        assert result.permutations_tried >= 1


class TestLongHistories:
    def test_thousand_globals_audit_under_the_default_recursion_limit(self, tmp_path):
        """1 000 globals + 250 locals under the hardened recipe (indexed
        certifier, WAL, session and overload layers, 30 % unilateral
        aborts).  This seed's SG has small cycles, so the SCC-guided
        search places all ~1 250 transactions one level deeper each; a
        search that recursed per level overflowed the default limit."""
        from repro.core.dtm import MultidatabaseSystem, SystemConfig
        from repro.durability.config import DurabilityConfig
        from repro.net.reliable import ReliableConfig
        from repro.overload.config import OverloadConfig
        from repro.sim.driver import run_schedule
        from repro.sim.failures import RandomFailureInjector, invariant_battery
        from repro.workload.generator import WorkloadConfig, WorkloadGenerator

        seed = 0
        system = MultidatabaseSystem(
            SystemConfig(
                sites=("a", "b", "c"),
                n_coordinators=2,
                seed=seed,
                certifier_engine="indexed",
                durability=DurabilityConfig(root=str(tmp_path)),
                reliable=ReliableConfig(),
                overload=OverloadConfig(),
            )
        )
        RandomFailureInjector(system, probability=0.3, seed=seed)
        schedule = WorkloadGenerator(
            WorkloadConfig(
                n_global=1000,
                n_local=250,
                sites_max=2,
                mean_interarrival=8.0,
                seed=seed,
            )
        ).generate()
        run_schedule(system, schedule)
        system.close()

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            result = check_view_serializable(committed_projection(system.history))
            violations = invariant_battery(system, include_ci=True)
        finally:
            sys.setrecursionlimit(limit)
        assert result.serializable is True
        assert result.reason == "SCC-guided search"
        assert len(result.order) > 1000
        assert violations == []
