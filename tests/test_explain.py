"""Tests for the audit explainer (repro.history.explain)."""

from repro.common.ids import global_txn, local_txn
from repro.history.committed import committed_projection
from repro.history.explain import (
    explain,
    reads_from_table,
    serialization_constraints,
)
from repro.workload.scenarios import run_h1, run_h2

from tests.helpers import HistoryBuilder


class TestReadsFromTable:
    def test_first_reads_only(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").c(1).cl(1, "a")
        h.r(2, "a", "X").r(2, "a", "X").c(2).cl(2, "a")
        entries = reads_from_table(committed_projection(h.history))
        assert len(entries) == 1
        assert entries[0].source == global_txn(1)

    def test_own_writes_excluded(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").r(1, "a", "X").c(1).cl(1, "a")
        assert reads_from_table(committed_projection(h.history)) == []

    def test_incarnations_reported_separately(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").p(1, "a").c(1).al(1, "a", inc=0)
        h.w(2, "a", "X").c(2).cl(2, "a")
        h.r(1, "a", "X", inc=1).cl(1, "a", inc=1)
        entries = reads_from_table(committed_projection(h.history))
        t1 = [e for e in entries if e.reader == global_txn(1)]
        assert {e.incarnation for e in t1} == {0, 1}
        assert {e.source for e in t1} == {None, global_txn(2)}


class TestConstraints:
    def test_reads_from_gives_order(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").c(1).cl(1, "a")
        h.r(2, "a", "X").c(2).cl(2, "a")
        constraints = serialization_constraints(
            committed_projection(h.history)
        )
        assert any(
            c.before == global_txn(1) and c.after == global_txn(2)
            for c in constraints
        )

    def test_initial_read_orders_before_writers(self):
        h = HistoryBuilder()
        h.r(2, "a", "X").c(2).cl(2, "a")
        h.w(1, "a", "X").c(1).cl(1, "a")
        constraints = serialization_constraints(
            committed_projection(h.history)
        )
        assert any(
            c.before == global_txn(2) and c.after == global_txn(1)
            for c in constraints
        )

    def test_initial_read_constraints_follow_first_write_order(self):
        """Not hash order: ids of global transactions hash differently
        from one process to the next."""
        h = HistoryBuilder()
        h.r(1, "a", "X").c(1).cl(1, "a")
        for number in (5, 3, 9, 2, 7):
            h.w(number, "a", "X").c(number).cl(number, "a")
        constraints = serialization_constraints(committed_projection(h.history))
        assert [c.after.number for c in constraints] == [5, 3, 9, 2, 7]


class TestExplain:
    def test_h2_cycle_extracted(self):
        """The explainer derives the paper's H2 argument verbatim."""
        result = run_h2("naive")
        explanation = explain(
            committed_projection(result.system.history)
        )
        assert explanation.constraint_cycle is not None
        labels = {t.label for t in explanation.constraint_cycle}
        assert labels == {"T1", "T3", "L4"}
        text = explanation.render()
        assert "impossible" in text
        assert "commit-order graph cycle" in text

    def test_h1_distortion_sections(self):
        result = run_h1("naive")
        explanation = explain(
            committed_projection(result.system.history)
        )
        assert explanation.view_splits
        assert explanation.decomposition_changes
        assert "GLOBAL VIEW DISTORTION" in explanation.render()

    def test_clean_history_has_no_cycles(self):
        result = run_h2("2cm")
        explanation = explain(
            committed_projection(result.system.history)
        )
        assert explanation.constraint_cycle is None
        assert explanation.commit_order_cycle is None


class TestCliExplain:
    def test_scenario_explain_flag(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "H2", "--method", "naive", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "serialization constraints:" in out
        assert "impossible" in out
