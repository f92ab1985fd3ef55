"""The oracle itself, under test: every checker must fire.

The explorer (and the chaos/overload drills) trust
:mod:`repro.history.invariants` and the shared
:func:`~repro.sim.failures.invariant_battery` to recognise a corrupted
run.  A silent checker would turn the whole search into a green-wash,
so each one gets a hand-crafted violating input here — and the
structured :class:`~repro.history.invariants.Violation` reports are
checked for the context (transaction ids, per-site outcomes) the
shrunk-repro files carry.
"""

import types

from tests.helpers import HistoryBuilder, drain

from repro.common.ids import global_txn
from repro.core.agent import AgentPhase
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.invariants import (
    Violation,
    check_atomic_commitment,
    check_correctness_invariant,
    check_history,
)
from repro.ldbs.commands import AddValue, UpdateItem
from repro.sim.failures import invariant_battery
from repro.sim.metrics import audit
from repro.workload.scenarios import run_h3


class TestViolationStructure:
    def test_to_dict_round_trips_fields(self):
        violation = Violation(
            kind="atomicity",
            detail="T1 split-brained",
            txns=("T1",),
            sites=("a", "b"),
            context={"decision": "commit"},
        )
        data = violation.to_dict()
        assert data["kind"] == "atomicity"
        assert data["txns"] == ["T1"]
        assert data["sites"] == ["a", "b"]
        assert data["context"]["decision"] == "commit"

    def test_with_context_merges_and_preserves(self):
        violation = Violation(kind="quiesce", detail="stuck", context={"pending": 3})
        extended = violation.with_context(trace_length=40, deviations=[19])
        assert extended.context["pending"] == 3
        assert extended.context["trace_length"] == 40
        assert violation.context == {"pending": 3}  # original untouched

    def test_str_is_the_detail(self):
        assert str(Violation(kind="x", detail="the story")) == "the story"


class TestCorrectnessInvariantFires:
    def test_ci_part_one_simultaneous_conflicting_prepared(self):
        # T1 prepares at a with a write on Y, dies unilaterally (window
        # stays open), then T2 — also touching Y — prepares into it.
        h = HistoryBuilder()
        h.r(1, "a", "X").w(1, "a", "Y").p(1, "a")
        h.al(1, "a", unilateral=True)
        h.w(2, "a", "Y").p(2, "a")
        h.c(2).cl(2, "a")
        violations = check_correctness_invariant(h.history)
        assert any(v.part == 1 for v in violations)
        structured = [v for v in check_history(h.history) if v.kind == "ci.1"]
        assert structured, "check_history must surface CI.1 as a Violation"
        assert "T1" in structured[0].txns and "T2" in structured[0].txns
        assert structured[0].sites == ("a",)
        assert "item" in structured[0].context

    def test_ci_part_two_prepare_of_dead_incarnation(self):
        h = HistoryBuilder()
        h.w(1, "a", "X")
        h.al(1, "a", unilateral=True)
        h.p(1, "a")  # prepared while its incarnation is dead
        violations = check_correctness_invariant(h.history)
        assert any(v.part == 2 for v in violations)
        structured = [v for v in check_history(h.history) if v.kind == "ci.2"]
        assert structured and structured[0].txns == ("T1",)

    def test_clean_history_stays_clean(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").p(1, "a").c(1).cl(1, "a")
        h.w(2, "a", "Y").p(2, "a").c(2).cl(2, "a")
        assert check_history(h.history) == []


class TestAtomicCommitmentFires:
    def test_mixed_final_outcomes(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").w(1, "b", "Z")
        h.p(1, "a").p(1, "b").c(1)
        h.cl(1, "a")
        h.al(1, "b", unilateral=False)  # final rollback at b
        violations = check_atomic_commitment(h.history)
        assert len(violations) == 1
        v = violations[0].to_violation()
        assert v.kind == "atomicity"
        assert v.txns == ("T1",)
        assert v.context["outcomes"] == {"a": "commit", "b": "abort"}
        assert v.context["decision"] == "commit"

    def test_decision_contradicted_by_single_site(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").p(1, "a")
        h.a(1)  # global decision: abort
        h.cl(1, "a")  # ... yet a commits
        violations = check_atomic_commitment(h.history)
        assert len(violations) == 1
        assert violations[0].decision == "abort"
        assert violations[0].committed_sites == ("a",)

    def test_unilateral_abort_is_not_a_final_outcome(self):
        # Unilateral abort then resubmission then commit: clean.
        h = HistoryBuilder()
        h.w(1, "a", "X").w(1, "b", "Z")
        h.p(1, "a").p(1, "b").c(1)
        h.al(1, "a", unilateral=True)  # not final — agent resubmits
        h.w(1, "a", "X", inc=1)
        h.cl(1, "a", inc=1)
        h.cl(1, "b")
        assert check_atomic_commitment(h.history) == []


class TestInvariantBattery:
    def test_orphaned_prepared_scan_fires(self):
        system = MultidatabaseSystem(SystemConfig(sites=("a", "b")))
        try:
            agent = system.agent("a")
            agent._states["T9"] = types.SimpleNamespace(
                txn="T9", phase=AgentPhase.PREPARED
            )
            violations = invariant_battery(system)
            orphans = [v for v in violations if v.kind == "orphaned-prepared"]
            assert len(orphans) == 1
            assert orphans[0].sites == ("a",)
            assert orphans[0].txns == ("T9",)
        finally:
            system.close()

    def test_quiet_system_is_clean(self):
        system = MultidatabaseSystem(SystemConfig(sites=("a", "b")))
        try:
            assert invariant_battery(system, include_ci=True) == []
        finally:
            system.close()


def h3_plus_eight_bystanders(method):
    """The paper's H3 plus 8 single-site globals on fresh tables: 12
    transactions in C(H), too many for the exact view-serializability
    search once H3's anomaly makes SG cyclic."""
    system = run_h3(method).system
    for i in range(8):
        site, table = "ab"[i % 2], f"fresh{i}"
        system.load(site, table, {"K": 0})
        system.submit(
            GlobalTransactionSpec(
                txn=global_txn(100 + i),
                steps=((site, UpdateItem(table, "K", AddValue(1))),),
            )
        )
    drain(system)
    return system


class TestUndecidedVerdict:
    """Where view serializability is undecided, Sec. 5's sufficient
    condition (an acyclic CG) must stand in — not a free pass."""

    def test_cyclic_cg_is_reported_when_viewser_is_undecided(self):
        system = h3_plus_eight_bystanders("2cm-nocommitcert")
        report = audit(system)
        assert len(report.projection.txns) == 12
        assert report.view_serializability.serializable is None
        assert not report.ok
        violations = invariant_battery(system, include_ci=True)
        assert [v.kind for v in violations] == ["audit.cg-cycle"]
        assert set(violations[0].txns) == {"T5", "L7", "T6", "L8"}

    def test_same_construction_under_2cm_is_clean(self):
        system = h3_plus_eight_bystanders("2cm")
        assert audit(system).view_serializability.serializable is True
        assert invariant_battery(system, include_ci=True) == []
