"""Tests for the phantom-insert DLU extension and the conflict-aware
certification ablation (E17 material)."""

import pytest

from repro.common.errors import RefusalReason
from repro.common.ids import global_txn, local_txn
from repro.core.agent import AgentConfig
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, InsertItem, ScanTable, UpdateItem
from repro.ldbs.dlu import DLUPolicy
from repro.net.network import LatencyModel
from repro.sim.failures import inject_abort_after_global_commit
from repro.sim.metrics import audit
from repro.workload.scenarios import run_h2_indirect

from tests.helpers import drain


class TestPhantomBinding:
    """DLU must cover predicate extents: a local INSERT into a table
    scanned by a prepared transaction would change the resubmitted
    decomposition (the paper's footnote-4 stability assumption)."""

    def build(self, dlu_policy=DLUPolicy.ABORT):
        system = MultidatabaseSystem(
            SystemConfig(
                sites=("a", "b"),
                method="2cm",
                dlu_policy=dlu_policy,
                latency=LatencyModel(
                    base=5.0, overrides={("coord:c1", "agent:a"): 80.0}
                ),
                agent=AgentConfig(alive_check_interval=500.0),
            )
        )
        system.load("a", "t", {1: 10, 2: 20})
        system.load("b", "t", {9: 90})
        return system

    def scan_spec(self):
        return GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", ScanTable("t")),
                ("b", UpdateItem("t", 9, AddValue(1))),
            ),
        )

    def test_local_insert_into_scanned_table_denied(self):
        system = self.build()
        done = system.submit(self.scan_spec())
        inject_abort_after_global_commit(system, global_txn(1), "a", delay=1.0)
        local_result = {}

        def insert_phantom(op):
            if (
                "ev" not in local_result
                and op.kind is OpKind.LOCAL_ABORT
                and op.site == "a"
                and not op.txn.is_local
            ):
                local_result["ev"] = system.submit_local(
                    "a", [InsertItem("t", 3, 30)], number=4
                )

        system.history.subscribe(insert_phantom)
        drain(system)
        assert done.value.committed
        outcome = local_result["ev"].value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.DLU
        # With the phantom denied, the resubmitted scan decomposed
        # identically and the audit is clean.
        assert audit(system).ok

    def test_violate_policy_lets_phantom_distort(self):
        system = self.build(dlu_policy=DLUPolicy.VIOLATE)
        done = system.submit(self.scan_spec())
        inject_abort_after_global_commit(system, global_txn(1), "a", delay=1.0)
        local_result = {}

        def insert_phantom(op):
            if (
                "ev" not in local_result
                and op.kind is OpKind.LOCAL_ABORT
                and op.site == "a"
                and not op.txn.is_local
            ):
                local_result["ev"] = system.submit_local(
                    "a", [InsertItem("t", 3, 30)], number=4
                )

        system.history.subscribe(insert_phantom)
        drain(system)
        assert done.value.committed
        assert local_result["ev"].value.committed
        report = audit(system)
        # The resubmitted scan saw the phantom: decomposition changed.
        assert report.distortions.decomposition_changes
        assert not report.ok

    def test_unbind_releases_table_binding(self):
        system = self.build()
        done = system.submit(self.scan_spec())
        drain(system)
        assert done.value.committed
        late = system.submit_local("a", [InsertItem("t", 3, 30)], number=5)
        drain(system)
        assert late.value.committed  # nothing bound any more


class TestConflictAwareAblation:
    """The E17 story: the predicate-style (access-set) certification is
    less restrictive but cannot see indirect conflicts through local
    transactions; the paper's conflict-blind interval rule can."""

    def test_2cm_refuses_t3_and_no_local_casualties(self):
        result = run_h2_indirect("2cm")
        assert not result.outcome(3).committed
        assert result.outcome(3).reason is RefusalReason.ALIVE_INTERSECTION
        assert result.audit.ok

    def test_conflict_aware_passes_t3(self):
        result = run_h2_indirect("2cm-conflict-aware")
        # Disjoint access sets at site a ({X,Y} vs {Q}): the variant
        # sees no conflict and lets T3 through.
        assert result.outcome(3).committed

    def test_conflict_aware_converts_anomaly_into_deadlock(self):
        """With commit certification on, the indirect cycle cannot
        complete — it materializes as a deadlock whose victim is the
        bridging local transaction L4 (killed by the lock timeout)."""
        result = run_h2_indirect("2cm-conflict-aware")
        l4 = result.local_outcome(4, "a")
        assert not l4.committed
        assert l4.reason is RefusalReason.LOCK_TIMEOUT
        # Correctness survives — thanks to the commit certification
        # backstop, at the price of a local casualty the interval rule
        # never inflicts.
        assert result.audit.view_serializability.serializable is True

    def test_naive_shows_the_corruption_conflict_awareness_risks(self):
        result = run_h2_indirect("naive")
        assert result.local_outcome(4, "a").committed
        assert result.audit.view_serializability.serializable is False
        cycle = result.audit.distortions.commit_graph_cycle
        assert cycle is not None
        assert {t.label for t in cycle} == {"T1", "T3", "L4"}
