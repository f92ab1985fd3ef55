"""The indexed certification engine: index correctness, epoch GC,
batched prepares, and the END-watermark GC of agent state.

The decision-for-decision equivalence of the two engines is proven
property-style in ``test_certifier_differential.py``; this module pins
the targeted edge cases (backward-moving keys, compaction, the batch
cursor) and the system-level wiring (engine selection, batching,
DONE-entry GC).
"""

import pytest

from repro.common.errors import ConfigError, RefusalReason, SimulationError
from repro.common.ids import SerialNumber, global_txn
from repro.core.agent import AgentConfig, AgentPhase
from repro.ablations import ABLATIONS
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.dtm import SystemConfig
from repro.core.intervals import AliveInterval
from repro.sim.metrics import audit, collect_metrics
from tests.fingerprint_util import fingerprint, run_seeded_workload
from tests.helpers import ablated_certifier


def sn(value, site="c1"):
    return SerialNumber(float(value), site, 0)


def make(engine="indexed", **kwargs):
    return Certifier("a", CertifierConfig(engine=engine, **kwargs))


class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            Certifier("a", CertifierConfig(engine="btree"))

    def test_unknown_engine_rejected_at_system_config(self):
        with pytest.raises(ConfigError):
            SystemConfig(certifier_engine="btree")

    def test_naive_engine_has_no_index(self):
        certifier = make("naive")
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        assert certifier.index_depth() == 0
        assert certifier.collect_garbage() == 0
        assert certifier.gc_compactions == 0


class TestGapMiss:
    """E14's interval memory: a candidate inside a gap between two
    remembered intervals must be refused — the endpoint bounds alone
    cannot see it, so the memory scans every remembered interval."""

    def test_gap_between_incarnations_refused(self):
        for engine in ("naive", "indexed"):
            certifier = ablated_certifier("memory", engine, depth=3)
            certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
            certifier.restart_interval(global_txn(1), 20.0)
            # Entry now knows [0, 10] and [20, 20]: bounds are [0, 20]
            # but [12, 15] falls in the gap.
            decision = certifier.certify_prepare(
                global_txn(2), sn(2), AliveInterval(12, 15)
            )
            assert not decision.ok, engine
            assert decision.reason is RefusalReason.ALIVE_INTERSECTION, engine

    def test_candidate_touching_archive_passes(self):
        certifier = ablated_certifier("memory", "indexed", depth=3)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.restart_interval(global_txn(1), 20.0)
        assert certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(5, 8)
        ).ok

    def test_gap_entry_removed_clears_the_scan_set(self):
        certifier = ablated_certifier("memory", "indexed", depth=3)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.restart_interval(global_txn(1), 20.0)
        certifier.remove(global_txn(1))
        assert certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(12, 15)
        ).ok


class TestBackwardMovingKeys:
    """restart_interval can move an entry's endpoints backwards; the
    lazy heaps must still answer with the *current* extrema."""

    def test_restart_shrinks_max_end(self):
        certifier = make()  # the restart forgets [0, 100]
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 100))
        certifier.restart_interval(global_txn(1), 5.0)
        # Entry is now [5, 5]; a candidate at [50, 60] misses it.
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(50, 60)
        )
        assert not decision.ok

    def test_restart_raises_min_start(self):
        certifier = make()
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.restart_interval(global_txn(1), 50.0)
        # Entry is now [50, 50]; a candidate ending before it misses.
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(0, 10)
        )
        assert not decision.ok


class TestEpochGC:
    def test_churn_triggers_compaction_and_bounds_the_index(self):
        certifier = make(gc_min_entries=16, gc_stale_factor=2.0)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 1))
        for t in range(2, 2000):
            certifier.extend_interval(global_txn(1), float(t))
        assert certifier.gc_compactions > 0
        assert certifier.gc_reclaimed > 0
        # One live entry: the index holds its records plus at most the
        # pre-sweep burst allowed by the threshold.
        assert certifier.index_depth() <= 4 * 16 + 8

    def test_forced_collect_garbage_reports_reclaimed(self):
        certifier = make(gc_min_entries=10_000)  # never auto-compacts
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 1))
        for t in range(2, 50):
            certifier.extend_interval(global_txn(1), float(t))
        depth_before = certifier.index_depth()
        reclaimed = certifier.collect_garbage()
        assert reclaimed > 0
        assert certifier.index_depth() < depth_before

    def test_decisions_unchanged_across_gc(self):
        certifier = make()
        certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(5, 15))
        certifier.restart_interval(global_txn(1), 30.0)
        probe = AliveInterval(40, 50)
        before = certifier.certify_prepare(global_txn(3), sn(30), probe)
        commit_before = certifier.certify_commit(global_txn(1))
        certifier.collect_garbage()
        after = certifier.certify_prepare(global_txn(4), sn(31), probe)
        commit_after = certifier.certify_commit(global_txn(1))
        assert (before.ok, before.reason) == (after.ok, after.reason)
        assert commit_before.ok == commit_after.ok


class TestCommitCertIndexed:
    def test_single_entry_table_commits(self):
        # Regression for the satellite fix: the pivot must never block
        # itself, with exactly one entry in the table.
        for engine in ("naive", "indexed"):
            for method in ("2cm", "2cm-prepare-order"):
                if method == "2cm":
                    certifier = make(engine)
                else:
                    certifier = ablated_certifier(method, engine)
                certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
                assert certifier.certify_commit(global_txn(1)).ok, (engine, method)

    def test_pivot_on_heap_top_is_skipped_not_lost(self):
        certifier = make()
        certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(0, 10))
        # T1 is the heap minimum AND the pivot: it must pass...
        assert certifier.certify_commit(global_txn(1)).ok
        # ...and must still block T2 afterwards (the record was pushed
        # back, not dropped).
        assert not certifier.certify_commit(global_txn(2)).ok
        certifier.remove(global_txn(1))
        assert certifier.certify_commit(global_txn(2)).ok

    def test_sn_less_entries_do_not_block(self):
        certifier = make()
        certifier.insert(global_txn(1), None, AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(0, 10))
        assert certifier.certify_commit(global_txn(2)).ok
        assert certifier.certify_commit(global_txn(1)).ok


class TestPrepareBatch:
    def run_batch(self, engine, members):
        certifier = make(engine)
        certifier.insert(global_txn(100), sn(100), AliveInterval(0, 10))
        batch = certifier.begin_prepare_batch()
        decisions = []
        for number, interval in members:
            decision = batch.certify(global_txn(number), sn(number), interval)
            decisions.append((decision.ok, decision.reason))
            if decision.ok:
                batch.admit(global_txn(number), sn(number), interval)
        return certifier, decisions

    def test_batch_matches_sequential_on_both_engines(self):
        members = [
            (1, AliveInterval(5, 15)),   # intersects the seed entry
            (2, AliveInterval(20, 30)),  # misses everything -> refused
            (3, AliveInterval(8, 12)),   # intersects seed + member 1
            (4, AliveInterval(14, 20)),  # misses member 3 -> refused
        ]
        naive_cert, naive_decisions = self.run_batch("naive", members)
        indexed_cert, indexed_decisions = self.run_batch("indexed", members)
        assert naive_decisions == indexed_decisions
        assert naive_decisions == [
            (True, None),
            (False, RefusalReason.ALIVE_INTERSECTION),
            (True, None),
            (False, RefusalReason.ALIVE_INTERSECTION),
        ]
        assert naive_cert.prepared_txns() == indexed_cert.prepared_txns()
        assert naive_cert.prepare_checks == indexed_cert.prepare_checks
        assert (
            naive_cert.prepare_refusals_intersection
            == indexed_cert.prepare_refusals_intersection
        )

    def test_batch_duplicate_raises(self):
        certifier = make()
        batch = certifier.begin_prepare_batch()
        batch.admit(global_txn(1), sn(1), AliveInterval(0, 10))
        with pytest.raises(SimulationError):
            batch.certify(global_txn(1), sn(1), AliveInterval(0, 10))

    def test_batch_respects_extension(self):
        certifier = make()
        certifier.insert(global_txn(1), sn(50), AliveInterval(0, 10))
        certifier.record_local_commit(global_txn(1))
        certifier.remove(global_txn(1))
        batch = certifier.begin_prepare_batch()
        decision = batch.certify(global_txn(2), sn(40), AliveInterval(0, 100))
        assert not decision.ok
        assert decision.reason is RefusalReason.PREPARE_OUT_OF_ORDER


@pytest.mark.parametrize("engine", ("naive", "indexed"))
@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_batch_matches_sequential_under_every_ablation(name, engine):
    """A batch must decide exactly what the ablated certifier's own
    ``certify_prepare`` decides: the snapshot answers only the paper's
    basic check, so an ablation that overrides it degrades the batch."""
    members = [
        (1, sn(1), AliveInterval(20, 30)),  # misses the seed entry
        (2, sn(2), AliveInterval(5, 15)),  # intersects the seed entry
        (3, sn(40), AliveInterval(0, 100)),  # below the committed SN 50
    ]
    outcomes = []
    for batched in (False, True):
        certifier = ablated_certifier(name, engine)
        certifier.insert(global_txn(99), sn(50), AliveInterval(0, 10))
        certifier.record_local_commit(global_txn(99))
        certifier.remove(global_txn(99))
        certifier.insert(global_txn(100), sn(100), AliveInterval(0, 10))
        batch = certifier.begin_prepare_batch()
        decisions = []
        for number, serial, interval in members:
            if batched:
                decision = batch.certify(global_txn(number), serial, interval)
            else:
                decision = certifier.certify_prepare(global_txn(number), serial, interval)
            decisions.append((decision.ok, decision.reason))
        outcomes.append(
            (
                decisions,
                certifier.prepare_checks,
                certifier.prepare_refusals_extension,
                certifier.prepare_refusals_intersection,
            )
        )
    assert outcomes[0] == outcomes[1]


class TestEngineEquivalenceEndToEnd:
    """The indexed engine is event-for-event identical on full runs:
    certification is synchronous, so equal decisions mean equal
    histories — the seed-revision goldens must keep matching."""

    GOLDEN_0 = "f9bbfd8388daa01d6911459d60bcb6a85548c4b6b38cb522b164488817bc5283"
    GOLDEN_13 = "82b01734dbac082ef00e18f15902d11448054bb21806f3328070fafab296e7d3"

    def test_failure_free_run_matches_golden(self):
        result = run_seeded_workload(0, certifier_engine="indexed")
        assert fingerprint(result) == self.GOLDEN_0

    def test_run_with_failures_matches_golden(self):
        # Failures drive restart_interval / recovery through the index.
        result = run_seeded_workload(
            13, failures=0.15, certifier_engine="indexed"
        )
        assert fingerprint(result) == self.GOLDEN_13

    def test_metrics_surface_index_counters(self):
        result = run_seeded_workload(0, certifier_engine="indexed")
        metrics = collect_metrics(result.system)
        # The run is too small to trigger a compaction, but the depth
        # gauge proves the index was live (or fully drained: >= 0).
        assert metrics.cert_gc_compactions >= 0
        assert metrics.cert_index_depth >= 0
        naive = collect_metrics(run_seeded_workload(0).system)
        assert naive.cert_index_depth == 0
        assert metrics.prepare_checks == naive.prepare_checks
        assert metrics.commit_delays == naive.commit_delays


class TestBatchedPreparesEndToEnd:
    def test_batched_run_commits_and_audits_clean(self):
        result = run_seeded_workload(
            3,
            certifier_engine="indexed",
            agent=AgentConfig(batch_prepares=True),
        )
        baseline = run_seeded_workload(3)
        # Batching defers READY replies by a microstep, so event order
        # (and with it retry interleavings) may differ — but the same
        # transactions commit and the history stays correct.
        assert sorted(result.committed_globals) == sorted(
            baseline.committed_globals
        )
        assert audit(result.system).ok
        batches = sum(
            agent.prepare_batches for agent in result.system.agents.values()
        )
        assert batches > 0
        assert collect_metrics(result.system).prepare_batches == batches


class TestDoneTxnGC:
    def test_end_watermark_forgets_done_entries(self):
        result = run_seeded_workload(
            0, agent=AgentConfig(gc_done_txns=True)
        )
        forgotten = 0
        for agent in result.system.agents.values():
            forgotten += agent.done_forgotten
            for state in agent._states.values():
                # Anything still tracked is not a sealed DONE entry.
                assert state.phase is not AgentPhase.DONE
        assert forgotten > 0
        assert collect_metrics(result.system).done_txns_forgotten == forgotten

    def test_default_config_keeps_done_entries(self):
        result = run_seeded_workload(0)
        kept = sum(
            1
            for agent in result.system.agents.values()
            for state in agent._states.values()
            if state.phase is AgentPhase.DONE
        )
        assert kept > 0
        assert all(
            agent.done_forgotten == 0
            for agent in result.system.agents.values()
        )

    def test_gc_run_matches_default_outcomes(self):
        gc = run_seeded_workload(5, agent=AgentConfig(gc_done_txns=True))
        default = run_seeded_workload(5)
        assert fingerprint(gc) == fingerprint(default)
