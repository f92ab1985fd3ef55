"""Property-based tests (hypothesis) for the core data structures and
the end-to-end correctness guarantee."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.ids import DataItemId, SubtxnId, global_txn
from repro.core.intervals import AliveInterval
from repro.history.committed import committed_projection
from repro.history.invariants import check_correctness_invariant
from repro.history.rigor import check_rigorous
from repro.history.viewser import check_view_serializable
from repro.kernel import EventKernel
from repro.ldbs.locks import LockManager, LockMode, compatible, covers, supremum
from repro.ldbs.storage import VersionedStore

from tests.helpers import HistoryBuilder

# ----------------------------------------------------------------------
# Alive intervals
# ----------------------------------------------------------------------

intervals = st.tuples(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
).map(lambda pair: AliveInterval(min(pair), max(pair)))


class TestIntervalProperties:
    @given(intervals, intervals)
    def test_intersection_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(intervals)
    def test_self_intersection(self, a):
        assert a.intersects(a)

    @given(intervals, st.floats(min_value=0, max_value=2000, allow_nan=False))
    def test_extension_monotone(self, a, end):
        extended = a.extended_to(end)
        assert extended.start == a.start
        assert extended.end >= a.end
        assert a.intersects(extended)

    @given(intervals, intervals, st.floats(min_value=0, max_value=2000))
    def test_extension_preserves_intersection(self, a, b, end):
        if a.intersects(b):
            assert a.extended_to(end).intersects(b)


# ----------------------------------------------------------------------
# Lock mode algebra
# ----------------------------------------------------------------------

modes = st.sampled_from(list(LockMode))


class TestLockModeProperties:
    @given(modes, modes)
    def test_supremum_commutative(self, a, b):
        assert supremum(a, b) is supremum(b, a)

    @given(modes, modes)
    def test_supremum_covers_both(self, a, b):
        sup = supremum(a, b)
        assert covers(sup, a) and covers(sup, b)

    @given(modes, modes, modes)
    def test_supremum_associative(self, a, b, c):
        assert supremum(supremum(a, b), c) is supremum(a, supremum(b, c))

    @given(modes, modes, modes)
    def test_stronger_mode_conflicts_more(self, held, a, b):
        """If sup(a,b) is compatible with a held mode, so are a and b."""
        if compatible(held, supremum(a, b)):
            assert compatible(held, a) and compatible(held, b)


# ----------------------------------------------------------------------
# Lock manager: random schedules keep holder sets compatible
# ----------------------------------------------------------------------


class TestLockManagerProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 6))
    def test_random_schedule_invariants(self, seed, n_owners):
        rng = random.Random(seed)
        kernel = EventKernel()
        lm = LockManager(kernel, default_timeout=50.0)
        owners = [SubtxnId(global_txn(n), "a", 0) for n in range(1, n_owners + 1)]
        resources = [("row", DataItemId("t", k)) for k in "XYZ"]
        for _step in range(30):
            action = rng.random()
            owner = rng.choice(owners)
            if action < 0.7:
                lm.acquire(
                    owner, rng.choice(resources), rng.choice(list(LockMode))
                )
            else:
                lm.release_all(owner)
            kernel.run(until=kernel.now + rng.uniform(0, 5))
            lm.assert_consistent()
        for owner in owners:
            lm.release_all(owner)
        kernel.run()
        lm.assert_consistent()
        # Everything released: all resources free.
        for resource in resources:
            assert lm.holders(resource) == {}


# ----------------------------------------------------------------------
# Versioned store: model-based undo correctness
# ----------------------------------------------------------------------


class TestStoreProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_undo_restores_model_snapshot(self, seed):
        rng = random.Random(seed)
        store = VersionedStore("a")
        store.load("t", {k: rng.randint(0, 9) for k in range(4)})
        committed_model = {
            item.key: value for item, value in store.snapshot("t").items()
        }
        txn = SubtxnId(global_txn(1), "a", 0)
        for _ in range(rng.randint(1, 10)):
            key = rng.randrange(6)
            if rng.random() < 0.6:
                store.write(txn, DataItemId("t", key), rng.randint(0, 9))
            else:
                store.delete(txn, DataItemId("t", key))
        store.undo(txn)
        after = {item.key: value for item, value in store.snapshot("t").items()}
        assert after == committed_model

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_commit_makes_changes_permanent(self, seed):
        rng = random.Random(seed)
        store = VersionedStore("a")
        store.load("t", {k: 0 for k in range(3)})
        model = {item.key: value for item, value in store.snapshot("t").items()}
        txn = SubtxnId(global_txn(1), "a", 0)
        for _ in range(rng.randint(1, 8)):
            key = rng.randrange(5)
            if rng.random() < 0.6:
                value = rng.randint(0, 9)
                store.write(txn, DataItemId("t", key), value)
                model[key] = value
            else:
                store.delete(txn, DataItemId("t", key))
                model.pop(key, None)
        store.commit(txn)
        store.undo(txn)  # no-op after commit
        after = {item.key: value for item, value in store.snapshot("t").items()}
        assert after == model


# ----------------------------------------------------------------------
# View-serializability checker: serial histories always accepted
# ----------------------------------------------------------------------


class TestViewserProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 5))
    def test_serial_histories_accepted(self, seed, n_txns):
        rng = random.Random(seed)
        h = HistoryBuilder()
        for number in range(1, n_txns + 1):
            for _ in range(rng.randint(1, 4)):
                key = rng.choice("WXYZ")
                if rng.random() < 0.5:
                    h.r(number, "a", key)
                else:
                    h.w(number, "a", key)
            h.c(number).cl(number, "a")
        result = check_view_serializable(committed_projection(h.history))
        assert result.serializable is True

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 4))
    def test_serial_with_failed_incarnations_accepted(self, seed, n_txns):
        """Serial execution where each transaction may first run an
        incarnation that unilaterally aborts, then a committing one —
        the replay semantics must accept these."""
        rng = random.Random(seed)
        h = HistoryBuilder()
        for number in range(1, n_txns + 1):
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 3)):
                    key = rng.choice("WXYZ")
                    if rng.random() < 0.5:
                        h.r(number, "a", key)
                    else:
                        h.w(number, "a", key)
                h.p(number, "a").al(number, "a", inc=0, unilateral=True)
                inc = 1
            else:
                h.p(number, "a")
                inc = 0
            for _ in range(rng.randint(1, 3)):
                key = rng.choice("WXYZ")
                if rng.random() < 0.5:
                    h.r(number, "a", key, inc=inc)
                else:
                    h.w(number, "a", key, inc=inc)
            h.c(number).cl(number, "a", inc=inc)
        result = check_view_serializable(committed_projection(h.history))
        assert result.serializable is True


# ----------------------------------------------------------------------
# End-to-end: the paper's guarantee under random failures
# ----------------------------------------------------------------------


class TestEndToEndGuarantee:
    @settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.integers(min_value=0, max_value=10_000))
    def test_2cm_audit_holds_under_random_failures(self, seed):
        """For random workloads with random unilateral aborts, a 2CM
        system always yields a rigorous substrate, an intact CI, no
        distortions, an acyclic CG and a view-serializable C(H)."""
        from repro.core.dtm import MultidatabaseSystem, SystemConfig
        from repro.sim.driver import run_schedule
        from repro.sim.failures import RandomFailureInjector
        from repro.sim.metrics import audit
        from repro.workload.generator import WorkloadConfig, WorkloadGenerator

        system = MultidatabaseSystem(
            SystemConfig(sites=("a", "b"), n_coordinators=2, seed=seed)
        )
        RandomFailureInjector(system, probability=0.4, seed=seed)
        schedule = WorkloadGenerator(
            WorkloadConfig(
                sites=("a", "b"),
                n_global=6,
                n_local=2,
                keys_per_site=16,
                seed=seed,
                update_fraction=0.6,
            )
        ).generate()
        run_schedule(system, schedule)
        report = audit(system, max_txns=9)
        assert report.rigor_violations == 0
        assert not report.distortions.has_global_distortion
        assert report.distortions.commit_graph_cycle is None
        assert report.view_serializability.serializable is True
        assert check_correctness_invariant(system.history) == []

    @settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.integers(min_value=0, max_value=10_000))
    def test_substrate_rigorous_under_any_method(self, seed):
        from repro.core.dtm import MultidatabaseSystem, SystemConfig
        from repro.sim.driver import run_schedule
        from repro.workload.generator import WorkloadConfig, WorkloadGenerator

        system = MultidatabaseSystem(
            SystemConfig(sites=("a", "b"), n_coordinators=2, method="naive")
        )
        schedule = WorkloadGenerator(
            WorkloadConfig(sites=("a", "b"), n_global=8, seed=seed)
        ).generate()
        run_schedule(system, schedule)
        assert check_rigorous(system.history.ops) == []


class TestScanPhantomGuarantee:
    @settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.integers(min_value=0, max_value=5_000))
    def test_scans_with_local_inserts_and_failures_stay_clean(self, seed):
        """End-to-end phantom protection: global scans + local inserts
        + unilateral aborts.  The table-level binding must keep every
        resubmitted decomposition stable."""
        from repro.core.dtm import MultidatabaseSystem, SystemConfig
        from repro.sim.driver import run_schedule
        from repro.sim.failures import RandomFailureInjector
        from repro.sim.metrics import audit
        from repro.workload.generator import WorkloadConfig, WorkloadGenerator

        system = MultidatabaseSystem(
            SystemConfig(sites=("a", "b"), n_coordinators=2, seed=seed)
        )
        RandomFailureInjector(system, probability=0.5, seed=seed)
        schedule = WorkloadGenerator(
            WorkloadConfig(
                sites=("a", "b"),
                n_global=6,
                n_local=6,
                n_tables=2,
                keys_per_site=10,
                scan_fraction=0.3,
                update_fraction=0.5,
                local_update_fraction=0.8,
                local_insert_fraction=0.6,
                seed=seed,
            )
        ).generate()
        run_schedule(system, schedule)
        report = audit(system)
        assert report.rigor_violations == 0
        assert not report.distortions.has_global_distortion
        assert report.ok


class TestAdversarialSearch:
    def test_search_is_deterministic(self):
        from repro.sim.adversary import search

        first = search(n_configs=10, seed=4, verify_2cm=False)
        second = search(n_configs=10, seed=4, verify_2cm=False)
        assert [c.describe() for c in first.corrupting] == [
            c.describe() for c in second.corrupting
        ]

    def test_failure_free_configs_never_corrupt(self):
        """The paper's lemma, fuzz-checked: without unilateral aborts of
        prepared subtransactions, no anomalies occur — so every
        corrupting configuration must carry an injected abort."""
        from repro.sim.adversary import search

        result = search(n_configs=30, seed=9, verify_2cm=False)
        assert all(
            config.abort_delay is not None for config in result.corrupting
        )

    def test_discovered_anomalies_fixed_by_2cm(self):
        from repro.sim.adversary import search

        result = search(n_configs=30, seed=2, verify_2cm=True)
        assert result.corrupting  # found some
        assert result.defeats_2cm == []
