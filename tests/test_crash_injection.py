"""Crash-injection: kill the 2PC Agent at any protocol point and
recover it purely from its durable log.

The acceptance property of the durability subsystem: for every crash
point, after recovery the global outcome is atomic — a globally
committed transaction locally commits at *every* participant and a
globally aborted one aborts at every participant — and the recorded
history still passes the full correctness audit.

Set ``REPRO_WAL_KEEP_DIR`` to keep the WAL directories on disk (the CI
crash-recovery job uploads them as artifacts when a test fails).
"""

import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.ids import global_txn
from repro.core.agent import CRASH_POINTS
from repro.core.coordinator import CoordinatorTimeouts, GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.durability import DurabilityConfig, scan_wal
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.network import LatencyModel
from repro.sim.driver import run_schedule
from repro.sim.failures import (
    AgentCrashInjector,
    RandomAgentCrashInjector,
    RandomFailureInjector,
)
from repro.sim.metrics import audit
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from tests.helpers import drain

TIMEOUTS = CoordinatorTimeouts(
    result_timeout=200.0, vote_timeout=150.0, ack_timeout=25.0
)


@pytest.fixture
def wal_root(tmp_path, request):
    """A per-test WAL directory, kept on disk for CI artifact upload
    when ``REPRO_WAL_KEEP_DIR`` is set."""
    keep = os.environ.get("REPRO_WAL_KEEP_DIR")
    if not keep:
        return tmp_path
    slug = re.sub(r"[^\w.-]+", "_", request.node.nodeid)
    root = Path(keep) / slug
    root.mkdir(parents=True, exist_ok=True)
    return root


def build(wal_root, **kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    kwargs.setdefault("latency", LatencyModel(base=5.0))
    kwargs.setdefault(
        "durability", DurabilityConfig(root=str(wal_root), sync="simulated")
    )
    kwargs.setdefault("coordinator_timeouts", TIMEOUTS)
    system = MultidatabaseSystem(SystemConfig(**kwargs))
    system.load("a", "t", {"X": 100})
    system.load("b", "t", {"Z": 10})
    return system


def spec(i=1):
    return GlobalTransactionSpec(
        txn=global_txn(i),
        steps=(
            ("a", UpdateItem("t", "X", AddValue(5))),
            ("b", UpdateItem("t", "Z", AddValue(5))),
        ),
    )


def snapshot(system, site):
    return {k.key: v for k, v in system.ltm(site).store.snapshot("t").items()}


def assert_atomic(system):
    """Globally committed ⇒ locally committed everywhere it ran;
    globally aborted ⇒ locally committed nowhere."""
    history = system.history
    committed = history.globally_committed()
    aborted = {
        op.txn for op in history.ops if op.kind is OpKind.GLOBAL_ABORT
    }
    local_commits = {
        (op.txn, op.site)
        for op in history.ops
        if op.kind is OpKind.LOCAL_COMMIT
    }
    touched = {}
    for op in history.ops:
        if op.site is not None and op.txn is not None:
            touched.setdefault(op.txn, set()).add(op.site)
    for txn in committed:
        for site in touched.get(txn, set()):
            assert (txn, site) in local_commits, (
                f"{txn} globally committed but not locally at {site}"
            )
    for txn in aborted:
        assert not any(t == txn for t, _ in local_commits), (
            f"{txn} globally aborted but locally committed somewhere"
        )


def assert_clean_wals(system, wal_root):
    system.close()
    for child in sorted(Path(wal_root).iterdir()):
        if child.is_dir():
            report = scan_wal(str(child))
            assert report.clean, f"{child}: {report.summary()}"


class TestKillAtEveryPoint:
    """The acceptance matrix: one scripted kill per protocol point."""

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_and_recover_is_atomic(self, wal_root, point):
        system = build(wal_root)
        injector = AgentCrashInjector(
            system, "a", point, restart_after=40.0
        )
        done = system.submit(spec())
        drain(system)

        assert injector.fired is not None, f"probe never hit {point}"
        assert system.agent("a").crashes == 1
        assert system.agent("a").restarts == 1
        assert done.done
        state_a, state_b = snapshot(system, "a"), snapshot(system, "b")
        if done.value.committed:
            assert state_a["X"] == 105 and state_b["Z"] == 15
        else:
            assert state_a["X"] == 100 and state_b["Z"] == 10
        assert_atomic(system)
        assert audit(system).ok
        assert_clean_wals(system, wal_root)

    @pytest.mark.parametrize(
        "point", ("post-ready", "post-commit-decision", "post-commit-record")
    )
    def test_post_promise_crashes_still_commit(self, wal_root, point):
        """Once the prepare record is forced and READY sent, the
        participant has promised: a crash after that point must not
        cost the global commit."""
        system = build(wal_root)
        AgentCrashInjector(system, "a", point, restart_after=40.0)
        done = system.submit(spec())
        drain(system)
        assert done.value.committed
        assert snapshot(system, "a")["X"] == 105
        assert snapshot(system, "b")["Z"] == 15
        assert audit(system).ok
        assert_clean_wals(system, wal_root)

    def test_pre_prepare_crash_aborts_globally(self, wal_root):
        """A silent voter is counted as REFUSE: the transaction aborts
        at every site, including the crashed one after it recovers."""
        system = build(wal_root)
        injector = AgentCrashInjector(
            system, "a", "pre-prepare", restart_after=40.0
        )
        system.submit(spec())
        drain(system)
        coordinator = system.coordinators[0]
        assert coordinator.aborted == 1
        assert coordinator.vote_timeouts == 1
        assert injector.fired is not None
        assert snapshot(system, "a")["X"] == 100
        assert snapshot(system, "b")["Z"] == 10
        assert_atomic(system)
        assert_clean_wals(system, wal_root)

    def test_crash_without_restart_fails_loudly(self, wal_root):
        """A site that never comes back exhausts the bounded resends:
        the run raises instead of hanging forever."""
        from repro.common.errors import SimulationError

        system = build(wal_root)
        injector = AgentCrashInjector(
            system, "a", "post-prepare", restart_after=None
        )
        done = system.submit(spec())
        drain(system)
        assert isinstance(done.error, SimulationError)
        assert "no rollback-ack" in str(done.error)
        assert system.agent("a").crashed
        assert injector.recovered_txns is None
        # Site b obeyed the rollback before delivery to a gave up.
        assert snapshot(system, "b")["Z"] == 10

    def test_unknown_point_rejected(self, wal_root):
        system = build(wal_root)
        with pytest.raises(ConfigError):
            AgentCrashInjector(system, "a", "mid-quantum")


class TestCrashUnderLoad:
    def test_random_agent_crashes_stay_atomic(self, wal_root):
        system = build(
            wal_root,
            n_coordinators=2,
            latency=LatencyModel(base=2.0),
        )
        injector = RandomAgentCrashInjector(
            system,
            probability=0.08,
            min_downtime=10.0,
            max_downtime=40.0,
            seed=7,
        )
        schedule = WorkloadGenerator(
            WorkloadConfig(
                sites=("a", "b"), n_global=12, keys_per_site=24, seed=7
            )
        ).generate()
        run_schedule(system, schedule)
        drain(system, limit=50_000.0)
        assert injector.crash_log, "no crash fired; weaken the odds"
        assert_atomic(system)
        report = audit(system)
        assert report.rigor_violations == 0
        assert not report.distortions.has_global_distortion
        assert_clean_wals(system, wal_root)


class TestKillPointFuzz:
    """Short Hypothesis fuzz over (site, point, downtime)."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        site=st.sampled_from(("a", "b")),
        point=st.sampled_from(CRASH_POINTS),
        downtime=st.floats(min_value=1.0, max_value=120.0),
    )
    def test_any_kill_is_atomic(self, site, point, downtime):
        with tempfile.TemporaryDirectory() as root:
            system = build(Path(root))
            AgentCrashInjector(system, site, point, restart_after=downtime)
            done = system.submit(spec())
            drain(system)
            assert done.done
            state_a, state_b = snapshot(system, "a"), snapshot(system, "b")
            if done.value.committed:
                assert state_a["X"] == 105 and state_b["Z"] == 15
            else:
                assert state_a["X"] == 100 and state_b["Z"] == 10
            assert_atomic(system)
            assert audit(system).ok
            assert_clean_wals(system, root)


class TestCoordinatorTakeover:
    def test_resume_in_doubt_redelivers_and_ends(self, wal_root):
        """A decision sealed in the log but never delivered is finished
        by ``resume_in_doubt`` — the agents see COMMIT for a transaction
        they no longer know and idempotently re-ack."""
        from repro.durability import Decision

        system = build(wal_root)
        coordinator = system.coordinators[0]
        assert coordinator.decision_log is not None
        # Seal a decision as a dead predecessor would have, without
        # any delivery having happened.
        coordinator.decision_log.log_decision(
            Decision(
                txn=global_txn(9), committed=True, sn=None, sites=("a", "b")
            )
        )
        assert [d.txn for d in coordinator.decision_log.in_doubt()] == [
            global_txn(9)
        ]
        resumed = coordinator.resume_in_doubt()
        assert resumed == 1
        drain(system)
        assert coordinator.decision_log.in_doubt() == []
        assert_clean_wals(system, wal_root)

    def test_takeover_replaces_network_registration(self, wal_root):
        from repro.core.coordinator import Coordinator

        system = build(wal_root)
        old = system.coordinators[0]
        successor = Coordinator(
            name=old.name,
            site=old.site,
            kernel=system.kernel,
            network=system.network,
            history=system.history,
            sn_generator=old.sn_generator,
            timeouts=TIMEOUTS,
            decision_log=old.decision_log,
            takeover=True,
        )
        assert system.network._handlers[successor.address] == (
            successor._on_message
        )
        assert successor.resume_in_doubt() == 0
        system.close()

    def test_duplicate_registration_without_takeover_rejected(
        self, wal_root
    ):
        from repro.core.coordinator import Coordinator

        system = build(wal_root)
        old = system.coordinators[0]
        with pytest.raises(ConfigError):
            Coordinator(
                name=old.name,
                site=old.site,
                kernel=system.kernel,
                network=system.network,
                history=system.history,
                sn_generator=old.sn_generator,
            )
        system.close()


class TestInjectorDeterminism:
    """Satellite: same seed ⇒ identical schedules, different ⇒ not."""

    def run_storm(self, seed):
        system = MultidatabaseSystem(
            SystemConfig(sites=("a", "b"), method="2cm")
        )
        injector = RandomFailureInjector(
            system, probability=0.6, max_delay=30.0, seed=seed
        )
        schedule = WorkloadGenerator(
            WorkloadConfig(
                sites=("a", "b"), n_global=10, keys_per_site=16, seed=3
            )
        ).generate()
        run_schedule(system, schedule)
        return injector.schedule_log

    def test_same_seed_same_abort_schedule(self):
        first, second = self.run_storm(5), self.run_storm(5)
        assert first and first == second

    def test_different_seed_different_schedule(self):
        assert self.run_storm(5) != self.run_storm(6)

    def test_random_crash_injector_log_is_deterministic(self, tmp_path):
        def run(seed, root):
            system = build(root)
            injector = RandomAgentCrashInjector(
                system, probability=0.3, seed=seed
            )
            for i in range(1, 6):
                system.submit(
                    GlobalTransactionSpec(
                        txn=global_txn(i),
                        steps=(
                            ("a", UpdateItem("t", "X", AddValue(1))),
                            ("b", UpdateItem("t", "Z", AddValue(1))),
                        ),
                        think_time=float(i) * 5.0,
                    )
                )
            drain(system, limit=50_000.0)
            log = injector.crash_log
            system.close()
            return log

        first = run(4, tmp_path / "one")
        second = run(4, tmp_path / "two")
        third = run(5, tmp_path / "three")
        assert first == second
        assert first != third
