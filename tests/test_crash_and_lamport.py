"""Tests for site crashes (collective abort) and paused-channel races."""

from repro.common.ids import SubtxnId, global_txn
from repro.core.agent import AgentConfig
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, ReadItem, UpdateItem
from repro.net.network import LatencyModel
from repro.sim.driver import run_schedule
from repro.sim.failures import PeriodicCrashInjector, inject_site_crash
from repro.sim.metrics import audit
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from tests.helpers import drain


def build(method="2cm", **kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    kwargs.setdefault("latency", LatencyModel(base=5.0))
    system = MultidatabaseSystem(SystemConfig(method=method, **kwargs))
    system.load("a", "t", {"X": 100, "Y": 50})
    system.load("b", "t", {"Z": 10})
    return system


class TestLtmCrash:
    def test_crash_aborts_every_active_txn(self):
        system = build()
        ltm = system.ltm("a")
        t1 = ltm.begin(SubtxnId(global_txn(1), "a", 0))
        t2 = ltm.begin(SubtxnId(global_txn(2), "a", 0))
        t1.execute(UpdateItem("t", "X", AddValue(1)))
        t2.execute(UpdateItem("t", "Y", AddValue(1)))
        system.run()
        victims = ltm.crash()
        assert len(victims) == 2
        assert ltm.active_txns() == []
        snapshot = {k.key: v for k, v in ltm.store.snapshot("t").items()}
        assert snapshot == {"X": 100, "Y": 50}  # before-images restored

    def test_crash_fires_uan_per_victim(self):
        system = build()
        ltm = system.ltm("a")
        seen = []
        ltm.on_unilateral_abort(seen.append)
        t1 = ltm.begin(SubtxnId(global_txn(1), "a", 0))
        t1.execute(ReadItem("t", "X"))
        system.run()
        ltm.crash()
        assert len(seen) == 1

    def test_crash_on_idle_site_is_noop(self):
        system = build()
        assert system.ltm("a").crash() == []

    def test_committed_state_survives_crash(self):
        system = build()
        ltm = system.ltm("a")
        t1 = ltm.begin(SubtxnId(global_txn(1), "a", 0))
        t1.execute(UpdateItem("t", "X", AddValue(1)))
        system.run()
        t1.commit()
        system.run()
        ltm.crash()
        snapshot = {k.key: v for k, v in ltm.store.snapshot("t").items()}
        assert snapshot["X"] == 101


class TestCrashDuringProtocol:
    def spec(self):
        return GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", UpdateItem("t", "X", AddValue(-5))),
                ("b", UpdateItem("t", "Z", AddValue(5))),
            ),
        )

    def test_crash_of_prepared_site_repaired_by_resubmission(self):
        system = build(
            agent=AgentConfig(alive_check_interval=15.0),
            latency=LatencyModel(
                base=5.0, overrides={("coord:c1", "agent:a"): 70.0}
            ),
        )
        done = system.submit(self.spec())

        def crash_after_decision(op):
            if op.kind is OpKind.GLOBAL_COMMIT:
                system.kernel.schedule(1.0, lambda: system.ltm("a").crash())

        system.history.subscribe(crash_after_decision)
        drain(system)
        assert done.value.committed
        assert system.agent("a").resubmissions == 1
        assert audit(system).ok

    def test_scheduled_crash_helper(self):
        system = build(agent=AgentConfig(alive_check_interval=10_000.0))
        spec = GlobalTransactionSpec(
            txn=global_txn(1),
            steps=self.spec().steps,
            think_time=40.0,
        )
        done = system.submit(spec)
        inject_site_crash(system, "a", at=30.0)  # while active
        drain(system)
        assert not done.value.committed  # refused at PREPARE (not alive)
        assert audit(system).ok

    def test_periodic_crashes_random_workload_stays_correct(self):
        system = MultidatabaseSystem(
            SystemConfig(sites=("a", "b"), n_coordinators=2, method="2cm")
        )
        PeriodicCrashInjector(system, period=60.0, count=4, seed=3)
        schedule = WorkloadGenerator(
            WorkloadConfig(
                sites=("a", "b"), n_global=10, keys_per_site=24, seed=3
            )
        ).generate()
        run_schedule(system, schedule)
        report = audit(system)
        assert report.rigor_violations == 0
        assert not report.distortions.has_global_distortion
        assert report.distortions.commit_graph_cycle is None


class TestPausedChannelRace:
    def test_hx_race_via_pause_resume(self):
        """Reproduce the Sec. 5.3 overtake dynamically: hold back only
        the PREPARE leg with pause_channel instead of a static latency
        override, and watch the extension refuse the late PREPARE."""
        from repro.common.errors import RefusalReason

        system = MultidatabaseSystem(
            SystemConfig(sites=("i", "s"), n_coordinators=2, method="2cm")
        )
        system.load("i", "t", {"I1": 1, "I2": 2})
        system.load("s", "t", {"S1": 3, "S2": 4})

        t7 = GlobalTransactionSpec(
            txn=global_txn(7),
            steps=(
                ("s", UpdateItem("t", "S1", AddValue(1))),
                ("i", UpdateItem("t", "I1", AddValue(1))),
            ),
        )
        t8 = GlobalTransactionSpec(
            txn=global_txn(8),
            steps=(
                ("i", UpdateItem("t", "I2", AddValue(2))),
                ("s", UpdateItem("t", "S2", AddValue(2))),
            ),
        )
        done7 = system.submit(t7, coordinator=0)
        # T7's s-commands finish around t=12; freeze its channel to s
        # before the PREPARE goes out, start T8, then release.
        system.kernel.schedule(
            20.0, lambda: system.network.pause_channel("coord:c1", "agent:s")
        )
        holder = {}
        system.kernel.schedule(
            25.0, lambda: holder.setdefault("done8", system.submit(t8, coordinator=1))
        )
        system.kernel.schedule(
            120.0, lambda: system.network.resume_channel("coord:c1", "agent:s")
        )
        drain(system)
        assert holder["done8"].value.committed
        outcome7 = done7.value
        assert not outcome7.committed
        assert outcome7.reason is RefusalReason.PREPARE_OUT_OF_ORDER
        assert audit(system).ok
