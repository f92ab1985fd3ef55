"""Tests for the simulation driver and the metrics/audit layer."""

import pytest

from repro.common.errors import SimulationError
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.sim.driver import arm, run_schedule
from repro.sim.failures import RandomFailureInjector
from repro.sim.metrics import audit, collect_metrics
from repro.sim.report import render_table
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def small_workload(n_global=10, n_local=0, seed=1, **kwargs):
    return WorkloadGenerator(
        WorkloadConfig(
            sites=("a", "b"),
            n_global=n_global,
            n_local=n_local,
            keys_per_site=32,
            seed=seed,
            **kwargs,
        )
    ).generate()


def build(method="2cm", **kwargs):
    return MultidatabaseSystem(
        SystemConfig(sites=("a", "b"), n_coordinators=2, method=method, **kwargs)
    )


class TestDriver:
    def test_all_outcomes_collected(self):
        system = build()
        schedule = small_workload()
        result = run_schedule(system, schedule)
        assert len(result.global_outcomes) == 10
        assert result.finished_at > 0

    def test_failure_free_2cm_never_aborts_via_certification(self):
        """Sec. 6: failure-free 2CM aborts nothing *through its
        certifications*.  (Lock-wait timeouts — S2PL deadlock
        resolution — can still abort under any method.)"""
        system = build()
        result = run_schedule(system, small_workload(n_global=20, seed=3))
        metrics = collect_metrics(system)
        assert metrics.refusals_by_reason.get("alive-intersection", 0) == 0
        assert metrics.refusals_by_reason.get("prepare-out-of-order", 0) == 0
        assert metrics.commit_delays >= 0  # delays allowed, aborts not
        non_lock_aborts = [
            txn
            for txn in result.aborted_globals
            if result.global_outcomes[txn].reason.value != "lock-timeout"
        ]
        assert non_lock_aborts == []
        assert len(result.committed_globals) + len(result.aborted_globals) == 20

    def test_local_outcomes_collected(self):
        system = build()
        schedule = small_workload(n_global=5, n_local=4, seed=2)
        result = run_schedule(system, schedule)
        assert len(result.local_outcomes) == 4

    def test_latencies_positive(self):
        system = build()
        result = run_schedule(system, small_workload())
        assert all(lat > 0 for lat in result.commit_latencies)

    def test_retry_resubmits_aborted(self):
        system = build(method="ticket")
        injector = RandomFailureInjector(
            system, probability=0.5, seed=5, max_aborts_per_subtxn=1
        )
        schedule = small_workload(n_global=15, seed=4, update_fraction=1.0)
        result = run_schedule(system, schedule, retry_aborted=3)
        assert injector.injected > 0
        # Every original either committed directly or via a retry chain.
        assert result.logical_commit_fraction() == 1.0

    def test_deterministic_runs(self):
        first = run_schedule(build(seed=9), small_workload(seed=9))
        second = run_schedule(build(seed=9), small_workload(seed=9))
        assert (
            first.system.history.render() == second.system.history.render()
        )


def doomed_run():
    """A system whose coordinator process for the first global raises."""
    system = build()
    schedule = small_workload(n_global=4, n_local=2)
    victim = schedule.globals_[0].spec.txn

    def crashed():
        raise RuntimeError("coordinator bug")
        yield  # pragma: no cover - makes this a generator

    for coordinator in system.coordinators:
        run = coordinator._run
        coordinator._run = lambda spec, program=None, _run=run: (
            crashed() if spec.txn == victim else _run(spec, program)
        )
    return system, schedule, victim


class TestCoordinatorDeath:
    def test_run_schedule_raises_naming_the_transaction(self):
        system, schedule, victim = doomed_run()
        with pytest.raises(
            SimulationError, match=f"coordinator process for {victim} died"
        ):
            run_schedule(system, schedule)

    def test_settle_reports_it_and_keeps_the_rest(self):
        system, schedule, victim = doomed_run()
        run = arm(system, schedule)
        system.run()
        violations = run.settle()
        assert [v.kind for v in violations] == ["coordinator-death"]
        assert violations[0].txns == (str(victim),)
        assert victim in run.deaths and victim not in run.global_outcomes
        assert len(run.global_outcomes) == 3
        assert len(run.local_outcomes) == 2


class TestMetrics:
    def test_collect_counts_commits(self):
        system = build()
        result = run_schedule(system, small_workload(n_global=12, seed=6))
        metrics = collect_metrics(system, latencies=result.commit_latencies)
        assert metrics.global_committed == 12
        assert metrics.global_aborted == 0
        assert metrics.abort_rate == 0.0
        assert metrics.mean_latency > 0
        assert metrics.throughput > 0
        assert metrics.messages > 0
        assert metrics.force_writes > 0

    def test_refusals_bucketed_by_reason(self):
        from repro.workload.scenarios import run_h1

        result = run_h1("2cm")
        metrics = collect_metrics(result.system)
        assert metrics.refusals_by_reason.get("alive-intersection") == 1
        assert metrics.resubmissions == 1
        assert metrics.unilateral_aborts == 1

    def test_empty_metrics(self):
        metrics = collect_metrics(build())
        assert metrics.abort_rate == 0.0
        assert metrics.mean_latency == 0.0
        assert metrics.throughput == 0.0


class TestAudit:
    def test_clean_run_audits_ok(self):
        system = build()
        run_schedule(system, small_workload(n_global=15, seed=7))
        report = audit(system, max_txns=6)
        assert report.ok
        assert report.rigor_violations == 0
        assert not report.distortions.has_global_distortion

    def test_summary_renders(self):
        system = build()
        run_schedule(system, small_workload(n_global=3, seed=8))
        text = audit(system).summary()
        assert "view serializable: True" in text


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            "My table",
            ["method", "aborts", "ok"],
            [["2cm", 0, True], ["cgm", 12, False]],
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "method" in lines[2]
        assert "yes" in text and "no" in text

    def test_floats_formatted(self):
        text = render_table("t", ["x"], [[1.23456]])
        assert "1.235" in text
