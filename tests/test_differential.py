"""Differential testing: one workload, every method, relational facts.

Rather than asserting absolute numbers, these tests pin the *relations*
between the methods that the paper's comparison section predicts, on a
shared seeded workload.
"""

import pytest

from repro.core.dtm import METHODS, MultidatabaseSystem, SystemConfig
from repro.sim.driver import run_schedule
from repro.sim.failures import RandomFailureInjector
from repro.sim.metrics import audit, collect_metrics
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def run_method(method, seed=31, failures=0.0, n_global=20):
    system = MultidatabaseSystem(
        SystemConfig(
            sites=("a", "b", "c"), n_coordinators=2, method=method, seed=seed
        )
    )
    if failures:
        RandomFailureInjector(system, probability=failures, seed=seed)
    schedule = WorkloadGenerator(
        WorkloadConfig(
            sites=("a", "b", "c"),
            n_global=n_global,
            n_tables=4,
            keys_per_site=32,
            sites_max=2,
            seed=seed,
        )
    ).generate()
    result = run_schedule(system, schedule)
    return system, collect_metrics(system, latencies=result.commit_latencies)


@pytest.fixture(scope="module")
def failure_free():
    return {
        method: run_method(method)
        for method in ("2cm", "naive", "ticket", "cgm")
    }


@pytest.fixture(scope="module")
def with_failures():
    return {
        method: run_method(method, failures=0.4)
        for method in ("2cm", "naive", "ticket", "cgm")
    }


class TestFailureFreeRelations:
    def test_2cm_matches_naive_exactly(self, failure_free):
        """Without failures certification never fires: 2CM and naive
        produce the same committed counts and the same latencies."""
        cm = failure_free["2cm"][1]
        naive = failure_free["naive"][1]
        assert cm.global_committed == naive.global_committed
        assert cm.refusals_by_reason == {} == naive.refusals_by_reason

    def test_every_certifying_method_is_correct(self, failure_free):
        for method in ("2cm", "ticket", "cgm"):
            system, _metrics = failure_free[method]
            assert audit(system).ok, method

    def test_cgm_commits_no_more_than_2cm(self, failure_free):
        assert (
            failure_free["cgm"][1].global_committed
            <= failure_free["2cm"][1].global_committed
        )

    def test_cgm_not_faster_than_2cm(self, failure_free):
        assert (
            failure_free["cgm"][1].mean_latency
            >= failure_free["2cm"][1].mean_latency
        )

    def test_ticket_aborts_in_vain(self, failure_free):
        ticket = failure_free["ticket"][1]
        cm = failure_free["2cm"][1]
        assert ticket.global_aborted >= cm.global_aborted

    def test_message_counts_comparable(self, failure_free):
        """All decentralized methods use the same 2PC message pattern;
        per committed transaction the counts stay in a narrow band."""
        cm = failure_free["2cm"][1]
        naive = failure_free["naive"][1]
        assert cm.messages == naive.messages


class TestFailureRelations:
    def test_2cm_clean_under_failures(self, with_failures):
        system, metrics = with_failures["2cm"]
        assert audit(system).ok
        assert metrics.unilateral_aborts > 0  # failures really happened

    def test_naive_commits_at_least_as_many(self, with_failures):
        """Naive never refuses — it buys commits with corruption risk."""
        assert (
            with_failures["naive"][1].global_committed
            >= with_failures["2cm"][1].global_committed
        )

    def test_resubmissions_happen_under_all_agents(self, with_failures):
        for method in ("2cm", "naive", "ticket"):
            assert with_failures[method][1].resubmissions > 0, method

    def test_all_transactions_accounted_for(self, with_failures):
        for method, (system, metrics) in with_failures.items():
            assert metrics.global_committed + metrics.global_aborted == 20, (
                method
            )

    def test_force_writes_track_prepares_and_decisions(self, with_failures):
        """Every READY costs a prepare record, every local commit a
        commit record, every decision a coordinator record."""
        system, metrics = with_failures["2cm"]
        sites = system.config.sites
        ready = sum(system.agent(s).ready_sent for s in sites)
        commits = sum(system.agent(s).commits_done for s in sites)
        decisions = sum(c.decisions_logged for c in system.coordinators)
        assert metrics.force_writes == ready + commits + decisions
