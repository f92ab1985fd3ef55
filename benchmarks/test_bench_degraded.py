"""Degraded-mode benchmark: throughput under message loss.

Runs the same seeded workload over a perfect wire and over lossy wires
(1% and 5% per-message drop) with the session layer repairing the
damage, and measures what the degradation costs: committed throughput,
retransmission overhead, and duplicate suppression.  Publishes the
table like every other experiment.
"""

from repro.core.coordinator import CoordinatorTimeouts
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliableConfig
from repro.sim.driver import run_schedule
from repro.sim.metrics import collect_metrics
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from bench_utils import publish, run_experiment

HEADERS = [
    "loss",
    "committed",
    "aborted",
    "throughput",
    "messages",
    "retransmits",
    "rtx-overhead",
    "dups-dropped",
]

LOSS_LEVELS = (0.0, 0.01, 0.05)


def _run_at(loss: float):
    config = SystemConfig(
        sites=("a", "b", "c"),
        n_coordinators=2,
        seed=17,
        faults=FaultPlan(loss=loss),
        reliable=ReliableConfig(seed=17),
        coordinator_timeouts=CoordinatorTimeouts(
            result_timeout=800.0,
            vote_timeout=800.0,
            ack_timeout=120.0,
            max_resends=400,
        ),
    )
    system = MultidatabaseSystem(config)
    schedule = WorkloadGenerator(
        WorkloadConfig(sites=("a", "b", "c"), n_global=40, seed=17)
    ).generate()
    result = run_schedule(system, schedule)
    metrics = collect_metrics(system, latencies=result.commit_latencies)
    system.close()
    return metrics


def _sweep():
    rows = []
    records = []
    for loss in LOSS_LEVELS:
        m = _run_at(loss)
        overhead = m.retransmits / m.messages if m.messages else 0.0
        rows.append(
            [
                f"{loss:.0%}",
                m.global_committed,
                m.global_aborted,
                round(m.throughput, 5),
                m.messages,
                m.retransmits,
                f"{overhead:.2%}",
                m.dups_dropped,
            ]
        )
        records.append(
            {
                "committed": m.global_committed,
                "aborted": m.global_aborted,
                "messages_lost": m.messages_lost,
                "retransmits": m.retransmits,
                "retransmit_overhead": overhead,
                "dead_letters": m.dead_letters,
            }
        )
    return rows, records


def test_bench_degraded_mode(benchmark):
    rows, records = run_experiment(benchmark, _sweep)
    publish(
        "E12_degraded",
        "E12: throughput under message loss (session layer on)",
        HEADERS,
        rows,
    )
    baseline, one, five = records
    # The perfect wire needs no repairs.
    assert baseline["retransmits"] == 0
    assert baseline["messages_lost"] == 0
    # Lossy wires really lost traffic, and the session layer repaired
    # it: every run still terminates with the same workload decided.
    for record in (one, five):
        assert record["messages_lost"] > 0
        assert record["retransmits"] > 0
        assert record["committed"] + record["aborted"] >= 40
    # Overhead grows with the loss rate.
    assert five["retransmit_overhead"] > one["retransmit_overhead"]
    # Nothing was abandoned: the retry budget absorbed 5% loss.
    assert five["dead_letters"] == 0
    # Commits survive degradation (the whole point of the layer).
    assert five["committed"] > 0
