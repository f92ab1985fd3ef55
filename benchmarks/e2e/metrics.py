"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is :func:`manifest` written
out; ``test_smoke.py`` fails if the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 10

WORKLOADS = [
    ("rt_serial", "real 4-process cluster, closed loop, 1 in flight: unloaded latency, where sleeps, log forces and timer slack are on the critical path and CPU is not"),
    ("rt_closed8", "same cluster, closed loop, 8 in flight: saturated throughput, where codec, wire, journal and per-record forces dominate and batching should win"),
    ("sim_default", "simulator with every opt-in layer off (naive certifier, no WAL, no session layer), abort-free: the path the goldens, the tests and the explorer run on"),
    ("sim_hardened", "simulator with indexed certifier, WAL, session and overload layers on plus 30% unilateral aborts: the other side of the opt-in branches and the resubmission path"),
    ("explore_random", "thousands of tiny build/run/oracle cycles under random schedules: explorer throughput, and the history layer on tiny inputs"),
    ("oracle_audit", "the invariant battery over a few large recorded histories: the same history layer at the opposite shape, where its cost is super-linear"),
]

#: name, unit, better, bound
END_TO_END = [
    ("commits_per_s", "1/s", "higher", 0.10),
    ("commit_latency_p50_ms", "ms", "lower", 0.10),
    ("commit_latency_p95_ms", "ms", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

_LOWER = "lower"
_HIGHER = "higher"

#: name, unit, better
PER_LAYER = [
    ("kernel.events_per_commit", "count", _LOWER),
    ("kernel.self_ms_per_commit", "ms", _LOWER),
    ("net.messages_per_commit", "count", _LOWER),
    ("net.self_ms_per_commit", "ms", _LOWER),
    ("net.reliable.self_ms_per_commit", "ms", _LOWER),
    ("net.reliable.acks_per_commit", "count", _LOWER),
    ("net.reliable.retransmits_per_commit", "count", _LOWER),
    ("ldbs.ltm.self_ms_per_commit", "ms", _LOWER),
    ("ldbs.locks.self_ms_per_commit", "ms", _LOWER),
    ("ldbs.locks.waits_per_commit", "count", _LOWER),
    ("ldbs.locks.wait_ms_per_commit", "ms", _LOWER),
    ("ldbs.ltm.op_sleep_ms_per_commit", "ms", _LOWER),
    ("core.agent.self_ms_per_commit", "ms", _LOWER),
    ("core.agent.resubmissions_per_commit", "count", _LOWER),
    ("core.agent.unilateral_aborts_per_commit", "count", _LOWER),
    ("core.coordinator.self_ms_per_commit", "ms", _LOWER),
    ("core.coordinator.commit_order_delays_per_commit", "count", _LOWER),
    ("core.certifier.checks_per_commit", "count", _LOWER),
    ("core.certifier.self_us_per_check", "us", _LOWER),
    ("core.certifier.refusal_share", "share", _LOWER),
    ("core.certifier.index_depth_max", "count", _LOWER),
    ("durability.forces_per_commit", "count", _LOWER),
    ("durability.fsyncs_per_commit", "count", _LOWER),
    ("durability.bytes_per_commit", "bytes", _LOWER),
    ("durability.force_ms_per_commit", "ms", _LOWER),
    ("overload.self_ms_per_commit", "ms", _LOWER),
    ("overload.shed_share", "share", _LOWER),
    ("rt.codec.frames_per_commit", "count", _LOWER),
    ("rt.codec.bytes_per_commit", "bytes", _LOWER),
    ("rt.codec.encode_us_per_frame", "us", _LOWER),
    ("rt.codec.decode_us_per_frame", "us", _LOWER),
    ("rt.wire.self_ms_per_commit", "ms", _LOWER),
    ("rt.wire.queue_ms_p50", "ms", _LOWER),
    ("rt.journal.appends_per_commit", "count", _LOWER),
    ("rt.journal.bytes_per_commit", "bytes", _LOWER),
    ("rt.journal.append_us", "us", _LOWER),
    ("rt.kernel.pumps_per_commit", "count", _LOWER),
    ("rt.kernel.timer_slack_ms_p50", "ms", _LOWER),
    ("rt.node.cpu_ms_per_commit", "ms", _LOWER),
    ("rt.node.coordinator_cpu_ms_per_commit", "ms", _LOWER),
    ("rt.node.agents_cpu_ms_per_commit", "ms", _LOWER),
    ("rt.node.client_cpu_ms_per_commit", "ms", _LOWER),
    ("rt.node.rss_mb_max", "MB", _LOWER),
    ("rt.node.verify_s", "s", _LOWER),
    ("phase.submit_ms", "ms", _LOWER),
    ("phase.execute_ms", "ms", _LOWER),
    ("phase.prepare_ms", "ms", _LOWER),
    ("phase.decide_ms", "ms", _LOWER),
    ("phase.commit_ms", "ms", _LOWER),
    ("phase.reply_ms", "ms", _LOWER),
    ("client.commit_latency_p99_ms", "ms", _LOWER),
    ("client.inflight_mean", "count", _HIGHER),
    ("history.battery_ms_per_history", "ms", _LOWER),
    ("history.projection_ms", "ms", _LOWER),
    ("history.graphs_ms", "ms", _LOWER),
    ("history.viewser_ms", "ms", _LOWER),
    ("history.invariants_ms", "ms", _LOWER),
    ("history.rigor_ms", "ms", _LOWER),
    ("history.distortion_ms", "ms", _LOWER),
    ("history.ops_audited_per_s", "1/s", _HIGHER),
    ("explore.schedules_per_s", "1/s", _HIGHER),
    ("explore.build_ms_per_schedule", "ms", _LOWER),
    ("explore.run_ms_per_schedule", "ms", _LOWER),
    ("explore.oracle_ms_per_schedule", "ms", _LOWER),
    ("explore.fingerprint_ms_per_schedule", "ms", _LOWER),
    ("explore.choice_points_per_schedule", "count", _LOWER),
    ("explore.coverage", "count", _HIGHER),
    ("workload.generate_ms_per_commit", "ms", _LOWER),
    ("py.gc_collect_ms_per_commit", "ms", _LOWER),
    ("trace.overhead_share", "share", _LOWER),
    ("trace.unattributed_share", "share", _LOWER),
]

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _b in PER_LAYER}
WORKLOAD_NAMES: List[str] = [name for name, _why in WORKLOADS]


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
