"""Per-layer metrics: tracer aggregates + program counters -> named values.

``counters`` is a flat dict of exact counts summed over the traced
window (see ``sim_workloads.round_counts`` and the rt workloads); a key
that a workload does not produce reads as 0, and a metric of a layer
the workload never enters reports 0.
"""

from __future__ import annotations

from typing import Dict, Mapping

from harness import percentile
from metrics import PER_LAYER
from tracing import Tracer


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def compute(
    tracer: Tracer,
    counters: Mapping[str, float],
    commits: int,
    root_span: str,
) -> Dict[str, float]:
    """Every per-layer metric derivable from spans and counters.

    ``root_span`` is the benchmark's own span around one unit of traced
    work; its self time is what no layer accounts for.
    """
    c = lambda key: counters.get(key, 0)  # noqa: E731
    self_ms = tracer.self_ms
    incl = tracer.inclusive_ms
    count = tracer.count

    checks = c("prepare_checks") + c("commit_checks")
    certifier_spans = (
        "core.certifier:certify_prepare",
        "core.certifier:certify_commit",
        "core.certifier:insert",
    )
    batteries = count("history:battery")
    schedules = count("explore:run_once")
    root = tracer.agg.get(root_span, [0, 0, 0])

    values = {
        "kernel.events_per_commit": _per(c("events"), commits),
        "kernel.self_ms_per_commit": _per(self_ms("kernel:"), commits),
        "net.messages_per_commit": _per(c("messages"), commits),
        "net.self_ms_per_commit": _per(self_ms("net:"), commits),
        "net.reliable.self_ms_per_commit": _per(self_ms("net.reliable:"), commits),
        "net.reliable.acks_per_commit": _per(c("acks_sent"), commits),
        "net.reliable.retransmits_per_commit": _per(c("retransmits"), commits),
        "ldbs.ltm.self_ms_per_commit": _per(self_ms("ldbs.ltm:"), commits),
        "ldbs.locks.self_ms_per_commit": _per(self_ms("ldbs.locks:"), commits),
        "ldbs.locks.waits_per_commit": _per(c("lock_waits"), commits),
        "ldbs.locks.wait_ms_per_commit": _per(c("lock_wait_wall_ms"), commits),
        "ldbs.ltm.op_sleep_ms_per_commit": _per(c("op_sleep_ms"), commits),
        "core.agent.self_ms_per_commit": _per(self_ms("core.agent:"), commits),
        "core.agent.resubmissions_per_commit": _per(c("resubmissions"), commits),
        "core.agent.unilateral_aborts_per_commit": _per(c("unilateral_aborts"), commits),
        "core.coordinator.self_ms_per_commit": _per(self_ms("core.coordinator:"), commits),
        "core.coordinator.commit_order_delays_per_commit": _per(c("commit_delays"), commits),
        "core.certifier.checks_per_commit": _per(checks, commits),
        "core.certifier.self_us_per_check": _per(
            1000.0 * self_ms("core.certifier:"), count(*certifier_spans)
        ),
        "core.certifier.refusal_share": _per(c("refusals"), c("prepare_checks")),
        "core.certifier.index_depth_max": c("index_depth_max"),
        "durability.forces_per_commit": _per(c("wal_forced_appends"), commits),
        "durability.fsyncs_per_commit": _per(c("fsyncs"), commits),
        "durability.bytes_per_commit": _per(tracer.counts.get("wal_bytes", 0), commits),
        "durability.force_ms_per_commit": _per(
            incl("durability.wal:append", "durability.wal:sync"), commits
        ),
        "overload.self_ms_per_commit": _per(self_ms("overload:"), commits),
        "overload.shed_share": _per(c("shed"), c("shed") + c("admitted")),
        "rt.codec.frames_per_commit": _per(count("rt.codec:encode_frame"), commits),
        "rt.codec.bytes_per_commit": _per(tracer.counts.get("codec_bytes_out", 0), commits),
        "rt.codec.encode_us_per_frame": _per(
            1000.0 * incl("rt.codec:encode_frame"), count("rt.codec:encode_frame")
        ),
        "rt.codec.decode_us_per_frame": _per(
            1000.0 * incl("rt.codec:decode_frame"), count("rt.codec:decode_frame")
        ),
        "rt.wire.self_ms_per_commit": _per(self_ms("rt.wire:"), commits),
        "rt.wire.queue_ms_p50": percentile(tracer.samples.get("wire_queue_ms", []), 0.5),
        "rt.journal.appends_per_commit": _per(count("rt.journal:append"), commits),
        "rt.journal.bytes_per_commit": _per(c("journal_bytes"), commits),
        "rt.journal.append_us": _per(
            1000.0 * incl("rt.journal:append"), count("rt.journal:append")
        ),
        "rt.kernel.pumps_per_commit": _per(count("rt.kernel:pump"), commits),
        "rt.kernel.timer_slack_ms_p50": percentile(
            tracer.samples.get("timer_slack_ms", []), 0.5
        ),
        "history.battery_ms_per_history": _per(incl("history:battery"), batteries),
        "history.projection_ms": _per(incl("history.committed:projection"), batteries),
        "history.graphs_ms": _per(
            incl("history.graphs:serialization_graph", "history.graphs:find_cycle"),
            batteries,
        ),
        "history.viewser_ms": _per(incl("history.viewser:check"), batteries),
        "history.invariants_ms": _per(
            incl("history.invariants:atomic", "history.invariants:ci"), batteries
        ),
        "history.rigor_ms": _per(incl("history.rigor:check"), batteries),
        "history.distortion_ms": _per(incl("history.distortion:find"), batteries),
        "history.ops_audited_per_s": _per(
            c("history_ops_audited"), incl("history:battery") / 1000.0
        ),
        "explore.schedules_per_s": _per(schedules, incl("explore:run_once") / 1000.0),
        "explore.build_ms_per_schedule": _per(incl("explore:build_system"), schedules),
        "explore.run_ms_per_schedule": _per(incl("kernel:run"), schedules),
        "explore.oracle_ms_per_schedule": _per(incl("history:battery"), schedules),
        "explore.fingerprint_ms_per_schedule": _per(
            incl("explore:run_fingerprint"), schedules
        ),
        "explore.choice_points_per_schedule": _per(c("choice_points"), schedules),
        "explore.coverage": c("coverage"),
        "py.gc_collect_ms_per_commit": _per(incl("py:gc_collect"), commits),
        "trace.unattributed_share": _per(root[2], root[1]),
    }
    return values


def complete(values: Mapping[str, float]) -> Dict[str, float]:
    """All declared per-layer metrics, 0.0 for those a workload lacks."""
    unknown = set(values) - {name for name, _u, _b in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name, _u, _b in PER_LAYER}
