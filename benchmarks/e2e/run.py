#!/usr/bin/env python3
"""The repository's benchmark: one committed global transaction, six ways.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --workload rt_serial --seed 3
    python3 benchmarks/e2e/run.py --workload sim_default --traced
    python3 benchmarks/e2e/run.py --aa 5                # same code twice
    python3 benchmarks/e2e/run.py --quick               # smoke, no bounds

One workload per process.  A run samples the set-up several times
(fresh interpreters), measures one window, checks the outputs, prints
every metric with its unit and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when an output is wrong.  See README.md in this directory.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402

#: Set-up repetitions per run (this process plus fresh interpreters).
SETUP_SAMPLES = 3
#: A run that is still going after this long is killed (the cluster,
#: if any, with it); the driver's own limit is 180 s.
HARD_TIMEOUT_S = 160
QUICK_SECONDS = 1.5

WORKLOAD_CLASSES = {
    "rt_serial": ("rt_workloads", "RtSerial"),
    "rt_closed8": ("rt_workloads", "RtClosed8"),
    "sim_default": ("sim_workloads", "SimDefault"),
    "sim_hardened": ("sim_workloads", "SimHardened"),
    "explore_random": ("audit_workloads", "ExploreRandom"),
    "oracle_audit": ("audit_workloads", "OracleAudit"),
}


def make_workload(name: str, seed: int, quick: bool, seconds: float):
    module, cls = WORKLOAD_CLASSES[name]
    return getattr(importlib.import_module(module), cls)(seed, quick, seconds)


def _on_alarm(_signum, _frame):
    raise TimeoutError(f"benchmark run exceeded its hard timeout of {HARD_TIMEOUT_S}s")


def _self_argv(*extra: str):
    return [sys.executable, os.path.abspath(__file__), *extra]


def probe_setup(name: str, seed: int, quick: bool, seconds: float) -> float:
    """One more set-up sample, taken in a fresh interpreter."""
    argv = _self_argv("--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--setup-probe")
    if quick:
        argv.append("--quick")
    out = subprocess.run(argv, capture_output=True, text=True, timeout=HARD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stdout}\n{out.stderr}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_setup_probe(name: str, seed: int, quick: bool, seconds: float) -> int:
    workload = make_workload(name, seed, quick, seconds)
    try:
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - _PROCESS_START}))
    finally:
        workload.close()
    return 0


def run_workload(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> int:
    """Set up, measure (or trace), verify, report; returns the exit code."""
    started = time.perf_counter()
    workload = make_workload(name, seed, quick, seconds)
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    try:
        samples = [
            probe_setup(name, seed, quick, seconds)
            for _ in range(0 if quick else SETUP_SAMPLES - 1)
        ]
        probing_s = time.perf_counter() - started
        workload.setup()
        samples.append(time.perf_counter() - _PROCESS_START - probing_s)
        setup_s = statistics.median(samples)

        if traced:
            trace_path = os.path.join(harness.RESULTS_DIR, f"trace-{name}.jsonl")
            window, values = workload.trace(seconds, trace_path)
            reported = layers.complete(values)
            units = metrics.PER_LAYER_UNITS
        else:
            window = workload.measure(seconds)
            reported = window.end_to_end(setup_s)
            units = metrics.END_TO_END_UNITS
        problems = list(window.failures) + workload.verify()
    finally:
        workload.close()

    if window.commits < 1:
        problems.append(f"{name}: nothing committed in the window")
    correct = not problems
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{name}: seed {seed}, window {window.wall_s:.2f}s, "
          f"{window.commits} commits, {window.attempted} attempted, "
          f"{window.failed} failed"
          + (", latency/cpu derived from rounds" if window.derived else ""))
    for metric, value in reported.items():
        print(f"  {metric:<48} {value:>14.4f} {units[metric]}")
    row = dict(harness.environment(seed))
    row.update(
        workload=name,
        traced=traced,
        quick=quick,
        wall_duration_s=time.perf_counter() - _PROCESS_START,
        setup_samples_s=samples,
        diagnostics=window.diagnostics,
        correct=correct,
    )
    print("row " + json.dumps(row, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(window.attempted),
                "failed": int(window.failed),
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in reported.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_child(name: str, seed: int, args) -> dict:
    """One full run in its own process; returns its final JSON line."""
    argv = _self_argv("--workload", name, "--seed", str(seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace))
    if args.quick:
        argv.append("--quick")
    out = subprocess.run(argv, capture_output=True, text=True)
    sys.stdout.write(out.stdout)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def run_all(names, args) -> int:
    ok = True
    for name in names:
        ok = run_child(name, args.seed, args)["correct"] and ok
    return 0 if ok else 1


def run_aa(names, args) -> int:
    """Two interleaved sets of full runs of this checkout, compared."""
    bounds = {name: bound for name, _u, _b, bound in metrics.END_TO_END}
    better = {name: b for name, _u, b, _bound in metrics.END_TO_END}
    report = {"environment": harness.environment(args.seed), "pairs": []}
    ok = True
    for name in names:
        sets = ({}, {})
        for i in range(args.aa):
            for side in sets:
                result = run_child(name, args.seed + i, args)
                ok = ok and result["correct"]
                for metric, cell in result["metrics"].items():
                    side.setdefault(metric, []).append(cell["value"])
        for metric in sets[0]:
            first, second = (statistics.median(s[metric]) for s in sets)
            worse = (second - first) / first
            if better[metric] == "higher":
                worse = -worse
            spreads = [
                (q[2] - q[0]) / statistics.median(s[metric])
                for s in sets
                if len(s[metric]) > 1
                for q in [statistics.quantiles(s[metric], n=4)]
            ]
            within = worse <= bounds[metric]
            ok = ok and within
            report["pairs"].append(
                {"workload": name, "metric": metric, "median_a": first,
                 "median_b": second, "worse_by": worse, "spreads": spreads,
                 "bound": bounds[metric], "within": within}
            )
            print(f"aa {name:<15} {metric:<24} a={first:<12.4f} b={second:<12.4f} "
                  f"worse_by={worse:+.4f} spread={max(spreads, default=0):.4f} "
                  f"bound={bounds[metric]} {'ok' if within else 'EXCEEDED'}")
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    with open(os.path.join(harness.RESULTS_DIR, "aa.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {metrics.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run, prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=0, metavar="N",
                        help="two interleaved sets of N runs; fails if their medians "
                             "differ by more than a metric's bound")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny sizes, one set-up sample, no bounds")
    parser.add_argument("--print-manifest", action="store_true",
                        help="print the content BENCHMARK.json must have")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.print_manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if args.traced:
        args.trace = 1
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(metrics.RUN_SECONDS)
    harness.ensure_importable()
    names = [args.workload] if args.workload else metrics.WORKLOAD_NAMES
    if args.aa:
        return run_aa(names, args)
    if args.workload is None:
        return run_all(names, args)
    signal.signal(signal.SIGALRM, _on_alarm)
    # so that a terminated run still tears its cluster down on the way out
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    signal.alarm(HARD_TIMEOUT_S)
    if args.setup_probe:
        return run_setup_probe(args.workload, args.seed, args.quick, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)


if __name__ == "__main__":
    sys.exit(main())
