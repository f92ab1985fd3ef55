"""Smoke test of the benchmark itself (outside ``testpaths``; run explicitly).

    python -m pytest benchmarks/e2e/test_smoke.py -q

Drives ``run.py --quick`` end to end — tiny sizes, no bounds — and
checks the contract of its output, not its numbers.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def _run(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def _final_lines(stdout):
    """The ``{"correct": ...}`` line of every workload in ``stdout``."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_manifest_is_benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == metrics.manifest()


def test_quick_runs_every_workload_and_reports_every_end_to_end_metric():
    out = _run("--quick")
    assert out.returncode == 0, out.stdout + out.stderr
    results = _final_lines(out.stdout)
    assert len(results) == len(metrics.WORKLOAD_NAMES)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == set(metrics.END_TO_END_UNITS)
        for name, cell in result["metrics"].items():
            assert cell["unit"] == metrics.END_TO_END_UNITS[name]
            assert cell["value"] > 0
    rows = [json.loads(line[4:]) for line in out.stdout.splitlines() if line.startswith("row ")]
    for row in rows:
        assert {"nproc", "python", "platform", "seed", "git_commit", "wall_duration_s"} <= set(row)


def test_quick_traced_run_reports_every_per_layer_metric():
    out = _run("--quick", "--workload", "sim_hardened", "--traced")
    assert out.returncode == 0, out.stdout + out.stderr
    (result,) = _final_lines(out.stdout)
    assert set(result["metrics"]) == set(metrics.PER_LAYER_UNITS)
    values = {name: cell["value"] for name, cell in result["metrics"].items()}
    assert values["trace.unattributed_share"] <= 0.15
    assert values["durability.forces_per_commit"] > 0
    assert values["core.agent.resubmissions_per_commit"] > 0
    assert os.path.getsize(os.path.join(HERE, "results", "trace-sim_hardened.jsonl")) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "results"),
    )
    out = _run("--workload", "sim_default", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert out.returncode != 0
    assert not _final_lines(out.stdout)


def test_imports_nothing_from_the_legacy_bench_helpers():
    for name in os.listdir(HERE):
        if name.endswith(".py") and name != os.path.basename(__file__):
            with open(os.path.join(HERE, name)) as fh:
                source = fh.read()
            assert "bench_utils" not in source and "perf_harness" not in source, name
