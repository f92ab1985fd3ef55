"""The schedule explorer: choice points, search, shrink, replay.

The load-bearing assertions:

* the chooser-less kernel path is untouched (goldens elsewhere);
* traces replay deterministically (same trace ⇒ same fingerprint);
* every ablation the explorer reaches (non-empty ``expected_kinds``)
  is *found* by DFS within a small run budget,
  *shrunk* to ≤ 25% of the failing trace, and the shrunk repro
  *replays* with the same violation kinds and fingerprint;
* a healthy system explored the same way reports nothing (the oracle
  does not cry wolf under budgeted fault menus).
"""

import json
import random

import pytest

from repro.ablations import ABLATIONS
from repro.explore import (
    ExploreSpec,
    DefaultChooser,
    RandomChooser,
    TraceChooser,
    explore_coverage,
    explore_dfs,
    explore_random,
    load_schedule,
    replay_schedule,
    run_once,
    save_schedule,
    shrink,
    strip_trailing_defaults,
)
from repro.kernel.events import EventKernel


class TestChoicePointAPI:
    def test_no_chooser_returns_default(self):
        kernel = EventKernel()
        assert kernel.choose("tie", 5) == 0

    def test_single_option_never_consults_chooser(self):
        kernel = EventKernel()
        kernel.chooser = DefaultChooser()
        assert kernel.choose("tie", 1) == 0
        assert kernel.chooser.points == []

    def test_chooser_decides_and_is_recorded(self):
        kernel = EventKernel()
        kernel.chooser = TraceChooser([2, 7])
        assert kernel.choose("tie", 4, context="batch") == 2
        assert kernel.choose("msg:PREPARE", 3) == 0  # 7 out of range -> 0
        points = kernel.chooser.points
        assert [p.choice for p in points] == [2, 0]
        assert points[0].kind == "tie" and points[0].context == "batch"

    def test_out_of_range_chooser_result_is_an_error(self):
        from repro.common.errors import SimulationError

        class Bad:
            def choose(self, kind, n, context=None):
                return n

        kernel = EventKernel()
        kernel.chooser = Bad()
        with pytest.raises(SimulationError):
            kernel.choose("tie", 2)

    def test_tie_choice_reorders_same_time_events(self):
        fired = []
        for pick in (0, 1):
            kernel = EventKernel()
            kernel.chooser = TraceChooser([pick])
            kernel.schedule(10.0, lambda: fired.append("first"))
            kernel.schedule(10.0, lambda: fired.append("second"))
            kernel.run()
        assert fired == ["first", "second", "second", "first"]


class TestTraceHelpers:
    def test_strip_trailing_defaults(self):
        assert strip_trailing_defaults([0, 1, 0, 2, 0, 0]) == [0, 1, 0, 2]
        assert strip_trailing_defaults([0, 0]) == []

    def test_random_chooser_is_seed_deterministic(self):
        spec = ExploreSpec()
        first = run_once(spec, RandomChooser(random.Random(3)))
        second = run_once(spec, RandomChooser(random.Random(3)))
        assert first.trace == second.trace
        assert first.fingerprint == second.fingerprint


class TestHealthyExploration:
    def test_default_run_is_clean_and_stable(self):
        spec = ExploreSpec()
        first = run_once(spec, DefaultChooser())
        second = run_once(spec, DefaultChooser())
        assert first.ok and second.ok
        assert first.fingerprint == second.fingerprint
        assert first.committed + first.aborted == spec.n_global

    def test_random_walks_do_not_cry_wolf(self):
        spec = ExploreSpec()
        exploration = explore_random(spec, seed=1, max_runs=6)
        assert not exploration.found, [
            str(v) for f in exploration.failures for v in f.violations
        ]

    def test_coverage_walker_accumulates_features(self):
        spec = ExploreSpec()
        exploration = explore_coverage(spec, seed=1, max_runs=6)
        assert not exploration.found
        assert len(exploration.coverage) > 3


#: The ablations the explorer's default workload reaches.
GATED = sorted(name for name, ablation in ABLATIONS.items() if ablation.expected_kinds)


@pytest.mark.parametrize("mutant", GATED)
class TestMutantGate:
    """The harness's proof: find, shrink, replay — per seeded bug."""

    def test_found_shrunk_replayed(self, mutant, tmp_path):
        spec = ExploreSpec(mutant=mutant)
        exploration = explore_dfs(spec, max_runs=600)
        assert exploration.found, exploration.summary()

        failing = exploration.failures[0]
        expected = set(ABLATIONS[mutant].expected_kinds)
        assert failing.violation_kinds() & expected, (
            f"{mutant}: found {failing.violation_kinds()}, "
            f"expected overlap with {expected}"
        )
        # Structured context rides along on every violation.
        violation = failing.violations[0]
        assert violation.context.get("trace_length") == len(failing.trace)
        assert violation.context.get("deviations")

        shrunk = shrink(failing)
        assert shrunk.kinds & expected
        assert shrunk.ratio <= 0.25, shrunk.summary()

        path = tmp_path / f"{mutant}.schedule"
        save_schedule(str(path), shrunk.minimized, found_by="dfs")
        report = replay_schedule(str(path))
        assert report.kinds_match, report.summary()
        assert report.fingerprint_matches, report.summary()

    def test_mutant_is_silent_without_deviations(self, mutant):
        # The bug is *latent*: the default schedule must stay clean, or
        # the mutant would be a broken build, not a search target.
        result = run_once(ExploreSpec(mutant=mutant), DefaultChooser())
        assert result.ok, [str(v) for v in result.violations]


class TestScheduleFiles:
    def test_roundtrip_and_validation(self, tmp_path):
        spec = ExploreSpec(mutant="refuse-blind")
        exploration = explore_dfs(spec, max_runs=600)
        failing = exploration.failures[0]
        path = tmp_path / "repro.schedule"
        save_schedule(str(path), failing, found_by="dfs")

        data = load_schedule(str(path))
        assert data["found_by"] == "dfs"
        assert data["spec"]["mutant"] == "refuse-blind"
        assert data["deviations"]  # human-readable non-default picks

        rebuilt = ExploreSpec.from_dict(dict(data["spec"]))
        assert rebuilt == spec

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.schedule"
        path.write_text(json.dumps({"version": 99, "spec": {}, "trace": []}))
        with pytest.raises(ValueError):
            load_schedule(str(path))


class TestExploreCLI:
    def test_gate_and_replay_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "schedules"
        code = main(
            [
                "explore",
                "--mutant",
                "refuse-blind",
                "--expect-find",
                "--out",
                str(out),
                "--json",
                str(tmp_path / "summary.json"),
            ]
        )
        assert code == 0, capsys.readouterr().out
        schedules = list(out.glob("*.schedule"))
        assert len(schedules) == 1

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["found"] is True
        record = summary["explorations"][0]
        assert record["replay_ok"] is True
        assert record["shrink_ratio"] <= 0.25

        code = main(["explore", "--replay", str(schedules[0])])
        assert code == 0

    def test_healthy_exploration_exits_zero(self, capsys):
        from repro.__main__ import main

        code = main(["explore", "--strategy", "random", "--runs", "3"])
        assert code == 0, capsys.readouterr().out

    def test_list_mutants(self, capsys):
        from repro.__main__ import main

        assert main(["explore", "--list-mutants"]) == 0
        out = capsys.readouterr().out
        for ablation in ABLATIONS.values():
            assert f"{ablation.name} ({ablation.claim})" in out
