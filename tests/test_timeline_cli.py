"""Tests for the timeline renderer and the CLI (repro.sim.timeline,
repro.__main__)."""

import json

import pytest

from repro.__main__ import main
from repro.history.model import History
from repro.sim.timeline import render_timeline
from repro.workload.scenarios import run_hx

from tests.helpers import HistoryBuilder


class TestTimeline:
    def test_empty_history(self):
        assert render_timeline(History()) == "(empty history)"

    def test_lanes_per_site_plus_global(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").w(1, "b", "Z").c(1).cl(1, "a").cl(1, "b")
        text = render_timeline(h.history)
        header = text.splitlines()[0]
        assert "a" in header and "b" in header and "@global" in header

    def test_events_in_time_order(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").w(2, "a", "X").cl(1, "a")
        text = render_timeline(h.history)
        lines = text.splitlines()[2:]
        times = [float(line.split("|")[0]) for line in lines]
        assert times == sorted(times)

    def test_coalesce_groups_near_events(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").r(1, "a", "Y").r(1, "a", "Z")
        dense = render_timeline(h.history, coalesce=10.0)
        sparse = render_timeline(h.history, coalesce=0.0)
        assert len(dense.splitlines()) < len(sparse.splitlines())

    def test_hx_overtake_visible(self):
        result = run_hx("2cm-noext")
        text = render_timeline(result.system.history, coalesce=2.0)
        lines = text.splitlines()
        lanes = [line.split("|") for line in lines if "|" in line]
        commit_t8_at_s = next(
            i for i, cells in enumerate(lanes) if "C(T80)" in cells[1]
        )
        prepare_t7_at_s = next(
            i for i, cells in enumerate(lanes) if "P(T7)" in cells[1]
        )
        assert commit_t8_at_s < prepare_t7_at_s


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "committed: True" in out
        assert "view serializable: True" in out

    def test_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "2cm" in out and "cgm" in out

    def test_scenario_h1_naive(self, capsys):
        assert main(["scenario", "H1", "--method", "naive"]) == 0
        out = capsys.readouterr().out
        assert "view serializable: False" in out
        assert "view split" in out

    def test_scenario_with_timeline_and_trees(self, capsys):
        assert main(["scenario", "Hx", "--method", "2cm", "--timeline", "--trees"]) == 0
        out = capsys.readouterr().out
        assert "@global" in out       # timeline header
        assert "2PCA" in out          # tree rendering

    def test_experiment_table(self, capsys):
        assert main(["experiment", "E1"]) == 0
        out = capsys.readouterr().out
        assert "H1" in out and "2cm" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "E99"]) == 2

    def test_workload(self, capsys):
        assert (
            main(
                [
                    "workload",
                    "--method",
                    "2cm",
                    "--globals",
                    "6",
                    "--sites",
                    "a,b",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "committed:" in out
        assert "view serializable: True" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--duration", "1500", "--globals", "8", "--locals", "2"],
            ["overload", "--globals", "12", "--locals", "2"],
        ],
        ids=["chaos", "overload"],
    )
    def test_drills_write_one_json_shape(self, argv, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        assert main(argv + ["--json", str(path)]) == 0
        assert "invariants: all hold" in capsys.readouterr().out
        verdict = json.loads(path.read_text())
        assert verdict["ok"] is True and verdict["violations"] == []
        assert sorted(verdict) == [
            "aborted", "committed", "counters", "description", "goodput",
            "ok", "seed", "sim_time", "submitted", "violations",
        ]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReportGeneration:
    def test_report_contains_every_experiment(self, tmp_path):
        from repro.sim.reportgen import REPORT_EXPERIMENTS, write_report

        path = tmp_path / "report.md"
        write_report(str(path))
        content = path.read_text()
        for exp_id, _title, _headers, _fn in REPORT_EXPERIMENTS:
            assert f"## {exp_id} — " in content
        assert "H1" in content and "2cm" in content

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.__main__ import main

        target = str(tmp_path / "r.md")
        assert main(["report", target]) == 0
        assert "wrote" in capsys.readouterr().out
