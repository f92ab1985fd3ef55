"""Overload benchmark: goodput with and without load shedding.

Runs the seeded overload drill (:mod:`repro.sim.overload`) at 1x, 4x
and 16x the comfortable offered load, once unprotected and once with
the overload layer on (admission control + deadlines + adaptive
backoff + breakers), and measures what protection buys: at light load
the layer is invisible; at 16x the unprotected system loses most of
its throughput to certification conflicts and head-of-line commit
delays, while the shedding system refuses the excess at BEGIN and
keeps committing.  Publishes the table like every other experiment.
"""

from repro.sim.overload import OverloadDrillConfig, run_overload

from bench_utils import publish, run_experiment

HEADERS = [
    "load",
    "shed",
    "committed",
    "aborted",
    "shed-count",
    "goodput",
    "sim-time",
    "ok",
]

LOAD_LEVELS = (1.0, 4.0, 16.0)
SEED = 1


def _run_at(load: float, shed: bool):
    return run_overload(OverloadDrillConfig(seed=SEED, load=load, shed=shed))


def _sweep():
    rows = []
    records = []
    for load in LOAD_LEVELS:
        for shed in (False, True):
            r = _run_at(load, shed)
            rows.append(
                [
                    f"{load:g}x",
                    "on" if shed else "off",
                    r.committed,
                    r.aborted,
                    r.counters.get("shed", 0),
                    round(r.goodput, 5),
                    round(r.sim_time, 1),
                    r.ok,
                ]
            )
            records.append(
                {
                    "load": load,
                    "shed": shed,
                    "submitted": r.submitted,
                    "committed": r.committed,
                    "goodput": r.goodput,
                    "ok": r.ok,
                    "counters": r.counters,
                    "violations": [v.to_dict() for v in r.violations],
                }
            )
    return rows, records


def test_bench_overload(benchmark):
    rows, records = run_experiment(benchmark, _sweep)
    publish(
        "E19_overload",
        "E19: goodput under overload, shedding off vs on",
        HEADERS,
        rows,
    )
    by_key = {(r["load"], r["shed"]): r for r in records}
    # Every run — protected or not — sheds *cleanly*: the invariant
    # battery (atomicity, view serializability, no orphaned PREPARED,
    # terminal outcomes, empty certifier tables) holds throughout.
    for record in records:
        assert record["ok"], (record["load"], record["shed"], record["violations"])
    # At light load the layer is invisible: nothing is shed and the
    # outcome is identical to the unprotected run.
    assert by_key[(1.0, True)]["counters"]["shed"] == 0
    assert by_key[(1.0, True)]["committed"] == by_key[(1.0, False)]["committed"]
    # At 16x the storm actually overwhelms the unprotected system...
    assert (
        by_key[(16.0, False)]["committed"]
        < by_key[(16.0, False)]["submitted"] * 0.5
    )
    # ...and shedding turns refused admissions into kept goodput.
    assert by_key[(16.0, True)]["counters"]["shed"] > 0
    assert by_key[(16.0, True)]["goodput"] >= by_key[(16.0, False)]["goodput"]
