"""Golden event-order fingerprints (byte-identical determinism).

The digests below were captured on the *seed revision* — before the
substrate hot-path overhaul (O(1) kernel accounting, tombstone
compaction, carrier-based timers, indexed locks, single-drain driver
loop).  Every optimization since must reproduce these runs exactly:
same operations in the same order, same outcomes, same simulated
finish time.  If one of these ever changes, an "optimization" altered
observable behaviour — that is a correctness bug, not a perf tweak.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python - <<'EOF'
    from tests.fingerprint_util import fingerprint, run_seeded_workload
    for seed, failures, method in [(0, 0.0, "2cm"), (7, 0.0, "2cm"),
                                   (13, 0.15, "2cm"), (42, 0.3, "2cm"),
                                   (3, 0.1, "cgm"), (5, 0.1, "naive")]:
        fp = fingerprint(run_seeded_workload(seed, failures=failures, method=method))
        print(f"({seed}, {failures}, {method!r}): {fp}")
    EOF
"""

import hashlib
import random

import pytest

from tests.fingerprint_util import fingerprint, run_seeded_workload

from repro.explore import ExploreSpec, RandomChooser, run_once
from repro.sim.failures import ChaosConfig, run_chaos
from repro.sim.overload import OverloadDrillConfig, run_overload

GOLDEN = {
    (0, 0.0, "2cm"): "f9bbfd8388daa01d6911459d60bcb6a85548c4b6b38cb522b164488817bc5283",
    (7, 0.0, "2cm"): "9fd22dd3f0e36e50ebb1299d6d576319f55451f3126fe19990df2eb77e07982a",
    (13, 0.15, "2cm"): "82b01734dbac082ef00e18f15902d11448054bb21806f3328070fafab296e7d3",
    (42, 0.3, "2cm"): "20d85a4588e9d402e4204709bddfb4ee0a141d8f67e92fe0f845e5a42530865e",
    (3, 0.1, "cgm"): "bf9a1c516ae9f3e03bf58a7856ad40f07d9bb7496bb923c9e4b34bee9156726f",
    (5, 0.1, "naive"): "c4a80e2f59666f7dc73259b20c05ede334c69114a6cd4283cb49c5f7de3e0526",
}


@pytest.mark.parametrize("seed,failures,method", sorted(GOLDEN))
def test_matches_seed_revision_fingerprint(seed, failures, method):
    result = run_seeded_workload(seed, failures=failures, method=method)
    assert fingerprint(result) == GOLDEN[(seed, failures, method)]


def test_back_to_back_runs_are_identical():
    a = fingerprint(run_seeded_workload(11, failures=0.2))
    b = fingerprint(run_seeded_workload(11, failures=0.2))
    assert a == b


def test_different_seeds_diverge():
    assert fingerprint(run_seeded_workload(1)) != fingerprint(run_seeded_workload(2))


# ----------------------------------------------------------------------
# The drills and the explorer: captured before the simulator's private
# run loops were folded into ``repro.sim.driver.arm``/``settle``.
# Regenerate (only after an *intentional* semantic change) by printing,
# for every key of each table, what its test below asserts on:
# ``drill_digest(run_chaos(...))``, ``drill_digest(run_overload(...))``
# or ``explore_digest(name)``.
# ----------------------------------------------------------------------


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def drill_digest(result) -> str:
    return _digest(
        result.committed,
        result.aborted,
        result.sim_time,
        sorted(result.counters.items()),
        [v.kind for v in result.violations],
    )


#: (seed, with a WAL root) -> digest of the chaos drill.
CHAOS_GOLDEN = {
    (0, False): "b413c346daeb18c91b4c40053df2ed690dfe680f2088768deec6aa62fbd00d77",
    (0, True): "b413c346daeb18c91b4c40053df2ed690dfe680f2088768deec6aa62fbd00d77",
    (1, False): "1d57163e011c8c5e02bd76463c29b424d1f4ce5f894dd103d3507cf4011ed156",
    (1, True): "1d57163e011c8c5e02bd76463c29b424d1f4ce5f894dd103d3507cf4011ed156",
    (2, False): "cc63f9640a56a522d82ae07965be31a8dd917ac370e9ea2721195210c65a4ace",
    (2, True): "cc63f9640a56a522d82ae07965be31a8dd917ac370e9ea2721195210c65a4ace",
    (3, False): "00603bf6ab4342a77e09d3ae5b437ede913cccdcbc3a49370c6de6f4d1f240cc",
    (3, True): "00603bf6ab4342a77e09d3ae5b437ede913cccdcbc3a49370c6de6f4d1f240cc",
}

#: (seed, shedding on) -> digest of the overload drill.
OVERLOAD_GOLDEN = {
    (0, True): "261da59dad6687ae5f654238d856359fad91ed3bc5992fa8e416359734edc4df",
    (0, False): "bd18ef4d5184a5c5fb744d2425d08acd1863af71cd713abdb97618086450b429",
    (1, True): "3822e4c13fd2811a3cb723e4533be8fd24c8bb77858faad0dbd070e997b164c1",
    (1, False): "e5b4447f06d0d91a5d642e589133739641e672dac2614df9b3737742b8a4c519",
    (2, True): "561733cc25bc346eeb21e4ad59de1bc0ad486c612242cb53329f44b1c03b2b1c",
    (2, False): "f5f1dacfecdc4221fa9cb34299f48d92af0e9185a7471c935ff56489182dc272",
}

EXPLORE_SPECS = {
    "default": ExploreSpec(),
    "cert-blind": ExploreSpec(mutant="cert-blind"),
    "durable-indexed-2coord": ExploreSpec(
        durability=True, certifier_engine="indexed", n_coordinators=2
    ),
}
EXPLORE_WALKS = 60

#: spec name -> digest of EXPLORE_WALKS seeded random walks.
EXPLORE_GOLDEN = {
    "default": "73d1e4fdb8631c271724125dfc682ff3d04552594ddfbe9d58526e3a78d1fbff",
    "cert-blind": "ceeba1c2fdf8dded3fe1a50a57d46e0b144e12acad21ae8d056122a4c33a0773",
    "durable-indexed-2coord": "57823b6ab82f7f1c5e9c25e9fcfa42b19dd03e1beccedceee946d1ba9258d114",
}


def explore_digest(name: str) -> str:
    runs = []
    for walk in range(EXPLORE_WALKS):
        result = run_once(EXPLORE_SPECS[name], RandomChooser(random.Random(walk)))
        runs.append(
            (
                result.fingerprint,
                result.trace,
                sorted(result.coverage),
                [v.kind for v in result.violations],
            )
        )
    return _digest(*runs)


@pytest.mark.parametrize("seed,wal", sorted(CHAOS_GOLDEN))
def test_chaos_drill_matches_golden(seed, wal, tmp_path):
    config = ChaosConfig(seed=seed, durability_root=str(tmp_path) if wal else None)
    assert drill_digest(run_chaos(config)) == CHAOS_GOLDEN[(seed, wal)]


@pytest.mark.parametrize("seed,shed", sorted(OVERLOAD_GOLDEN))
def test_overload_drill_matches_golden(seed, shed):
    result = run_overload(OverloadDrillConfig(seed=seed, shed=shed))
    assert drill_digest(result) == OVERLOAD_GOLDEN[(seed, shed)]


@pytest.mark.parametrize("name", sorted(EXPLORE_GOLDEN))
def test_explorer_walks_match_golden(name):
    assert explore_digest(name) == EXPLORE_GOLDEN[name]
