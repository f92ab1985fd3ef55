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

from repro.ablations import remember_intervals
from repro.common.ids import SerialNumber, global_txn
from repro.core.dtm import METHODS, MultidatabaseSystem, SystemConfig
from repro.core.intervals import AliveInterval
from repro.explore import ExploreSpec, RandomChooser, run_once
from repro.sim.failures import ChaosConfig, run_chaos
from repro.sim.overload import OverloadDrillConfig, run_overload
from repro.workload import scenarios

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


# ----------------------------------------------------------------------
# The ablations: every method's certifier, and E14's interval memory,
# captured while each was still a switch on ``CertifierConfig``.  They
# prove that each registry entry in ``repro.ablations`` is the switch it
# replaced.  Regenerate (only after an *intentional* semantic change) by
# printing what each test below asserts on.
# ----------------------------------------------------------------------

CERTIFIER_OPS = 400


def certifier_digest(certifier, seed: int = 0) -> str:
    """Digest of a seeded sequence of certifier operations: every
    decision with its detail, then the decision counters."""
    rng = random.Random(seed)
    now = 0.0
    live = []
    trace = []
    for number in range(1, CERTIFIER_OPS + 1):
        now += rng.uniform(0.0, 10.0)
        op = rng.choice(("prepare", "prepare", "extend", "restart", "commit", "remove"))
        if op == "prepare" or not live:
            txn = global_txn(number)
            sn = None
            if rng.random() > 0.1:
                sn = SerialNumber(now + rng.uniform(-40.0, 10.0), "c1", number)
            # Some candidates end in the past, so an interval memory can
            # matter (one that ends "now" never reaches an older interval).
            end = now - rng.uniform(0.0, 30.0) if rng.random() < 0.3 else now
            candidate = AliveInterval(end - rng.uniform(0.0, 60.0), end)
            decision = certifier.certify_prepare(txn, sn, candidate)
            trace.append(("prepare", txn.label, decision.ok, decision.reason, decision.detail))
            if decision.ok:
                certifier.insert(txn, sn, candidate)
                live.append(txn)
            continue
        txn = live[rng.randrange(len(live))]
        if op == "extend":
            certifier.extend_interval(txn, now)
        elif op == "restart":
            certifier.restart_interval(txn, now)
        elif op == "commit":
            decision = certifier.certify_commit(txn)
            trace.append(("commit", txn.label, decision.ok, decision.detail))
            if decision.ok:
                certifier.record_local_commit(txn)
                certifier.remove(txn)
                live.remove(txn)
        else:
            certifier.remove(txn)
            live.remove(txn)
    counters = (
        certifier.prepare_checks,
        certifier.prepare_refusals_extension,
        certifier.prepare_refusals_intersection,
        certifier.commit_checks,
        certifier.commit_delays,
        certifier.max_committed_sn,
        certifier.prepared_txns(),
    )
    return _digest(trace, counters)


def method_system(method: str, engine: str) -> MultidatabaseSystem:
    return MultidatabaseSystem(
        SystemConfig(sites=("a",), method=method, certifier_engine=engine)
    )


#: (method, engine, seed, failures) -> ``run_seeded_workload`` fingerprint.
ABLATION_GOLDEN = {
    ('2cm', 'naive', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm', 'naive', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm', 'indexed', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm', 'indexed', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-noext', 'naive', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-noext', 'naive', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-noext', 'indexed', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-noext', 'indexed', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-nocommitcert', 'naive', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-nocommitcert', 'naive', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-nocommitcert', 'indexed', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-nocommitcert', 'indexed', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-prepare-order', 'naive', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-prepare-order', 'naive', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-prepare-order', 'indexed', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-prepare-order', 'indexed', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-conflict-aware', 'naive', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-conflict-aware', 'naive', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('2cm-conflict-aware', 'indexed', 1, 0.3): '6f08df4e6a57a862be00088d5a59249d57e4d9ea7f9ac77610af78ba0c494ea5',
    ('2cm-conflict-aware', 'indexed', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('naive', 'naive', 1, 0.3): 'b2b2664044e03e3569c33cbb95913dc94951cb31a07bc2881f454c575a71e5c6',
    ('naive', 'naive', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('naive', 'indexed', 1, 0.3): 'b2b2664044e03e3569c33cbb95913dc94951cb31a07bc2881f454c575a71e5c6',
    ('naive', 'indexed', 2, 0.5): '08face7c070a9dbf0ec2558708b8d4ce2318d82fecbff75eba1cd606c018ca9d',
    ('ticket', 'naive', 1, 0.3): 'd1820de9855b26f9d9a6c2ea5ecebd1196e3b3c9efc49776dc9e120cd311ee4d',
    ('ticket', 'naive', 2, 0.5): '7adc09522fa8ef061acd68bd0069932e3e0e3d718a6d28dd12ce086d99a701da',
    ('ticket', 'indexed', 1, 0.3): 'd1820de9855b26f9d9a6c2ea5ecebd1196e3b3c9efc49776dc9e120cd311ee4d',
    ('ticket', 'indexed', 2, 0.5): '7adc09522fa8ef061acd68bd0069932e3e0e3d718a6d28dd12ce086d99a701da',
    ('cgm', 'naive', 1, 0.3): '13598236251e08d5c489842f379ebddf89da9381feeab0e3a6a5b217b1b0851f',
    ('cgm', 'naive', 2, 0.5): '4abc28353cbf54f19ce7dfa6e3bc3e231a0b48060d1403eef5ef36082ccdf90e',
    ('cgm', 'indexed', 1, 0.3): '13598236251e08d5c489842f379ebddf89da9381feeab0e3a6a5b217b1b0851f',
    ('cgm', 'indexed', 2, 0.5): '4abc28353cbf54f19ce7dfa6e3bc3e231a0b48060d1403eef5ef36082ccdf90e',
}

#: (method, engine) -> ``certifier_digest`` of that method's certifier.
CERTIFIER_GOLDEN = {
    ('2cm', 'naive'): '301ca1be64ad7f57a5be8c9bbb85ae269de1b89d40bdd11dafe5981716ababb3',
    ('2cm', 'indexed'): '868694276b77854a89fb84ff5738dcf1a4731389d9d08c194ab03be06e5797e5',
    ('2cm-noext', 'naive'): 'cbd648aa65bd9020fa8857f24d0d73028c0ba9db687653bb67e2991cffe5999a',
    ('2cm-noext', 'indexed'): 'ad177e92ce4389de47a962a2087686d67c9096e0a9d01d266a595a9c3046be66',
    ('2cm-nocommitcert', 'naive'): 'c52a317c654750082ec230db311d6e3bebb7e914aa2f07dcc72bf223163392a2',
    ('2cm-nocommitcert', 'indexed'): '0d4e111c34f4c5f309b7986ed07d3cf8c90f42d7e39dcd2087ee75b043f9b917',
    ('2cm-prepare-order', 'naive'): 'be086b97c6cf9833a05d7e1effe7741c91bdca6b604e6e40628f02b6269e4d6b',
    ('2cm-prepare-order', 'indexed'): '8494e22621586bc56db85511971eecc12c45e5798e8db18ad15cecc1987bc7a2',
    ('2cm-conflict-aware', 'naive'): '00129d1ea6f5b1465b7fe11ac02b286bc2426349662cc3051dc46c053999ac5c',
    ('2cm-conflict-aware', 'indexed'): '688fb2fa4d913a6678bd37fc9e9a19eb814f529431349e132e1cd081660758c4',
    ('naive', 'naive'): 'f8a4a99fa727cc91ef30a38195d2ad27ba712b046a76e03b4c07852c06ec87b5',
    ('naive', 'indexed'): 'f8a4a99fa727cc91ef30a38195d2ad27ba712b046a76e03b4c07852c06ec87b5',
    ('ticket', 'naive'): '301ca1be64ad7f57a5be8c9bbb85ae269de1b89d40bdd11dafe5981716ababb3',
    ('ticket', 'indexed'): '868694276b77854a89fb84ff5738dcf1a4731389d9d08c194ab03be06e5797e5',
    ('cgm', 'naive'): 'f8a4a99fa727cc91ef30a38195d2ad27ba712b046a76e03b4c07852c06ec87b5',
    ('cgm', 'indexed'): 'f8a4a99fa727cc91ef30a38195d2ad27ba712b046a76e03b4c07852c06ec87b5',
}


@pytest.mark.parametrize("method,engine,seed,failures", sorted(ABLATION_GOLDEN))
def test_ablation_workload_matches_golden(method, engine, seed, failures):
    result = run_seeded_workload(
        seed, failures=failures, method=method, certifier_engine=engine
    )
    assert fingerprint(result) == ABLATION_GOLDEN[(method, engine, seed, failures)]


@pytest.mark.parametrize("method,engine", sorted(CERTIFIER_GOLDEN))
def test_method_certifier_matches_golden(method, engine):
    certifier = method_system(method, engine).certifier("a")
    assert certifier_digest(certifier) == CERTIFIER_GOLDEN[(method, engine)]


#: (interval memory depth, engine) -> ``certifier_digest`` of E14's
#: certifier.  Naive engine only: the old indexed engine named a
#: different refusal witness (same decisions and counters), and the
#: interval memory now always scans.
MEMORY_GOLDEN = {
    (2, 'naive'): '480ac6fe01171df098acd2e67aafa45c606212e768ef80b61836587101493939',
    (4, 'naive'): '55f1385e6a9ff3c2d90779a151c8017795da933e073eab19ff0124001b35440e',
}


@pytest.mark.parametrize("depth,engine", sorted(MEMORY_GOLDEN))
def test_interval_memory_matches_golden(depth, engine):
    system = method_system("2cm", engine)
    remember_intervals(system, depth)
    assert certifier_digest(system.certifier("a")) == MEMORY_GOLDEN[(depth, engine)]


# ----------------------------------------------------------------------
# The paper's scenarios under every method.  Unlike the seeded workload
# above, these reach the H2/H3/Hx shapes where the switch-offs act:
# every method but ``ticket`` differs from ``2cm`` in at least one
# scenario.  Regenerate (only after an *intentional* semantic change)
# by printing ``scenario_digest(name, method)`` for every key.
# ----------------------------------------------------------------------

SCENARIOS = ("run_h1", "run_h2", "run_h3", "run_hx", "run_h2_indirect")


def scenario_digest(name: str, method: str) -> str:
    result = getattr(scenarios, name)(method)
    return hashlib.sha256(result.system.history.render().encode()).hexdigest()


#: (scenario runner, method) -> SHA-256 of ``system.history.render()``.
SCENARIO_GOLDEN = {
    ('run_h1', '2cm'): '54faf1ceb59244ba02db5ad4717f27211efb438401b4e10332c594cb35f64756',
    ('run_h1', '2cm-noext'): '54faf1ceb59244ba02db5ad4717f27211efb438401b4e10332c594cb35f64756',
    ('run_h1', '2cm-nocommitcert'): '54faf1ceb59244ba02db5ad4717f27211efb438401b4e10332c594cb35f64756',
    ('run_h1', '2cm-prepare-order'): '54faf1ceb59244ba02db5ad4717f27211efb438401b4e10332c594cb35f64756',
    ('run_h1', '2cm-conflict-aware'): '54faf1ceb59244ba02db5ad4717f27211efb438401b4e10332c594cb35f64756',
    ('run_h1', 'naive'): '08f0d9cc3f41c2a52f7570165d2fb97492e4a94a364d0e500893a49dd42165e1',
    ('run_h1', 'ticket'): '54faf1ceb59244ba02db5ad4717f27211efb438401b4e10332c594cb35f64756',
    ('run_h1', 'cgm'): 'a7266516fedb6d99fa210135946d2512638703c84b0092e209a198441600c85a',
    ('run_h2', '2cm'): '3b3f8399ececf651e185c570d487afc591271a14c48fc6fa13dbcd7e50c5c47a',
    ('run_h2', '2cm-noext'): '3b3f8399ececf651e185c570d487afc591271a14c48fc6fa13dbcd7e50c5c47a',
    ('run_h2', '2cm-nocommitcert'): '3b3f8399ececf651e185c570d487afc591271a14c48fc6fa13dbcd7e50c5c47a',
    ('run_h2', '2cm-prepare-order'): '3b3f8399ececf651e185c570d487afc591271a14c48fc6fa13dbcd7e50c5c47a',
    ('run_h2', '2cm-conflict-aware'): 'b0c539191402fd5393a13fe81e64fd541ef98c0035992cf05cf072b5e7e04a73',
    ('run_h2', 'naive'): '91c71e09bd3651daf627ae3c8f685833f8d65320492ddd0f02811aec5970c68b',
    ('run_h2', 'ticket'): '3b3f8399ececf651e185c570d487afc591271a14c48fc6fa13dbcd7e50c5c47a',
    ('run_h2', 'cgm'): '9125ef08ae9cd48c49b1048b2fd6a657616fe50311f68f13ccccbe545f87dba3',
    ('run_h3', '2cm'): '5c8a4ac8eb94188bb3a2d7b24d2ae73f5036214041822cbd9ba874a0c196e64c',
    ('run_h3', '2cm-noext'): '5c8a4ac8eb94188bb3a2d7b24d2ae73f5036214041822cbd9ba874a0c196e64c',
    ('run_h3', '2cm-nocommitcert'): '21e1032983479d59cc2c24c952f829df6baa08b42a3f87c523ec443a2ece955a',
    ('run_h3', '2cm-prepare-order'): '21e1032983479d59cc2c24c952f829df6baa08b42a3f87c523ec443a2ece955a',
    ('run_h3', '2cm-conflict-aware'): '5c8a4ac8eb94188bb3a2d7b24d2ae73f5036214041822cbd9ba874a0c196e64c',
    ('run_h3', 'naive'): '21e1032983479d59cc2c24c952f829df6baa08b42a3f87c523ec443a2ece955a',
    ('run_h3', 'ticket'): '5c8a4ac8eb94188bb3a2d7b24d2ae73f5036214041822cbd9ba874a0c196e64c',
    ('run_h3', 'cgm'): '64fadaecbd54e181ed74444e35805ebcf84b87541b2949c0e3dbd8d18f0f3732',
    ('run_hx', '2cm'): '9fb257640d092f2891329416d116442fd26e3f25c9dca8fce0e8f0695717c588',
    ('run_hx', '2cm-noext'): 'd0e5ad9b2502797d3817ed12b2002ce665f253e362812ddf4cc35b9bc1d177f7',
    ('run_hx', '2cm-nocommitcert'): 'a18632ae9e21b8c86d573b8bbe897c1dae6e6f5ab0bc8e9a6577a6e2cc0a94a4',
    ('run_hx', '2cm-prepare-order'): 'd0e5ad9b2502797d3817ed12b2002ce665f253e362812ddf4cc35b9bc1d177f7',
    ('run_hx', '2cm-conflict-aware'): '9fb257640d092f2891329416d116442fd26e3f25c9dca8fce0e8f0695717c588',
    ('run_hx', 'naive'): '4c85f61dc8c9beaad58cb65be7b5853fcabd7c175e8cb53fb9e30f2bfd231044',
    ('run_hx', 'ticket'): '9fb257640d092f2891329416d116442fd26e3f25c9dca8fce0e8f0695717c588',
    ('run_hx', 'cgm'): '301bc7d9f47c3cd278731a52ef3f1e130d7bab73b63d8057b9afaf3ef3212ae1',
    ('run_h2_indirect', '2cm'): '82b6462364daece887ca76f303eb604b1ac2422be619990730c80d53e8735222',
    ('run_h2_indirect', '2cm-noext'): '82b6462364daece887ca76f303eb604b1ac2422be619990730c80d53e8735222',
    ('run_h2_indirect', '2cm-nocommitcert'): '82b6462364daece887ca76f303eb604b1ac2422be619990730c80d53e8735222',
    ('run_h2_indirect', '2cm-prepare-order'): '82b6462364daece887ca76f303eb604b1ac2422be619990730c80d53e8735222',
    ('run_h2_indirect', '2cm-conflict-aware'): '672715a1fe98f72ba756e3dc1e6a9a23326314976b2699b741dde61e9ef7bbc8',
    ('run_h2_indirect', 'naive'): '6a1e06aefd4cde5280c8ac13fdaba66ebbaffbd815651d2ef7e6dbd59823adbb',
    ('run_h2_indirect', 'ticket'): '82b6462364daece887ca76f303eb604b1ac2422be619990730c80d53e8735222',
    ('run_h2_indirect', 'cgm'): '5ede4519c10a3d004431de731719431ab58e9cc900c775f50454be15eb6e2b51',
}


def test_scenario_golden_covers_every_method():
    assert set(SCENARIO_GOLDEN) == {(n, m) for n in SCENARIOS for m in METHODS}


@pytest.mark.parametrize("name,method", sorted(SCENARIO_GOLDEN))
def test_scenario_history_matches_golden(name, method):
    assert scenario_digest(name, method) == SCENARIO_GOLDEN[(name, method)]
