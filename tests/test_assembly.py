"""One assembly for both substrates (repro.core.assembly).

The simulator and the real cluster build every role through the same
builders, and a durable simulator rebuilt over its logs boots the way a
respawned rt coordinator does: clock floored above the decision log's
SN high-water, unfinished decisions re-driven.
"""

import ast
from pathlib import Path

from repro.common.ids import SerialNumber, global_txn
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem
from repro.durability import Decision, DurabilityConfig, DurableDecisionLog
from repro.ldbs.commands import AddValue, UpdateItem

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The roles only ``core/assembly.py`` may construct.
ROLE_CLASSES = {
    "BoundDataGuard",
    "LocalTransactionManager",
    "Certifier",
    "TwoPCAgent",
    "RealTimeClockSN",
    "Coordinator",
}


def _offences(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ROLE_CLASSES:
                yield f"{path.name}:{node.lineno} constructs {name}"
        elif isinstance(node, ast.Attribute) and node.attr == "_txns":
            yield f"{path.name}:{node.lineno} reads ._txns"


def test_rt_and_the_simulator_build_roles_only_through_the_assembly():
    paths = sorted((SRC / "rt").glob("*.py")) + [SRC / "core" / "dtm.py"]
    assert [o for path in paths for o in _offences(path)] == []


def test_reopened_durable_system_floors_its_clock_and_finishes_the_decision(
    tmp_path,
):
    durability = DurabilityConfig(root=str(tmp_path), sync="simulated")
    sealed = SerialNumber(500.0, "c1", 0)
    log = DurableDecisionLog.open_name("c1", durability)
    log.log_decision(
        Decision(txn=global_txn(1), committed=True, sn=sealed, sites=("a", "b"))
    )
    log.close()

    system = MultidatabaseSystem.build("2cm", sites=("a", "b"), durability=durability)
    assert len(system.coordinator().decision_log.in_doubt()) == 1
    system.load("a", "x", {1: 0})
    system.load("b", "y", {1: 0})
    done = system.submit(
        GlobalTransactionSpec.from_site_commands(
            global_txn(2),
            {
                "a": [UpdateItem("x", 1, AddValue(1))],
                "b": [UpdateItem("y", 1, AddValue(1))],
            },
        )
    )
    system.run()
    outcome = done.value
    assert outcome.committed
    assert outcome.sn > sealed
    assert system.coordinator().decision_log.in_doubt() == []
    system.close()

    reopened = DurableDecisionLog.open_name("c1", durability)
    assert reopened.in_doubt() == []
    reopened.close()


def _run_transfers(system, first, count):
    outcomes = []
    for n in range(first, first + count):
        done = system.submit(
            GlobalTransactionSpec.from_site_commands(
                global_txn(n),
                {
                    "a": [UpdateItem("x", 1, AddValue(1))],
                    "b": [UpdateItem("y", 1, AddValue(-1))],
                },
            )
        )
        system.run()
        outcomes.append(done.value)
    return outcomes


def test_rebuilt_ticket_system_draws_tickets_above_its_sealed_high_water(tmp_path):
    durability = DurabilityConfig(root=str(tmp_path), sync="simulated")
    sealed = []
    for rebuild in range(3):
        system = MultidatabaseSystem.build(
            "ticket", sites=("a", "b"), durability=durability
        )
        system.load("a", "x", {1: 0})
        system.load("b", "y", {1: 0})
        outcomes = _run_transfers(system, 1 + 3 * rebuild, 3)
        system.close()
        assert [o.committed for o in outcomes] == [True] * 3
        sealed.extend(o.sn for o in outcomes)
    assert sealed == sorted(sealed) and len(set(sealed)) == len(sealed)
