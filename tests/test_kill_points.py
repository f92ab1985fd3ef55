"""Coordinator kill points: the probe fires at the exact protocol
instants the chaos drill arms its SIGKILLs at.

``sn_drawn`` is before any PREPARE leaves (a kill there creates the
classic pre-decision blocking window), ``decision_logged`` is after the
DECISION record is forced but before any COMMIT leaves (the in-doubt
window the decision log must re-drive), ``mid_broadcast`` is after
⌈n/2⌉ COMMIT sends (some participants decided, some not).  Their
relative order — and that an abort path fires none of the commit-side
probes — is what makes the drill's per-kill-point assertions sound.
"""

import pytest

from repro.common.ids import global_txn
from repro.core.coordinator import (
    COORDINATOR_KILL_POINTS,
    GlobalTransactionSpec,
)
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.network import LatencyModel

from tests.helpers import drain


def build(sites=("a", "b")):
    system = MultidatabaseSystem(
        SystemConfig(sites=sites, latency=LatencyModel(base=5.0))
    )
    system.load("a", "t", {"X": 100})
    if "b" in sites:
        system.load("b", "t", {"Z": 10})
    return system


def test_probe_order_spans_all_three_points_on_a_two_site_commit():
    system = build()
    fired = []
    system.coordinator().kill_probe = lambda point, txn: fired.append(
        (point, txn)
    )
    txn = global_txn(1)
    done = system.submit(
        GlobalTransactionSpec(
            txn=txn,
            steps=(
                ("a", UpdateItem("t", "X", AddValue(-5))),
                ("b", UpdateItem("t", "Z", AddValue(5))),
            ),
        )
    )
    drain(system)
    assert done.value.committed
    points = [point for point, _txn in fired]
    assert points == ["sn_drawn", "decision_logged", "mid_broadcast"]
    assert all(t == txn for _p, t in fired)
    assert tuple(points) == COORDINATOR_KILL_POINTS


def test_single_site_commit_skips_mid_broadcast():
    """With one participant there is no 'half the broadcast' window —
    the kill would be indistinguishable from decision_logged."""
    system = build(sites=("a",))
    fired = []
    system.coordinator().kill_probe = lambda point, _txn: fired.append(point)
    done = system.submit(
        GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(("a", UpdateItem("t", "X", AddValue(-5))),),
        )
    )
    drain(system)
    assert done.value.committed
    assert fired == ["sn_drawn", "decision_logged"]


def test_aborted_txn_fires_no_commit_side_probes():
    system = build()
    fired = []
    system.coordinator().kill_probe = lambda point, _txn: fired.append(point)
    txn = global_txn(1)
    done = system.submit(
        GlobalTransactionSpec(
            txn=txn,
            steps=(
                ("a", UpdateItem("t", "X", AddValue(-5))),
                ("b", UpdateItem("t", "Z", AddValue(5))),
            ),
        )
    )

    # kill b's incarnation while it is still active: the PREPARE (or the
    # next COMMAND) finds it not alive, votes REFUSE, and the global
    # decision is an abort
    from repro.sim.failures import abort_current_incarnation

    def try_abort():
        if done.done:
            return
        if not abort_current_incarnation(system, txn, "b"):
            system.kernel.schedule(1.0, try_abort)

    system.kernel.schedule(1.0, try_abort)
    drain(system)
    assert not done.value.committed
    assert "decision_logged" not in fired
    assert "mid_broadcast" not in fired


def test_resolvers_reject_unknown_points():
    from repro.rt.node import (
        resolve_coordinator_kill_point,
        resolve_kill_point,
    )

    for point in COORDINATOR_KILL_POINTS:
        assert resolve_coordinator_kill_point(point) == point
    with pytest.raises(ValueError, match="unknown coordinator kill point"):
        resolve_coordinator_kill_point("prepared")
    assert resolve_kill_point("prepared") == "post-prepare"
    with pytest.raises(ValueError, match="unknown kill point"):
        resolve_kill_point("sn_drawn")
