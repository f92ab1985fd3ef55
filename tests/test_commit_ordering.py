"""Commit certification ordering across concurrent global transactions."""

from repro.common.ids import global_txn
from repro.core.agent import AgentConfig
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.graphs import commit_order_graph, is_acyclic
from repro.history.model import OpKind
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.network import LatencyModel
from repro.sim.metrics import audit

from tests.helpers import drain


def build(method="2cm", overrides=None, **kwargs):
    kwargs.setdefault("sites", ("a", "b"))
    kwargs.setdefault("n_coordinators", 2)
    system = MultidatabaseSystem(
        SystemConfig(
            method=method,
            latency=LatencyModel(base=5.0, overrides=overrides or {}),
            **kwargs,
        )
    )
    system.load("a", "t", {"P": 1, "R": 2})
    system.load("b", "t", {"S": 3, "U": 4})
    return system


def disjoint_specs():
    """Two multi-site transactions with no conflicting items.

    T1 visits the slow-channel site first so the channel delay hits its
    early commands and its final COMMIT, but not its serial number draw
    relative to T2 (which starts later): SN(1) < SN(2) while T2's COMMIT
    reaches site b before T1's does.
    """
    t1 = GlobalTransactionSpec(
        txn=global_txn(1),
        steps=(
            ("b", UpdateItem("t", "S", AddValue(1))),
            ("a", UpdateItem("t", "P", AddValue(1))),
        ),
    )
    t2 = GlobalTransactionSpec(
        txn=global_txn(2),
        steps=(
            ("a", UpdateItem("t", "R", AddValue(1))),
            ("b", UpdateItem("t", "U", AddValue(1))),
        ),
    )
    return t1, t2


def submit_race(system, t1, t2, t2_at=110.0):
    """Submit t1 now and t2 at ``t2_at`` (mid-flight of t1)."""
    done1 = system.submit(t1, coordinator=0)
    holder = {}

    def later():
        holder["done2"] = system.submit(t2, coordinator=1)

    system.kernel.schedule(t2_at, later)
    return done1, holder


def local_commit_order(system, site):
    return [
        op.txn
        for op in system.history.ops
        if op.kind is OpKind.LOCAL_COMMIT and op.site == site
    ]


class TestSnOrderAcrossSites:
    def test_reversed_commit_arrivals_are_reordered(self):
        """T2's COMMIT reaches site b first, but T1 holds the smaller
        serial number — commit certification delays T2 at b until T1
        committed there, keeping CG acyclic."""
        overrides = {("coord:c1", "agent:b"): 60.0}  # T1 slow towards b
        system = build(overrides=overrides)
        t1, t2 = disjoint_specs()
        done1, holder = submit_race(system, t1, t2)
        drain(system)
        done2 = holder["done2"]
        assert done1.value.committed and done2.value.committed
        assert done1.value.sn < done2.value.sn
        assert local_commit_order(system, "b") == [global_txn(1), global_txn(2)]
        cg = commit_order_graph(system.history.ops)
        assert is_acyclic(cg)
        assert system.certifier("b").commit_delays >= 1
        assert audit(system).ok

    def test_without_commit_certification_cg_can_go_cyclic(self):
        overrides = {("coord:c1", "agent:b"): 60.0}
        system = build(method="2cm-nocommitcert", overrides=overrides)
        t1, t2 = disjoint_specs()
        submit_race(system, t1, t2)
        drain(system)
        order_a = local_commit_order(system, "a")
        order_b = local_commit_order(system, "b")
        assert order_a != order_b  # reversed orders: the raw race
        cg = commit_order_graph(system.history.ops)
        assert not is_acyclic(cg)

    def test_failure_free_run_has_zero_aborts(self):
        """Sec. 6: 'in a failure-free situation it does not abort any
        transactions' — even with racing commits."""
        overrides = {("coord:c1", "agent:b"): 60.0}
        system = build(overrides=overrides)
        t1, t2 = disjoint_specs()
        done1, holder = submit_race(system, t1, t2)
        drain(system)
        assert done1.value.committed and holder["done2"].value.committed
        for coordinator in system.coordinators:
            assert coordinator.aborted == 0


class TestCommitRetryTimer:
    def test_timer_only_retry_still_commits(self):
        """With eager retry off, the paper's pure retry-timeout loop
        (Appendix C) must still make progress."""
        overrides = {("coord:c1", "agent:b"): 60.0}
        system = build(
            overrides=overrides,
            agent=AgentConfig(
                alive_check_interval=50.0,
                commit_retry_interval=7.0,
                eager_commit_retry=False,
            ),
        )
        t1, t2 = disjoint_specs()
        done1, holder = submit_race(system, t1, t2)
        drain(system)
        assert done1.value.committed and holder["done2"].value.committed
        assert local_commit_order(system, "b") == [global_txn(1), global_txn(2)]


class TestTicketBaseline:
    def test_ticket_orders_by_submission(self):
        """Under the ticket method SNs are drawn at BEGIN from a central
        counter: submission order dictates commit order everywhere."""
        system = build(method="ticket")
        t1, t2 = disjoint_specs()
        done1 = system.submit(t1, coordinator=0)
        done2 = system.submit(t2, coordinator=1)
        drain(system)
        assert done1.value.committed and done2.value.committed
        assert done1.value.sn.clock == 1.0
        assert done2.value.sn.clock == 2.0
        assert local_commit_order(system, "a") == [global_txn(1), global_txn(2)]
        assert local_commit_order(system, "b") == [global_txn(1), global_txn(2)]
