"""Unit tests for SG(H) and CG(H) (repro.history.graphs)."""

import os
import subprocess
import sys

from repro.common.ids import global_txn, local_txn
from repro.history.graphs import (
    commit_order_graph,
    find_cycle,
    is_acyclic,
    serialization_graph,
    topological_order,
)

from tests.helpers import HistoryBuilder


class TestSerializationGraph:
    def test_rw_conflict_edge_direction(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").r(2, "a", "X")
        sg = serialization_graph(h.history.ops)
        assert sg.has_edge(global_txn(1), global_txn(2))
        assert not sg.has_edge(global_txn(2), global_txn(1))

    def test_no_edge_for_read_read(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").r(2, "a", "X")
        sg = serialization_graph(h.history.ops)
        assert sg.number_of_edges() == 0

    def test_cross_site_ops_no_edge(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").w(2, "b", "X")
        sg = serialization_graph(h.history.ops)
        assert sg.number_of_edges() == 0

    def test_incarnations_merge_into_one_node(self):
        h = HistoryBuilder()
        h.w(1, "a", "X", inc=0).al(1, "a", inc=0)
        h.w(2, "a", "X")
        h.w(1, "a", "X", inc=1)
        sg = serialization_graph(h.history.ops)
        assert set(sg.nodes) == {global_txn(1), global_txn(2)}
        # Both directions exist: inc0 before T2, T2 before inc1 -> cycle.
        assert sg.has_edge(global_txn(1), global_txn(2))
        assert sg.has_edge(global_txn(2), global_txn(1))
        assert find_cycle(sg) is not None

    def test_local_txns_participate(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").r(4, "a", "X", local=True)
        sg = serialization_graph(h.history.ops)
        assert sg.has_edge(global_txn(1), local_txn(4, "a"))

    def test_acyclic_chain_topological_order(self):
        h = HistoryBuilder()
        h.w(1, "a", "X").r(2, "a", "X").w(2, "a", "Y").r(3, "a", "Y")
        sg = serialization_graph(h.history.ops)
        order = topological_order(sg)
        assert order == [global_txn(1), global_txn(2), global_txn(3)]


class TestCommitOrderGraph:
    def test_arc_follows_local_commit_order_per_site(self):
        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "a")
        cg = commit_order_graph(h.history.ops)
        assert cg.has_edge(global_txn(1), global_txn(2))
        assert not cg.has_edge(global_txn(2), global_txn(1))

    def test_no_arc_across_sites(self):
        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "b")
        cg = commit_order_graph(h.history.ops)
        assert cg.number_of_edges() == 0

    def test_reversed_orders_make_cycle(self):
        """The H2/H3 signature: C^a_1 < C^a_2 but C^b_2 < C^b_1."""
        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "a").cl(2, "b").cl(1, "b")
        cg = commit_order_graph(h.history.ops)
        cycle = find_cycle(cg)
        assert cycle is not None
        assert set(cycle[:-1]) == {global_txn(1), global_txn(2)}

    def test_nodes_require_a_local_commit(self):
        h = HistoryBuilder()
        h.r(1, "a", "X").c(1)  # decided but never locally committed
        cg = commit_order_graph(h.history.ops)
        assert cg.number_of_nodes() == 0

    def test_local_transactions_are_nodes_too(self):
        h = HistoryBuilder()
        h.cl(1, "a").cl(4, "a", local=True)
        cg = commit_order_graph(h.history.ops)
        assert cg.has_edge(global_txn(1), local_txn(4, "a"))

    def test_topological_order_is_serialization_order(self):
        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "a").cl(1, "b").cl(2, "b")
        cg = commit_order_graph(h.history.ops)
        assert is_acyclic(cg)
        assert topological_order(cg) == [global_txn(1), global_txn(2)]


class TestCycleHelpers:
    def test_find_cycle_none_on_dag(self):
        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "a")
        cg = commit_order_graph(h.history.ops)
        assert find_cycle(cg) is None

    def test_topological_order_none_on_cycle(self):
        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "a").cl(2, "b").cl(1, "b")
        cg = commit_order_graph(h.history.ops)
        assert topological_order(cg) is None


class TestDotExport:
    def test_dot_contains_nodes_and_edges(self):
        from repro.history.graphs import to_dot

        h = HistoryBuilder()
        h.cl(1, "a").cl(2, "a").cl(4, "a", local=True)
        cg = commit_order_graph(h.history.ops)
        dot = to_dot(cg, "CG")
        assert dot.startswith("digraph CG {")
        assert '"T1" -> "T2";' in dot
        assert '"L4" [shape=box];' in dot
        assert dot.endswith("}")

    def test_dot_of_empty_graph(self):
        from repro.history.graphs import to_dot

        h = HistoryBuilder()
        assert to_dot(serialization_graph(h.history.ops)) == "digraph G {\n}"


class TestNoGraphLibraryAtRuntime:
    def test_audit_of_h2_imports_no_networkx(self):
        """The history layer carries its own graph kernel: a full audit
        must not import ``networkx``, even when it is installed."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            "from repro.sim.metrics import audit\n"
            "from repro.workload.scenarios import run_h2\n"
            "cycle = audit(run_h2('naive').system).distortions.commit_graph_cycle\n"
            "assert [t.label for t in cycle] == ['T1', 'T3', 'L4', 'T1'], cycle\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
