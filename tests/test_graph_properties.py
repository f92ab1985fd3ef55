"""Property tests for the graph kernel in ``repro.history.graphs``.

Each property checks the package's own algorithms against a reference
kept here: the paper's all-pairs commit-order graph, brute-force
reachability, and a definitional lexicographic topological sort.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given
from hypothesis import strategies as st

from repro.history.graphs import (
    DiGraph,
    commit_order_graph,
    condensation_order,
    find_cycle,
    strongly_connected_components,
    topological_order,
)
from repro.history.model import OpKind

from tests.helpers import HistoryBuilder

# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def all_pairs_commit_order_graph(ops) -> DiGraph:
    """CG exactly as Sec. 5.1 defines it: an arc for *every* ordered pair
    of local commits at the same site."""
    graph = DiGraph()
    committed_at: Dict[str, List] = {}
    for op in ops:
        if op.kind is not OpKind.LOCAL_COMMIT:
            continue
        graph.add_node(op.txn)
        earlier = committed_at.setdefault(op.site, [])
        for other in earlier:
            if other != op.txn:
                graph.add_edge(other, op.txn)
        earlier.append(op.txn)
    return graph


def reachable(graph: DiGraph, source) -> Set:
    seen = {source}
    frontier = [source]
    while frontier:
        for child in graph.successors(frontier.pop()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def smallest_topological_order(graph: DiGraph):
    """Repeatedly emit the smallest node whose predecessors are all out."""
    remaining = set(graph.nodes)
    order = []
    while remaining:
        ready = [
            node
            for node in remaining
            if not any(u in remaining and v == node for u, v in graph.edges)
        ]
        if not ready:
            return None
        order.append(min(ready))
        remaining.remove(order[-1])
    return order


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: A local-commit sequence: (transaction number, site) pairs, each pair
#: at most once; numbers above 6 are local transactions.
commit_sequences = st.lists(
    st.tuples(st.integers(1, 9), st.sampled_from("abc")),
    unique=True,
    max_size=24,
)


@st.composite
def digraphs(draw, max_nodes: int = 12) -> DiGraph:
    n = draw(st.integers(0, max_nodes))
    arcs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        if n
        else st.just([])
    )
    graph = DiGraph()
    for node in draw(st.permutations(range(n))):
        graph.add_node(node)
    for u, v in arcs:
        graph.add_edge(u, v)
    return graph


def history_of(commits: List[Tuple[int, str]]):
    h = HistoryBuilder()
    for number, site in commits:
        h.cl(number, site, local=number > 6)
    return h.history


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


class TestChainCommitOrderGraph:
    @given(commit_sequences)
    def test_same_cyclicity_and_topological_order_as_all_pairs(self, commits):
        ops = history_of(commits).ops
        chain, full = commit_order_graph(ops), all_pairs_commit_order_graph(ops)
        assert (find_cycle(chain) is None) == (find_cycle(full) is None)
        assert topological_order(chain) == topological_order(full)

    @given(commit_sequences)
    def test_same_reported_cycle_as_all_pairs(self, commits):
        ops = history_of(commits).ops
        assert find_cycle(commit_order_graph(ops)) == find_cycle(
            all_pairs_commit_order_graph(ops)
        )

    @given(commit_sequences)
    def test_one_arc_fewer_than_commits_per_site(self, commits):
        per_site: Dict[str, int] = {}
        for _, site in commits:
            per_site[site] = per_site.get(site, 0) + 1
        chain = commit_order_graph(history_of(commits).ops)
        assert chain.number_of_edges() <= sum(n - 1 for n in per_site.values())


class TestFindCycle:
    @given(digraphs())
    def test_reported_cycle_is_a_closed_walk_of_graph_arcs(self, graph):
        cycle = find_cycle(graph)
        if cycle is None:
            return
        assert cycle[0] == cycle[-1]
        assert len(set(cycle[:-1])) == len(cycle) - 1
        for u, v in zip(cycle, cycle[1:]):
            assert graph.has_edge(u, v)

    @given(digraphs())
    def test_no_cycle_iff_some_topological_order(self, graph):
        order = topological_order(graph)
        assert (find_cycle(graph) is None) == (order is not None)
        if order is not None:
            position = {node: i for i, node in enumerate(order)}
            assert sorted(order) == sorted(graph.nodes)
            assert all(position[u] < position[v] for u, v in graph.edges)


class TestTopologicalOrder:
    @given(digraphs(max_nodes=8))
    def test_lexicographically_smallest(self, graph):
        assert topological_order(graph) == smallest_topological_order(graph)


class TestStronglyConnectedComponents:
    @given(digraphs())
    def test_partition_is_mutual_reachability(self, graph):
        reach = {node: reachable(graph, node) for node in graph.nodes}
        expected = {
            frozenset(v for v in graph.nodes if v in reach[u] and u in reach[v])
            for u in graph.nodes
        }
        components = strongly_connected_components(graph)
        assert {frozenset(c) for c in components} == expected
        assert sum(map(len, components)) == graph.number_of_nodes()

    @given(digraphs())
    def test_condensation_order_is_topological(self, graph):
        components = strongly_connected_components(graph)
        ordered = condensation_order(graph, components)
        assert sorted(map(sorted, ordered)) == sorted(map(sorted, components))
        rank = {node: i for i, members in enumerate(ordered) for node in members}
        assert all(rank[u] <= rank[v] for u, v in graph.edges)
