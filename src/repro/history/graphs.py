"""Serialization graph ``SG(H)`` and commit-order graph ``CG(H)``.

``SG(H)`` is the classic conflict graph over transactions (edges follow
the order of conflicting elementary operations), built over whatever
operation sequence the caller supplies — usually ``C(H)``.  The paper
points out that under resubmission ``SG(H)`` *may be cyclic while H is
still view serializable*, which is why view serializability (not
conflict serializability) is the ultimate criterion; the exact checker
lives in :mod:`repro.history.viewser`.

``CG(H)`` (Sec. 5.1) has an arc ``T_k → T_i`` iff some local commit of
``T_k`` precedes some local commit of ``T_i`` at the same site.  The
paper's key lemma: if ``CG(C(H))`` is acyclic (and CI, DLU, SRS hold),
the topological order of ``CG`` is a global view-serialization order —
hence the commit certification works by keeping this graph acyclic.

The graph type and its algorithms are the package's own: an
insertion-ordered adjacency dict, an iterative cycle finder, a
lexicographic topological sort and Tarjan's strongly connected
components.  Every traversal walks nodes in insertion order and each
node's successors in arc-insertion order, so what they report is
deterministic and independent of the process hash seed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.ids import TxnId
from repro.history.model import OpKind, Operation


class DiGraph:
    """A directed graph without parallel arcs, as ordered adjacency dicts."""

    __slots__ = ("_succ",)

    def __init__(self) -> None:
        #: node -> {successor: None}, both levels in insertion order.
        self._succ: Dict[Hashable, Dict[Hashable, None]] = {}

    def add_node(self, node: Hashable) -> None:
        if node not in self._succ:
            self._succ[node] = {}

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        succ = self._succ
        if u not in succ:
            succ[u] = {}
        if v not in succ:
            succ[v] = {}
        succ[u][v] = None

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self._succ.get(u, ())

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._succ)

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        return [(u, v) for u, out in self._succ.items() for v in out]

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def number_of_edges(self) -> int:
        return sum(map(len, self._succ.values()))


def serialization_graph(ops: Sequence[Operation]) -> DiGraph:
    """Build ``SG`` over the given operation sequence.

    Nodes are transactions with at least one R/W operation; there is an
    edge ``T_a → T_b`` when some operation of ``T_a`` precedes and
    conflicts with some operation of ``T_b`` (same site, same item, at
    least one write, different transactions).  All incarnations of a
    global transaction contribute to its single node, as the paper's
    global serializability notion requires.
    """
    graph = DiGraph()
    succ = graph._succ
    # Single pass with per-item writer/reader partitioning: a later
    # write conflicts with every earlier transaction that touched the
    # item; a later read conflicts only with earlier *writers* — so
    # read-read pairs are never even enumerated, and repeated conflicts
    # collapse into per-transaction sets instead of O(ops²) pairs.  The
    # per-source adjacency order — which decides e.g. which cycle
    # ``find_cycle`` reports — is fixed by the position of the *later*
    # op, so it does not depend on set iteration order.
    read, write = OpKind.READ, OpKind.WRITE
    writers: Dict[Tuple[str, object], Set[TxnId]] = {}
    touched: Dict[Tuple[str, object], Set[TxnId]] = {}
    for op in ops:
        kind = op.kind
        if kind is not read and kind is not write:
            continue
        txn = op.txn
        if txn not in succ:
            succ[txn] = {}
        key = (op.site, op.item)
        earlier = touched.get(key)
        if kind is write:
            if earlier:
                for other in earlier:
                    if other != txn:
                        succ[other][txn] = None
                earlier.add(txn)
            else:
                touched[key] = {txn}
            item_writers = writers.get(key)
            if item_writers is None:
                writers[key] = {txn}
            else:
                item_writers.add(txn)
        else:
            item_writers = writers.get(key)
            if item_writers:
                for other in item_writers:
                    if other != txn:
                        succ[other][txn] = None
            if earlier is None:
                touched[key] = {txn}
            else:
                earlier.add(txn)
    return graph


def commit_order_graph(ops: Sequence[Operation]) -> DiGraph:
    """Build ``CG`` over the given operation sequence (paper Sec. 5.1).

    Nodes: transactions with at least one local commit.  The paper's
    arc ``T_k → T_i`` for *every* ``C^x_kj <_H C^x_ig`` is stored as the
    per-site chain of consecutive local commits only — n − 1 arcs per
    site instead of all ordered pairs.  Both have the same transitive
    closure, hence the same cyclicity and the same lexicographic
    topological order; and :func:`find_cycle` reports the same cycle on
    either, because an all-pairs arc that skips a commit always points
    at a node the chain has already finished exploring.
    """
    graph = DiGraph()
    succ = graph._succ
    last_at: Dict[str, TxnId] = {}
    for op in ops:
        if op.kind is not OpKind.LOCAL_COMMIT:
            continue
        txn = op.txn
        if txn not in succ:
            succ[txn] = {}
        previous = last_at.get(op.site)
        last_at[op.site] = txn
        if previous is not None and previous != txn:
            succ[previous][txn] = None
    return graph


def find_cycle(graph: DiGraph) -> Optional[List[Hashable]]:
    """One cycle as a node list (first node repeated last), or ``None``.

    Depth-first search, white/grey/black, started from each unexplored
    node in insertion order and following successors in insertion
    order; the first arc back into the current path closes the cycle.
    """
    succ = graph._succ
    finished: Set[Hashable] = set()
    for root in succ:
        if root in finished:
            continue
        path = [root]
        on_path = {root: 0}
        children = [iter(succ[root])]
        while children:
            for child in children[-1]:
                if child in on_path:
                    return path[on_path[child]:] + [child]
                if child not in finished:
                    on_path[child] = len(path)
                    path.append(child)
                    children.append(iter(succ[child]))
                    break
            else:
                node = path.pop()
                del on_path[node]
                finished.add(node)
                children.pop()
    return None


def is_acyclic(graph: DiGraph) -> bool:
    return find_cycle(graph) is None


def topological_order(graph: DiGraph) -> Optional[List[Hashable]]:
    """The lexicographically smallest topological order, or ``None`` if
    the graph is cyclic (Kahn's algorithm with a heap of ready nodes, so
    nodes must be mutually orderable, as transaction ids are)."""
    succ = graph._succ
    indegree = dict.fromkeys(succ, 0)
    for out in succ.values():
        for node in out:
            indegree[node] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapify(ready)
    order = []
    while ready:
        node = heappop(ready)
        order.append(node)
        for child in succ[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heappush(ready, child)
    return order if len(order) == len(succ) else None


def strongly_connected_components(graph: DiGraph) -> List[List[Hashable]]:
    """Tarjan's strongly connected components, without recursion.

    Components come out in completion order: every component after all
    the components it has arcs into.
    """
    succ = graph._succ
    index: Dict[Hashable, int] = {}
    low: Dict[Hashable, int] = {}
    stack: List[Hashable] = []
    on_stack: Set[Hashable] = set()
    components: List[List[Hashable]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def condensation_order(
    graph: DiGraph, components: List[List[Hashable]]
) -> List[List[Hashable]]:
    """``components`` of ``graph`` in a topological order of the
    condensation.

    First-in first-out Kahn over the arcs between components, with
    components numbered as ``components`` lists them and their arcs
    taken in node, then successor order.  Any topological order would
    be sound for the SCC-guided search; this fixed one decides which
    witness it returns and how many candidates it tries.
    """
    owner = {node: i for i, members in enumerate(components) for node in members}
    arcs: List[Dict[int, None]] = [{} for _ in components]
    for node, out in graph._succ.items():
        source = owner[node]
        for child in out:
            target = owner[child]
            if target != source:
                arcs[source][target] = None
    indegree = [0] * len(components)
    for out in arcs:
        for target in out:
            indegree[target] += 1
    order = [i for i, degree in enumerate(indegree) if degree == 0]
    for source in order:  # the list is the FIFO queue: appends are visited
        for target in arcs[source]:
            indegree[target] -= 1
            if indegree[target] == 0:
                order.append(target)
    return [components[i] for i in order]


def to_dot(graph: DiGraph, name: str = "G") -> str:
    """Graphviz DOT rendering of an SG/CG (nodes labelled T1, L4, ...).

    Handy for dropping a recorded anomaly into any DOT viewer::

        print(to_dot(commit_order_graph(projection.ops), "CG"))
    """
    lines = [f"digraph {name} {{"]
    for node in sorted(graph.nodes):
        shape = "box" if getattr(node, "is_local", False) else "ellipse"
        lines.append(f'  "{node.label}" [shape={shape}];')
    for src, dst in sorted(graph.edges):
        lines.append(f'  "{src.label}" -> "{dst.label}";')
    lines.append("}")
    return "\n".join(lines)
