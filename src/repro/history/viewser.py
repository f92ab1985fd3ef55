"""View-serializability of the committed projection (the paper's
ultimate correctness criterion).

The paper's yardstick: ``C(H)`` must be *view equivalent* to some serial
history containing exactly the same transaction histories ``H(T_k)`` —
including the operations of unilaterally aborted incarnations, whose
writes a serial execution would also undo at their ``A^s_kj`` marker.

We decide this exactly, by replay:

1.  Each transaction's operations (reads, writes, local commits and
    local aborts, in recorded order) form its *block*.
2.  A candidate serial history is a permutation of the blocks.  Blocks
    are replayed against a writer-tag store with before-image undo, so
    an aborted incarnation's writes vanish at its abort marker exactly
    as the RR assumption makes them vanish physically.
3.  The candidate matches iff every read observes the *same source
    transaction* as it did physically (the recorder captured the
    physical reads-from via storage writer tags) and the final writer
    tags per item coincide.

A depth-first search over permutations prunes any prefix whose latest
block already misreads, which keeps the exact check fast for the paper-
scale scenarios.  Two shortcuts frame the search: an acyclic ``SG`` is
verified directly via its topological order (conflict ⇒ view
serializability), and histories with more than ``max_txns``
transactions whose ``SG`` is cyclic are reported as undecided rather
than searched (the benchmark harness then relies on the paper's
sufficient criterion: CI + DLU + SRS + acyclic CG).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.ids import SubtxnId, TxnId
from repro.history.committed import CommittedProjection
from repro.history.graphs import (
    DiGraph,
    condensation_order,
    serialization_graph,
    strongly_connected_components,
    topological_order,
)
from repro.history.model import OpKind, Operation

#: A site-qualified item key in the replay store.
_ItemKey = Tuple[str, object]
#: A read source at transaction granularity (None = initial value, T0).
_Source = Optional[TxnId]


@dataclass
class ViewSerializabilityResult:
    """Outcome of the check.

    ``serializable`` is ``None`` when the exact search was not attempted
    (too many transactions with a cyclic SG) — callers then fall back to
    the paper's sufficient criterion.
    """

    serializable: Optional[bool]
    order: Optional[List[TxnId]] = None
    permutations_tried: int = 0
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return bool(self.serializable)


def _txn_of(source: Optional[SubtxnId]) -> _Source:
    return None if source is None else source.txn


def _replay_block(
    tags: Dict[_ItemKey, _Source],
    ops: Sequence[Operation],
    expected: Optional[List[_Source]],
) -> Optional[List[_Source]]:
    """Replay one transaction block against ``tags`` (mutated in place).

    Returns the list of sources its reads observed, or ``None`` as soon
    as a read deviates from ``expected`` (prefix pruning).  Writes are
    tagged per incarnation and undone at that incarnation's local abort,
    committed (made permanent) at its local commit.
    """
    undo: Dict[SubtxnId, List[Tuple[_ItemKey, _Source]]] = {}
    seen: List[_Source] = []
    for op in ops:
        if op.kind is OpKind.READ:
            key = (op.site, op.item)
            source = tags.get(key)
            seen.append(source)
            if expected is not None and expected[len(seen) - 1] != source:
                return None
        elif op.kind is OpKind.WRITE:
            key = (op.site, op.item)
            undo.setdefault(op.subtxn, []).append((key, tags.get(key)))
            tags[key] = op.txn
        elif op.kind is OpKind.LOCAL_ABORT:
            for key, previous in reversed(undo.pop(op.subtxn, [])):
                tags[key] = previous
        elif op.kind is OpKind.LOCAL_COMMIT:
            undo.pop(op.subtxn, None)
    return seen


def _recorded_sources(ops: Sequence[Operation]) -> List[_Source]:
    """The physically observed read sources of one block, in op order."""
    return [_txn_of(op.read_from) for op in ops if op.kind is OpKind.READ]


def _blocks(projection: CommittedProjection) -> Dict[TxnId, List[Operation]]:
    blocks: Dict[TxnId, List[Operation]] = {}
    relevant = (OpKind.READ, OpKind.WRITE, OpKind.LOCAL_COMMIT, OpKind.LOCAL_ABORT)
    for op in projection.ops:
        if op.kind in relevant:
            blocks.setdefault(op.txn, []).append(op)
    return blocks


def _final_tags(projection: CommittedProjection) -> Dict[_ItemKey, _Source]:
    """Final committed writer per item, from replaying ``C(H)`` as
    recorded (matches the physical end state)."""
    tags: Dict[_ItemKey, _Source] = {}
    _replay_block(tags, projection.ops, expected=None)
    return {key: source for key, source in tags.items()}


def check_view_serializable(
    projection: CommittedProjection,
    max_txns: int = 9,
    sg: Optional[DiGraph] = None,
) -> ViewSerializabilityResult:
    """Decide whether ``C(H)`` is view serializable (see module docs).

    ``sg`` is ``SG`` over ``projection.data_ops()``, for a caller that
    has already built it; it is built here otherwise.
    """
    blocks = _blocks(projection)
    txns = sorted(blocks)
    if not txns:
        return ViewSerializabilityResult(True, order=[], reason="empty projection")

    recorded = {txn: _recorded_sources(blocks[txn]) for txn in txns}
    target_tags = _final_tags(projection)

    # A read whose physical source is a transaction outside C(H) can
    # never be matched by any serial arrangement of C(H)'s blocks.
    included: Set[_Source] = {None}
    included.update(txns)
    for txn in txns:
        for source in recorded[txn]:
            if source not in included:
                return ViewSerializabilityResult(
                    False,
                    reason=(
                        f"{txn.label} read from {source.label}, which is "
                        "not in the committed projection (dirty read)"
                    ),
                )

    def try_order(order: Sequence[TxnId]) -> bool:
        tags: Dict[_ItemKey, _Source] = {}
        for txn in order:
            if _replay_block(tags, blocks[txn], recorded[txn]) is None:
                return False
        return _tags_match(tags, target_tags)

    # Fast path: acyclic SG -> conflict serializable -> view serializable
    # (still verified by replay for defence in depth).
    if sg is None:
        sg = serialization_graph(projection.data_ops())
    topo = topological_order(sg)
    if topo is not None:
        in_topo = set(topo)
        full = topo + [txn for txn in txns if txn not in in_topo]
        if try_order(full):
            return ViewSerializabilityResult(
                True, order=full, permutations_tried=1, reason="SG acyclic"
            )

    tried = 0

    # Cyclic residue: only the transactions inside a strongly connected
    # component of SG can need reordering relative to each other; the
    # condensation's topological order pins everything else.  Searching
    # per-SCC permutations is polynomial when cycles stay small (the
    # common case under resubmission), and every witness it finds is
    # replay-verified, so a positive answer is sound.  It is *not*
    # complete — view equivalence may reorder across SG edges — so a
    # miss falls through to the exhaustive search below.
    scc_order, scc_tried = _search_scc_residue(
        sg, txns, blocks, recorded, target_tags, max_txns
    )
    tried += scc_tried
    if scc_order is not None:
        return ViewSerializabilityResult(
            True,
            order=scc_order,
            permutations_tried=tried,
            reason="SCC-guided search",
        )

    if len(txns) > max_txns:
        return ViewSerializabilityResult(
            None,
            reason=(
                f"{len(txns)} transactions with cyclic SG exceed the exact "
                f"search bound ({max_txns})"
            ),
        )

    # Exact search with prefix pruning.
    witness, exact_tried = _search_orders([txns], blocks, recorded, target_tags)
    tried += exact_tried
    if witness is not None:
        return ViewSerializabilityResult(
            True, order=witness, permutations_tried=tried, reason="exact search"
        )
    return ViewSerializabilityResult(
        False,
        permutations_tried=tried,
        reason="no serial order is view equivalent to C(H)",
    )


def _search_scc_residue(
    sg: DiGraph,
    txns: Sequence[TxnId],
    blocks: Dict[TxnId, List[Operation]],
    recorded: Dict[TxnId, List[_Source]],
    target_tags: Dict[_ItemKey, _Source],
    max_txns: int,
) -> Tuple[Optional[List[TxnId]], int]:
    """Search serial orders that permute only within SG's cyclic SCCs.

    The condensation's topological order fixes the relative order of
    distinct components; only members of the same strongly connected
    component are permuted (with the same prefix pruning as the full
    search).  Returns ``(witness_order_or_None, permutations_tried)``.
    Skipped entirely — ``(None, 0)`` — when there is no non-trivial SCC,
    when the largest SCC exceeds ``max_txns`` (the search would be as
    exponential as the full one), or when a single SCC spans every
    transaction (the full search would repeat the identical work).
    """
    components = strongly_connected_components(sg)
    largest = max((len(c) for c in components), default=0)
    if largest <= 1 or largest > max_txns or largest >= len(txns):
        return None, 0
    groups = [sorted(members) for members in condensation_order(sg, components)]
    in_sg = set(sg.nodes)
    groups.extend([txn] for txn in txns if txn not in in_sg)
    return _search_orders(groups, blocks, recorded, target_tags)


def _search_orders(
    groups: List[List[TxnId]],
    blocks: Dict[TxnId, List[Operation]],
    recorded: Dict[TxnId, List[_Source]],
    target_tags: Dict[_ItemKey, _Source],
) -> Tuple[Optional[List[TxnId]], int]:
    """Depth-first search over the serial orders that place ``groups``
    one after another, each group in any internal order.

    A candidate block is replayed on a copy of its prefix's tags and the
    branch is pruned as soon as a read misreads; a complete order is a
    witness when its final tags match ``target_tags``.  Candidates are
    tried in the order each group lists them.  An explicit stack of
    frames stands in for recursion, so a history of any length is
    searched under the interpreter's default recursion limit.  Returns
    ``(witness_or_None, candidates_tried)``.
    """
    tried = 0
    prefix: List[TxnId] = []
    #: one frame per open level: [group index, candidates left, tags, cursor]
    frames: List[list] = [[0, groups[0], {}, 0]]
    while frames:
        frame = frames[-1]
        index, remaining, tags, cursor = frame
        if cursor == len(remaining):
            frames.pop()
            if frames:
                prefix.pop()
            continue
        frame[3] = cursor + 1
        txn = remaining[cursor]
        tried += 1
        branch = dict(tags)
        if _replay_block(branch, blocks[txn], recorded[txn]) is None:
            continue
        prefix.append(txn)
        rest = [other for other in remaining if other != txn]
        while not rest and index + 1 < len(groups):
            index += 1
            rest = groups[index]
        if rest:
            frames.append([index, rest, branch, 0])
        elif _tags_match(branch, target_tags):
            return list(prefix), tried
        else:
            prefix.pop()
    return None, tried


def _tags_match(
    tags: Dict[_ItemKey, _Source], target: Dict[_ItemKey, _Source]
) -> bool:
    keys = set(tags) | set(target)
    return all(tags.get(key) == target.get(key) for key in keys)
