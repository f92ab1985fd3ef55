"""Human-readable explanations of audit findings.

``audit`` tells you *that* a history is broken; this module explains
*why*, in the vocabulary of the paper:

* per-transaction **reads-from tables** (who supplied each first read);
* the **serialization constraints** a serial witness would have to
  satisfy, derived from reads-from and final writes;
* the **ordering cycle** those constraints form when no witness exists;
* rendered **view splits / decomposition changes** for global view
  distortion;
* the **commit-order evidence** (which sites ordered which commits).

The CLI surfaces this via ``python -m repro scenario H2 --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.ids import DataItemId, TxnId
from repro.history.committed import CommittedProjection
from repro.history.graphs import DiGraph, commit_order_graph, find_cycle
from repro.history.model import OpKind, Operation


@dataclass(frozen=True)
class ReadsFromEntry:
    """One first-read fact: ``reader`` read ``item`` from ``source``."""

    reader: TxnId
    site: str
    item: DataItemId
    source: Optional[TxnId]  # None = initial value (T0)
    incarnation: Optional[int]

    def render(self) -> str:
        source = self.source.label if self.source else "T0"
        inc = "" if self.incarnation is None else f" (incarnation {self.incarnation})"
        return (
            f"{self.reader.label}{inc} read {self.item.label}@{self.site} "
            f"from {source}"
        )


def reads_from_table(projection: CommittedProjection) -> List[ReadsFromEntry]:
    """First-read sources per (transaction, incarnation, site, item)."""
    entries: List[ReadsFromEntry] = []
    seen: Set[Tuple] = set()
    for op in projection.ops:
        if op.kind is not OpKind.READ or op.subtxn is None:
            continue
        incarnation = None if op.txn.is_local else op.subtxn.incarnation
        key = (op.txn, incarnation, op.site, op.item)
        if key in seen:
            continue
        seen.add(key)
        source = None if op.read_from is None else op.read_from.txn
        if source == op.txn:
            continue  # own write: not a cross-transaction fact
        entries.append(
            ReadsFromEntry(
                reader=op.txn,
                site=op.site,
                item=op.item,
                source=source,
                incarnation=incarnation,
            )
        )
    return entries


@dataclass(frozen=True)
class OrderingConstraint:
    """``before`` must precede ``after`` in any serial witness."""

    before: TxnId
    after: TxnId
    why: str

    def render(self) -> str:
        return f"{self.before.label} < {self.after.label}  ({self.why})"


def serialization_constraints(
    projection: CommittedProjection,
) -> List[OrderingConstraint]:
    """Ordering facts any view-equivalent serial history must satisfy.

    Derived conservatively from the recorded reads-from relation:

    * a read from ``S`` puts ``S`` before the reader;
    * a read of the *initial* value of an item puts the reader before
      every (other) committed writer of that item.
    """
    constraints: List[OrderingConstraint] = []
    #: item -> its committed writers, in first-write order (a dict, not
    #: a set, so the constraint list and its cycle do not depend on
    #: hash values, which vary from process to process)
    committed_writers: Dict[Tuple[str, DataItemId], Dict[TxnId, None]] = {}
    committed_subtxns = projection.ops and {
        op.subtxn
        for op in projection.ops
        if op.kind is OpKind.LOCAL_COMMIT and op.subtxn is not None
    } or set()
    for op in projection.ops:
        if op.kind is OpKind.WRITE and op.subtxn in committed_subtxns:
            committed_writers.setdefault((op.site, op.item), {})[op.txn] = None

    seen: Set[Tuple[TxnId, TxnId, str]] = set()

    def add(before: TxnId, after: TxnId, why: str) -> None:
        if before == after:
            return
        key = (before, after, why.split(":")[0])
        if key in seen:
            return
        seen.add(key)
        constraints.append(OrderingConstraint(before, after, why))

    for entry in reads_from_table(projection):
        if entry.source is not None:
            add(
                entry.source,
                entry.reader,
                f"reads-from: {entry.item.label}@{entry.site}",
            )
            # Reading S's version also means every other committed
            # writer of the item is not between S and the reader; the
            # useful conservative fact: the reader precedes none of
            # them necessarily — skip (kept simple and sound).
        else:
            for writer in committed_writers.get((entry.site, entry.item), ()):
                add(
                    entry.reader,
                    writer,
                    f"read initial {entry.item.label}@{entry.site} "
                    f"before {writer.label}'s write",
                )
    return constraints


@dataclass
class Explanation:
    """Everything :func:`explain` found, with a text rendering."""

    reads_from: List[ReadsFromEntry] = field(default_factory=list)
    constraints: List[OrderingConstraint] = field(default_factory=list)
    constraint_cycle: Optional[List[TxnId]] = None
    commit_order_cycle: Optional[List[TxnId]] = None
    view_splits: List[str] = field(default_factory=list)
    decomposition_changes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines: List[str] = []
        if self.view_splits or self.decomposition_changes:
            lines.append("GLOBAL VIEW DISTORTION")
            for text in self.view_splits:
                lines.append(f"  view split: {text}")
            for text in self.decomposition_changes:
                lines.append(f"  decomposition change: {text}")
            lines.append("")
        lines.append("reads-from facts:")
        for entry in self.reads_from:
            lines.append(f"  {entry.render()}")
        lines.append("")
        lines.append("serialization constraints:")
        for constraint in self.constraints:
            lines.append(f"  {constraint.render()}")
        if self.constraint_cycle:
            chain = " < ".join(t.label for t in self.constraint_cycle)
            lines.append("")
            lines.append(f"=> impossible: {chain}  (cyclic requirement)")
        if self.commit_order_cycle:
            chain = " -> ".join(t.label for t in self.commit_order_cycle)
            lines.append("")
            lines.append(f"commit-order graph cycle: {chain}")
        return "\n".join(lines)


def explain(projection: CommittedProjection) -> Explanation:
    """Build the full explanation for ``C(H)``."""
    from repro.history.distortion import find_distortions

    explanation = Explanation()
    explanation.reads_from = reads_from_table(projection)
    explanation.constraints = serialization_constraints(projection)

    graph = DiGraph()
    for constraint in explanation.constraints:
        graph.add_edge(constraint.before, constraint.after)
    explanation.constraint_cycle = find_cycle(graph)

    report = find_distortions(projection)
    explanation.view_splits = [str(s) for s in report.view_splits]
    explanation.decomposition_changes = [
        str(c) for c in report.decomposition_changes
    ]
    explanation.commit_order_cycle = find_cycle(
        commit_order_graph(projection.ops)
    )
    return explanation
