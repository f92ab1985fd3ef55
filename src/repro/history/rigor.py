"""Rigorousness checking of local histories (the SRS assumption).

A local history is *rigorous* (Breitbart et al. 1991, cited by the
paper) when it is serializable, strict, and additionally no data object
is written until every transaction that previously read it commits or
aborts.  Operationally, over the elementary operations of one site:

    for every pair of conflicting operations ``o1 <_H o2`` belonging to
    different (sub)transactions, the termination (local commit or
    abort) of ``o1``'s (sub)transaction lies between ``o1`` and ``o2``.

That single condition covers all three conflict shapes (W–W, W–R
strictness and the extra R–W condition of rigorousness).  The certifier
relies on it through the paper's Conflict Detection Basis — two
subtransactions alive at the same time cannot conflict — so the checker
doubles as the guard validating the substrate in every experiment, and
as the witness that the non-rigorous ablation really does break the
assumption.

The check is incarnation-granular: the original and each resubmitted
local subtransaction count as independent transactions at the LTM, as
the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.ids import SubtxnId
from repro.history.model import History, OpKind, Operation


@dataclass(frozen=True)
class RigorViolation:
    """One witnessed violation: conflicting pair without termination."""

    first: Operation
    second: Operation

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{self.first.label} conflicts with later {self.second.label} but "
            f"{self.first.subtxn} had not terminated in between"
        )


def check_rigorous(
    ops: Sequence[Operation], site: Optional[str] = None
) -> List[RigorViolation]:
    """Return all rigorousness violations in ``ops`` (empty = rigorous).

    ``ops`` is usually a full recorded history; pass ``site`` to check a
    single local history ``H(i)``, or leave it ``None`` to check every
    site's projection at once.
    """
    violations: List[RigorViolation] = []
    #: Per item: operations seen so far by incarnations not yet terminated
    #: (pruned as it is scanned, so the list stays as short as the set of
    #: incarnations concurrently open on the item).
    open_ops: Dict[Tuple[str, object], List[Operation]] = {}
    terminated: Set[SubtxnId] = set()

    for op in ops:
        if site is not None and op.site != site:
            continue
        if op.kind in (OpKind.LOCAL_COMMIT, OpKind.LOCAL_ABORT):
            if op.subtxn is not None:
                terminated.add(op.subtxn)
            continue
        if op.kind not in (OpKind.READ, OpKind.WRITE):
            continue
        key = (op.site, op.item)
        still_open = []
        for earlier in open_ops.get(key, ()):
            if earlier.subtxn in terminated:
                continue
            still_open.append(earlier)
            if earlier.subtxn == op.subtxn:
                continue
            if earlier.kind is OpKind.WRITE or op.kind is OpKind.WRITE:
                violations.append(RigorViolation(first=earlier, second=op))
        still_open.append(op)
        open_ops[key] = still_open
    return violations


def is_rigorous(history: History, site: Optional[str] = None) -> bool:
    """Convenience wrapper over :func:`check_rigorous`."""
    return not check_rigorous(history.ops, site=site)
