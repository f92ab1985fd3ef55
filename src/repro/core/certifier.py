"""The 2PCA Certifier (the paper's Appendix, algorithms B and C).

The Certifier is the per-site decision core of the method.  It keeps:

* the **alive interval table** — one entry per global subtransaction in
  the prepared state at this site, holding its latest alive interval
  and its serial number;
* the **largest serial number of a locally committed subtransaction** —
  the state behind the prepare-certification *extension* (Sec. 5.3).

Every check is a pure decision; the surrounding 2PC Agent performs the
aborts, messages and timer manipulation the Appendix pseudo-code
interleaves with them.  This module implements the paper's rule and
nothing else: the ablations that switch a piece of it off (no
extension, no commit certification, prepare-order commits, ...) are
subclasses overriding one check, registered in :mod:`repro.ablations`.

Two certification **engines** implement the same decisions:

* ``naive`` — the literal Appendix linear scan, O(table) per check.
  It is the differential-testing oracle and the default.
* ``indexed`` — sorted-endpoint + SN indexes (lazy heaps) answering
  the same queries in O(log n) amortized, with epoch-based GC keeping
  the index bounded under sustained load.  Decision-for-decision
  equivalent to ``naive`` (same ``ok``, same ``reason``, same
  counters); only the *witness* named in ``CertDecision.detail`` may
  differ, because a refusal can have several witnesses and the index
  surfaces an extremal one while the scan surfaces the first in
  insertion order.

Why an endpoint index suffices for the intersection rule: a candidate
``[s, e]`` misses an entry's interval iff

* the entry's **end** is ``< s`` (the entry died before the candidate
  was born), or
* the entry's **start** is ``> e`` (the entry was born after the
  candidate died).

Both are answered by one peek at a min-end heap and a max-start heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, RefusalReason, SimulationError
from repro.common.ids import SerialNumber, TxnId
from repro.core.intervals import AliveInterval

#: Valid values of :attr:`CertifierConfig.engine`.
CERTIFIER_ENGINES = ("naive", "indexed")


@dataclass(frozen=True)
class CertifierConfig:
    """Engine and housekeeping knobs of one site's certifier."""

    #: Certification engine: ``naive`` (the Appendix linear scan, the
    #: differential oracle) or ``indexed`` (lazy endpoint/SN heaps).
    engine: str = "naive"
    #: Indexed engine only: an epoch GC sweep compacts a lazy heap once
    #: it holds more than ``max(gc_min_entries, gc_stale_factor * live)``
    #: records, bounding index memory under sustained load.
    gc_min_entries: int = 64
    gc_stale_factor: float = 4.0


@dataclass
class PreparedEntry:
    """One row of the alive interval table: the subtransaction's latest
    alive interval and its serial number."""

    txn: TxnId
    sn: Optional[SerialNumber]
    interval: AliveInterval

    def intersects(self, candidate: AliveInterval) -> bool:
        """Conflict-freeness holds if the candidate shares an instant
        with the entry's alive interval."""
        return candidate.intersects(self.interval)


@dataclass(frozen=True)
class CertDecision:
    """Outcome of one certification check."""

    ok: bool
    reason: Optional[RefusalReason] = None
    detail: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


#: The one approving decision (decisions are immutable).
APPROVE = CertDecision(ok=True)


class _CertIndex:
    """Lazy endpoint/SN indexes over the alive interval table.

    Three heaps keyed on values derived from the *current* table entry:

    * ``_ends``   — min-heap of ``(interval end, txn)``;
    * ``_starts`` — max-heap of ``(-interval start, txn)``;
    * ``_sns``    — min-heap of ``(sn, txn)`` for SN-bearing entries.

    Mutations never delete from the heaps; they push the entry's new
    key.  A heap record is *valid* iff its transaction is still in the
    table and its key equals the value re-derived from the live entry.
    Queries pop invalid records off the top; because every live entry's
    current key is always present, the first valid top is the true
    extremum — a stale record can only hide behind it, never shadow it.
    This holds even when keys move backwards (interval restarts), which
    matters because certification times are not assumed monotonic.

    Epoch GC (:meth:`compact`) rebuilds the heaps from the live table
    once stale records dominate.  It discards exactly the records the
    validity check would have skipped, so it cannot change any answer.
    """

    __slots__ = (
        "_ends",
        "_starts",
        "_sns",
        "_gc_min",
        "_gc_factor",
        "compactions",
        "reclaimed",
    )

    def __init__(self, gc_min_entries: int, gc_stale_factor: float) -> None:
        self._ends: List[Tuple[float, TxnId]] = []
        self._starts: List[Tuple[float, TxnId]] = []
        self._sns: List[Tuple[SerialNumber, TxnId]] = []
        self._gc_min = gc_min_entries
        self._gc_factor = gc_stale_factor
        self.compactions = 0
        self.reclaimed = 0

    # -- maintenance ---------------------------------------------------

    def on_insert(self, entry: PreparedEntry) -> None:
        self.on_interval_change(entry)
        if entry.sn is not None:
            heapq.heappush(self._sns, (entry.sn, entry.txn))

    def on_interval_change(self, entry: PreparedEntry) -> None:
        heapq.heappush(self._ends, (entry.interval.end, entry.txn))
        heapq.heappush(self._starts, (-entry.interval.start, entry.txn))

    def depth(self) -> int:
        return len(self._ends) + len(self._starts) + len(self._sns)

    def maybe_compact(self, table: Dict[TxnId, PreparedEntry]) -> None:
        limit = max(self._gc_min, int(self._gc_factor * max(1, len(table))))
        if (
            len(self._ends) > limit
            or len(self._starts) > limit
            or len(self._sns) > limit
        ):
            self.compact(table)

    def compact(self, table: Dict[TxnId, PreparedEntry]) -> None:
        """Epoch GC: rebuild every heap from the live table."""
        before = self.depth()
        entries = list(table.values())
        self._ends = [(e.interval.end, e.txn) for e in entries]
        self._starts = [(-e.interval.start, e.txn) for e in entries]
        self._sns = [(e.sn, e.txn) for e in entries if e.sn is not None]
        heapq.heapify(self._ends)
        heapq.heapify(self._starts)
        heapq.heapify(self._sns)
        self.compactions += 1
        self.reclaimed += before - self.depth()

    # -- queries -------------------------------------------------------

    def min_end_entry(
        self, table: Dict[TxnId, PreparedEntry]
    ) -> Optional[PreparedEntry]:
        """The live entry with the earliest interval end."""
        heap = self._ends
        while heap:
            end, txn = heap[0]
            entry = table.get(txn)
            if entry is not None and entry.interval.end == end:
                return entry
            heapq.heappop(heap)
        return None

    def max_start_entry(
        self, table: Dict[TxnId, PreparedEntry]
    ) -> Optional[PreparedEntry]:
        """The live entry with the latest interval start."""
        heap = self._starts
        while heap:
            neg_start, txn = heap[0]
            entry = table.get(txn)
            if entry is not None and entry.interval.start == -neg_start:
                return entry
            heapq.heappop(heap)
        return None

    def miss_witness(
        self, table: Dict[TxnId, PreparedEntry], candidate: AliveInterval
    ) -> Optional[PreparedEntry]:
        """A live entry whose interval misses ``candidate``, or None if
        the candidate intersects every entry."""
        entry = self.min_end_entry(table)
        if entry is not None and entry.interval.end < candidate.start:
            return entry
        entry = self.max_start_entry(table)
        if entry is not None and entry.interval.start > candidate.end:
            return entry
        return None

    def min_sn_other(
        self, table: Dict[TxnId, PreparedEntry], pivot: TxnId
    ) -> Optional[PreparedEntry]:
        """The live entry with the smallest SN whose transaction is not
        ``pivot``."""
        heap = self._sns
        pivot_record = None
        result = None
        while heap:
            sn, txn = heap[0]
            entry = table.get(txn)
            if entry is None or entry.sn != sn:
                heapq.heappop(heap)
                continue
            if txn == pivot:
                pivot_record = heapq.heappop(heap)
                continue
            result = entry
            break
        if pivot_record is not None:
            heapq.heappush(heap, pivot_record)
        return result


class Certifier:
    """Per-site certification state and decisions."""

    def __init__(self, site: str, config: Optional[CertifierConfig] = None) -> None:
        self.site = site
        self.config = config or CertifierConfig()
        if self.config.engine not in CERTIFIER_ENGINES:
            raise ConfigError(
                f"unknown certifier engine {self.config.engine!r}; "
                f"expected one of {CERTIFIER_ENGINES}"
            )
        self._table: Dict[TxnId, PreparedEntry] = {}
        self._index: Optional[_CertIndex] = (
            _CertIndex(self.config.gc_min_entries, self.config.gc_stale_factor)
            if self.config.engine == "indexed"
            else None
        )
        self._max_committed_sn: Optional[SerialNumber] = None
        # Decision statistics for the benchmarks.
        self.prepare_checks = 0
        self.prepare_refusals_extension = 0
        self.prepare_refusals_intersection = 0
        self.commit_checks = 0
        self.commit_delays = 0

    def fresh(self) -> "Certifier":
        """An empty certifier of the same kind.  The table is volatile
        state, so a restarted agent starts over from one of these."""
        return type(self)(self.site, self.config)

    # ------------------------------------------------------------------
    # Prepare certification (Appendix B)
    # ------------------------------------------------------------------

    def certify_prepare(
        self,
        txn: TxnId,
        sn: Optional[SerialNumber],
        candidate: AliveInterval,
    ) -> CertDecision:
        """Extended + basic prepare certification for ``txn``.

        ``candidate`` is the transaction's own alive interval — "the
        time between the last performed operation and the time of the
        checking moment itself".  The caller performs the subsequent
        alive check and the table insertion (via :meth:`insert`).
        """
        self.prepare_checks += 1
        if txn in self._table:
            raise SimulationError(f"{txn} is already in the prepared state at {self.site}")
        refusal = self._check_extension(sn)
        if refusal is not None:
            return refusal
        return self._check_basic(txn, candidate)

    def _check_extension(self, sn: Optional[SerialNumber]) -> Optional[CertDecision]:
        """The extension: refuse a PREPARE below a committed SN."""
        if sn is not None:
            if self._max_committed_sn is not None and sn < self._max_committed_sn:
                self.prepare_refusals_extension += 1
                return CertDecision(
                    ok=False,
                    reason=RefusalReason.PREPARE_OUT_OF_ORDER,
                    detail=(
                        f"{sn} is older than already-committed "
                        f"{self._max_committed_sn}"
                    ),
                )
        return None

    def _check_basic(self, txn: TxnId, candidate: AliveInterval) -> CertDecision:
        """The alive time intersection rule over the whole table."""
        if self._index is not None:
            witness = self._index.miss_witness(self._table, candidate)
            if witness is not None:
                return self._refuse_intersection(witness, candidate)
            return APPROVE
        for entry in self._table.values():
            if not entry.intersects(candidate):
                return self._refuse_intersection(entry, candidate)
        return APPROVE

    def _refuse_intersection(
        self, entry: PreparedEntry, candidate: AliveInterval
    ) -> CertDecision:
        self.prepare_refusals_intersection += 1
        return CertDecision(
            ok=False,
            reason=RefusalReason.ALIVE_INTERSECTION,
            detail=(
                f"candidate {candidate} does not intersect any "
                f"known alive interval of {entry.txn.label} "
                f"(latest {entry.interval})"
            ),
        )

    def insert(
        self,
        txn: TxnId,
        sn: Optional[SerialNumber],
        interval: AliveInterval,
    ) -> PreparedEntry:
        """Insert ``txn`` into the alive interval table (move to prepared)."""
        if txn in self._table:
            raise SimulationError(f"{txn} already in alive interval table")
        entry = PreparedEntry(txn=txn, sn=sn, interval=interval)
        self._table[txn] = entry
        if self._index is not None:
            self._index.on_insert(entry)
            self._index.maybe_compact(self._table)
        return entry

    def begin_prepare_batch(self) -> "PrepareBatch":
        """Start certifying a group of PREPAREs with one index pass.

        See :class:`PrepareBatch`.  Under the naive engine (or a
        certifier that overrides the basic check) the batch
        transparently degrades to per-call :meth:`certify_prepare`, so
        it is always safe to use.
        """
        return PrepareBatch(self)

    # ------------------------------------------------------------------
    # Alive interval maintenance (Appendix A)
    # ------------------------------------------------------------------

    def extend_interval(self, txn: TxnId, now: float) -> None:
        """A successful alive check: move the interval's end to ``now``."""
        entry = self._entry(txn)
        entry.interval = entry.interval.extended_to(now)
        if self._index is not None:
            self._index.on_interval_change(entry)
            self._index.maybe_compact(self._table)

    def restart_interval(self, txn: TxnId, now: float) -> None:
        """Resubmission complete: "a new interval is always initiated
        after the resubmission of all the commands is complete"."""
        entry = self._entry(txn)
        entry.interval = AliveInterval.instant(now)
        if self._index is not None:
            self._index.on_interval_change(entry)
            self._index.maybe_compact(self._table)

    # ------------------------------------------------------------------
    # Commit certification (Appendix C)
    # ------------------------------------------------------------------

    def certify_commit(self, txn: TxnId) -> CertDecision:
        """May ``txn`` commit locally now?  Every *other* subtransaction
        in the alive interval table must have a bigger serial number."""
        self.commit_checks += 1
        return self._check_commit(self._entry(txn))

    def _check_commit(self, entry: PreparedEntry) -> CertDecision:
        """The SN order rule: no other entry holds a smaller SN."""
        if entry.sn is None:
            return APPROVE
        if self._index is not None:
            other = self._index.min_sn_other(self._table, entry.txn)
            if other is not None and other.sn < entry.sn:
                return self._delay_commit(other, entry)
            return APPROVE
        for other in self._table.values():
            if other is not entry and other.sn is not None and other.sn < entry.sn:
                return self._delay_commit(other, entry)
        return APPROVE

    def _delay_commit(self, other: PreparedEntry, entry: PreparedEntry) -> CertDecision:
        self.commit_delays += 1
        return CertDecision(
            ok=False,
            detail=f"{other.txn.label} holds smaller {other.sn} < {entry.sn}",
        )

    def restore_max_committed_sn(self, sn: Optional[SerialNumber]) -> None:
        """Reload the extension's durable register (agent recovery)."""
        if sn is None:
            return
        if self._max_committed_sn is None or sn > self._max_committed_sn:
            self._max_committed_sn = sn

    def record_local_commit(self, txn: TxnId) -> None:
        """Track the biggest committed SN (state of the extension)."""
        entry = self._table.get(txn)
        if entry is not None:
            self.restore_max_committed_sn(entry.sn)

    def remove(self, txn: TxnId) -> None:
        """Drop ``txn`` from the table (local commit done or rollback)."""
        entry = self._table.pop(txn, None)
        if entry is None:
            return
        if self._index is not None:
            self._index.maybe_compact(self._table)

    # ------------------------------------------------------------------
    # Index introspection / garbage collection
    # ------------------------------------------------------------------

    def collect_garbage(self) -> int:
        """Force an epoch GC sweep; returns reclaimed index records.

        A no-op (returns 0) under the naive engine, which keeps no
        index.  Safe at any point: compaction only drops records the
        lazy validity check would have skipped anyway.
        """
        if self._index is None:
            return 0
        before = self._index.reclaimed
        self._index.compact(self._table)
        return self._index.reclaimed - before

    def index_depth(self) -> int:
        """Total records currently held across the lazy heaps (0 = naive)."""
        return self._index.depth() if self._index is not None else 0

    @property
    def gc_compactions(self) -> int:
        return self._index.compactions if self._index is not None else 0

    @property
    def gc_reclaimed(self) -> int:
        return self._index.reclaimed if self._index is not None else 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _entry(self, txn: TxnId) -> PreparedEntry:
        entry = self._table.get(txn)
        if entry is None:
            raise SimulationError(f"{txn} not in alive interval table at {self.site}")
        return entry

    def prepared_txns(self) -> List[TxnId]:
        return sorted(self._table)

    def interval_of(self, txn: TxnId) -> AliveInterval:
        return self._entry(txn).interval

    def sn_of(self, txn: TxnId) -> Optional[SerialNumber]:
        return self._entry(txn).sn

    @property
    def max_committed_sn(self) -> Optional[SerialNumber]:
        return self._max_committed_sn

    def contains(self, txn: TxnId) -> bool:
        return txn in self._table

    def table_size(self) -> int:
        return len(self._table)


class PrepareBatch:
    """Certify a group of commuting PREPAREs with one index pass.

    The batch snapshots the table's extremal entries (min end, max
    start) once, then answers each member's basic check in O(1) against
    the snapshot plus the *running bounds* of members already admitted:
    a candidate intersects every admitted entry iff its start is ≤ the
    minimum admitted end and its end is ≥ the maximum admitted start.
    Admitting a member (:meth:`admit`) inserts it into the table and
    folds its endpoints into the running bounds, so later members are
    checked against it without touching the index again.

    Decision-equivalent to calling :meth:`Certifier.certify_prepare`
    then :meth:`Certifier.insert` sequentially for each member (same
    ``ok``/``reason``/counters; the refusal witness may differ).  The
    snapshot answers only the paper's basic check, so under the naive
    engine — or a certifier subclass that overrides
    :meth:`Certifier._check_basic` — every call degrades to the
    sequential path.
    """

    def __init__(self, certifier: Certifier) -> None:
        self._certifier = certifier
        self._snapshot = False
        self._min_end: Optional[Tuple[float, PreparedEntry]] = None
        self._max_start: Optional[Tuple[float, PreparedEntry]] = None
        index = certifier._index
        if (
            index is not None
            and type(certifier)._check_basic is Certifier._check_basic
        ):
            self._snapshot = True
            low = index.min_end_entry(certifier._table)
            if low is not None:
                self._min_end = (low.interval.end, low)
            high = index.max_start_entry(certifier._table)
            if high is not None:
                self._max_start = (high.interval.start, high)

    def certify(
        self,
        txn: TxnId,
        sn: Optional[SerialNumber],
        candidate: AliveInterval,
    ) -> CertDecision:
        certifier = self._certifier
        if not self._snapshot:
            return certifier.certify_prepare(txn, sn, candidate)
        certifier.prepare_checks += 1
        if txn in certifier._table:
            raise SimulationError(
                f"{txn} is already in the prepared state at {certifier.site}"
            )
        refusal = certifier._check_extension(sn)
        if refusal is not None:
            return refusal
        if self._min_end is not None and self._min_end[0] < candidate.start:
            return certifier._refuse_intersection(self._min_end[1], candidate)
        if self._max_start is not None and self._max_start[0] > candidate.end:
            return certifier._refuse_intersection(self._max_start[1], candidate)
        return APPROVE

    def admit(
        self,
        txn: TxnId,
        sn: Optional[SerialNumber],
        interval: AliveInterval,
    ) -> PreparedEntry:
        """Insert an accepted member and fold it into the running bounds."""
        entry = self._certifier.insert(txn, sn, interval)
        if self._snapshot:
            if self._min_end is None or interval.end < self._min_end[0]:
                self._min_end = (interval.end, entry)
            if self._max_start is None or interval.start > self._max_start[0]:
                self._max_start = (interval.start, entry)
        return entry
