"""Property-based differential test: naive vs indexed certifier.

Drives random streams of prepare / extend / restart / commit / remove
operations through a naive linear-scan certifier and an indexed one
— both implementing the paper's rule — asserting after every
operation that both engines produce the *identical* certification
decision — same ``ok``, same :class:`RefusalReason` — and that the
decision counters and table membership never diverge.

The ``detail`` witness string is deliberately *not* compared: the
naive scan reports the first conflicting entry in insertion order
while the index reports an extremal witness.  Both are valid
witnesses for the same refusal; the paper's certification rules only
constrain the verdict.

Interleaved ``collect_garbage`` calls on the indexed side prove that
epoch compaction can never change an answer (it drops only records
the lazy heaps had already invalidated).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.common.ids import SerialNumber, global_txn
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.intervals import AliveInterval

# ----------------------------------------------------------------------
# Operation-stream strategy
# ----------------------------------------------------------------------

# Small discrete time domain so that intervals collide, touch and nest
# often; floats drawn from here are exact, so ordering is deterministic.
_times = st.integers(min_value=0, max_value=24).map(float)

_maybe_sn = st.one_of(
    st.none(),
    st.builds(
        SerialNumber,
        clock=st.integers(min_value=0, max_value=9).map(float),
        site=st.just("c1"),
        seq=st.integers(min_value=0, max_value=5),
    ),
)


def _op():
    return st.one_of(
        st.tuples(
            st.just("prepare"),
            st.integers(min_value=0, max_value=11),
            _times,
            _times,
            _maybe_sn,
        ),
        st.tuples(st.just("extend"), st.integers(0, 11), _times),
        st.tuples(st.just("restart"), st.integers(0, 11), _times),
        st.tuples(st.just("commit"), st.integers(0, 11)),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(st.just("gc")),
    )


_streams = st.lists(_op(), min_size=1, max_size=60)


def _pair():
    naive = Certifier("s", CertifierConfig(engine="naive"))
    indexed = Certifier(
        "s",
        CertifierConfig(
            engine="indexed",
            # Tiny thresholds so compaction actually fires inside the
            # short streams Hypothesis generates.
            gc_min_entries=4,
            gc_stale_factor=1.5,
        ),
    )
    return naive, indexed


def _assert_same_decision(op, left, right):
    assert (left.ok, left.reason) == (right.ok, right.reason), (
        f"engines diverged on {op}: naive={left} indexed={right}"
    )


def _assert_same_counters(naive, indexed):
    for counter in (
        "prepare_checks",
        "prepare_refusals_extension",
        "prepare_refusals_intersection",
        "commit_checks",
        "commit_delays",
    ):
        assert getattr(naive, counter) == getattr(indexed, counter), counter
    assert sorted(naive.prepared_txns()) == sorted(indexed.prepared_txns())
    assert naive.max_committed_sn == indexed.max_committed_sn


def _run_stream(ops):
    naive, indexed = _pair()
    for op in ops:
        kind = op[0]
        if kind == "prepare":
            _, n, a, b, sn = op
            txn = global_txn(n)
            if naive.contains(txn):
                continue
            candidate = AliveInterval(min(a, b), max(a, b))
            left = naive.certify_prepare(txn, sn, candidate)
            right = indexed.certify_prepare(txn, sn, candidate)
            _assert_same_decision(op, left, right)
            if left.ok:
                naive.insert(txn, sn, candidate)
                indexed.insert(txn, sn, candidate)
        elif kind == "extend":
            _, n, now = op
            txn = global_txn(n)
            if not naive.contains(txn):
                continue
            naive.extend_interval(txn, now)
            indexed.extend_interval(txn, now)
        elif kind == "restart":
            _, n, now = op
            txn = global_txn(n)
            if not naive.contains(txn):
                continue
            naive.restart_interval(txn, now)
            indexed.restart_interval(txn, now)
        elif kind == "commit":
            _, n = op
            txn = global_txn(n)
            if not naive.contains(txn):
                continue
            left = naive.certify_commit(txn)
            right = indexed.certify_commit(txn)
            _assert_same_decision(op, left, right)
            if left.ok:
                naive.record_local_commit(txn)
                indexed.record_local_commit(txn)
                naive.remove(txn)
                indexed.remove(txn)
        elif kind == "remove":
            _, n = op
            txn = global_txn(n)
            if not naive.contains(txn):
                continue
            naive.remove(txn)
            indexed.remove(txn)
        elif kind == "gc":
            # Only the indexed engine has anything to compact; the
            # point is that forcing it mid-stream never changes any
            # subsequent answer relative to the naive oracle.
            indexed.collect_garbage()
        _assert_same_counters(naive, indexed)
    return naive, indexed


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(ops=_streams)
def test_engines_agree_on_random_streams(ops):
    """Every decision and counter is identical, op for op."""
    _run_stream(ops)


@settings(max_examples=60, deadline=None)
@given(
    ops=_streams,
    probe_start=_times,
    probe_len=st.integers(min_value=0, max_value=10),
)
def test_final_tables_answer_probes_identically(ops, probe_start, probe_len):
    """After an arbitrary stream, fresh probe certifications agree."""
    naive, indexed = _run_stream(ops)
    probe = global_txn(999)
    candidate = AliveInterval(probe_start, probe_start + probe_len)
    left = naive.certify_prepare(probe, None, candidate)
    right = indexed.certify_prepare(probe, None, candidate)
    _assert_same_decision(("probe", candidate), left, right)


@settings(max_examples=60, deadline=None)
@given(
    ops=_streams,
    members=st.lists(
        st.tuples(
            st.integers(min_value=20, max_value=27), _times, _times, _maybe_sn
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda m: m[0],
    ),
)
def test_batched_prepares_match_sequential_naive(ops, members):
    """A PrepareBatch on the indexed engine equals the naive sequence.

    The batch snapshots the index bounds once and folds admitted
    members into running bounds; the naive oracle certifies the same
    members one by one.  Decisions must match member for member.
    """
    naive, indexed = _run_stream(ops)
    batch = indexed.begin_prepare_batch()
    for n, a, b, sn in members:
        txn = global_txn(n)
        candidate = AliveInterval(min(a, b), max(a, b))
        left = naive.certify_prepare(txn, sn, candidate)
        right = batch.certify(txn, sn, candidate)
        _assert_same_decision(("batch-member", n), left, right)
        if left.ok:
            naive.insert(txn, sn, candidate)
            batch.admit(txn, sn, candidate)
    _assert_same_counters(naive, indexed)


@settings(max_examples=30, deadline=None)
@given(ops=_streams)
def test_duplicate_prepare_raises_on_both(ops):
    """Both engines reject re-preparing a live transaction."""
    naive, indexed = _run_stream(ops)
    live = naive.prepared_txns()
    if not live:
        return
    txn = sorted(live)[0]
    candidate = AliveInterval(0.0, 1.0)
    for certifier in (naive, indexed):
        with pytest.raises(SimulationError):
            certifier.certify_prepare(txn, None, candidate)
