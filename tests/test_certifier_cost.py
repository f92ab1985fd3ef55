"""Certification cost, counted rather than timed.

The naive engine is the Appendix's linear scan: every prepare and
commit check visits the whole alive interval table.  The indexed engine
answers the same questions from lazy heaps in O(log n).  These tests
count the work each engine does per check, so they hold on any machine:

* one visit = one ``PreparedEntry.intersects`` call (the prepare rule's
  per-entry test) or one ``SerialNumber`` comparison (the extension's
  test, the commit rule's per-entry test, and every SN-heap sift step);
* the indexed prepare check's endpoint-heap peeks compare floats and are
  not counted, so there the index must never fall back to
  ``intersects``;
* the spies live here only, installed with ``monkeypatch``.
"""

import math
import random
from collections import Counter

import pytest

from repro.common.ids import SerialNumber, global_txn
from repro.core.certifier import Certifier, CertifierConfig, PreparedEntry
from repro.core.intervals import AliveInterval

TABLE_SIZES = (100, 10_000)
PROBES = 20
#: Visits allowed per indexed check, in units of log2(table size).
LOG_FACTOR = 6


@pytest.fixture
def visits(monkeypatch):
    counter = Counter()
    real_intersects = PreparedEntry.intersects

    def intersects(self, candidate):
        counter["visits"] += 1
        return real_intersects(self, candidate)

    monkeypatch.setattr(PreparedEntry, "intersects", intersects)
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        real = getattr(SerialNumber, name)

        def compare(self, other, _real=real):
            counter["visits"] += 1
            return _real(self, other)

        monkeypatch.setattr(SerialNumber, name, compare)
    return counter


def _table(engine, size):
    """``size`` prepared entries whose alive intervals all overlap, with
    SNs inserted in shuffled order; the committed-SN register is set so
    the prepare extension runs too."""
    certifier = Certifier("a", CertifierConfig(engine=engine))
    numbers = list(range(1, size + 1))
    random.Random(size).shuffle(numbers)
    for n in numbers:
        certifier.insert(
            global_txn(n), SerialNumber(float(n), "c1", 0), AliveInterval(0.0, 1e9)
        )
    certifier.restore_max_committed_sn(SerialNumber(0.5, "c1", 0))
    return certifier


def _prepare_visits(certifier, size, visits):
    """Most visits of one admitted prepare check over ``PROBES`` probes."""
    worst = 0
    for i in range(PROBES):
        visits.clear()
        decision = certifier.certify_prepare(
            global_txn(size + 1 + i),
            SerialNumber(float(size + 1 + i), "c1", 0),
            AliveInterval(1.0, 2.0),
        )
        assert decision.ok
        worst = max(worst, visits["visits"])
    return worst


def _commit_visits(certifier, visits):
    """Most visits of commit-certifying the smallest SN (the naive scan
    must see every other entry before it can say yes)."""
    worst = 0
    for _ in range(PROBES):
        visits.clear()
        assert certifier.certify_commit(global_txn(1)).ok
        worst = max(worst, visits["visits"])
    return worst


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_naive_checks_visit_the_whole_table(size, visits):
    certifier = _table("naive", size)
    assert _prepare_visits(certifier, size, visits) >= size
    assert _commit_visits(certifier, visits) >= size - 1


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_indexed_checks_stay_logarithmic(size, visits):
    certifier = _table("indexed", size)
    bound = LOG_FACTOR * math.log2(size)
    prepare = _prepare_visits(certifier, size, visits)
    commit = _commit_visits(certifier, visits)
    assert prepare <= bound, (prepare, bound)
    assert commit <= bound, (commit, bound)
