"""Unit tests for the Certifier decisions (repro.core.certifier)."""

import pytest

from repro.common.errors import RefusalReason, SimulationError
from repro.common.ids import SerialNumber, global_txn
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.intervals import AliveInterval

from tests.helpers import ablated_certifier


def sn(value, site="c1"):
    return SerialNumber(float(value), site, 0)


@pytest.fixture(params=["naive", "indexed"])
def engine(request):
    """Every decision test runs under both certification engines."""
    return request.param


@pytest.fixture
def certifier(engine):
    return Certifier("a", CertifierConfig(engine=engine))


class TestBasicPrepare:
    """The alive time intersection rule (Appendix B, basic part)."""

    def test_empty_table_always_passes(self, certifier):
        decision = certifier.certify_prepare(
            global_txn(1), sn(1), AliveInterval(0, 5)
        )
        assert decision.ok

    def test_intersecting_intervals_pass(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(5, 15)
        )
        assert decision.ok

    def test_disjoint_interval_refused(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(11, 20)
        )
        assert not decision.ok
        assert decision.reason is RefusalReason.ALIVE_INTERSECTION
        assert certifier.prepare_refusals_intersection == 1

    def test_must_intersect_every_entry(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(2), AliveInterval(8, 30))
        decision = certifier.certify_prepare(
            global_txn(3), sn(3), AliveInterval(12, 20)
        )
        assert not decision.ok  # misses T1's interval

    def test_disabled_basic_accepts_disjoint(self, engine):
        certifier = ablated_certifier("cert-blind", engine)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(11, 20)
        )
        assert decision.ok

    def test_duplicate_prepare_rejected(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        with pytest.raises(SimulationError):
            certifier.certify_prepare(global_txn(1), sn(1), AliveInterval(0, 5))


class TestPrepareExtension:
    """Refuse a PREPARE whose SN is below an already-committed one."""

    def commit_one(self, certifier, number, value):
        certifier.insert(global_txn(number), sn(value), AliveInterval(0, 10))
        certifier.record_local_commit(global_txn(number))
        certifier.remove(global_txn(number))

    def test_out_of_order_prepare_refused(self, certifier):
        self.commit_one(certifier, 8, 50)
        decision = certifier.certify_prepare(
            global_txn(7), sn(40), AliveInterval(0, 100)
        )
        assert not decision.ok
        assert decision.reason is RefusalReason.PREPARE_OUT_OF_ORDER
        assert certifier.prepare_refusals_extension == 1

    def test_in_order_prepare_passes(self, certifier):
        self.commit_one(certifier, 7, 40)
        decision = certifier.certify_prepare(
            global_txn(8), sn(50), AliveInterval(0, 100)
        )
        assert decision.ok

    def test_tracks_maximum_committed(self, certifier):
        self.commit_one(certifier, 1, 60)
        self.commit_one(certifier, 2, 30)  # smaller: must not lower the max
        decision = certifier.certify_prepare(
            global_txn(3), sn(45), AliveInterval(0, 100)
        )
        assert not decision.ok

    def test_disabled_extension_accepts_out_of_order(self, engine):
        certifier = ablated_certifier("2cm-noext", engine)
        certifier.insert(global_txn(8), sn(50), AliveInterval(0, 10))
        certifier.record_local_commit(global_txn(8))
        certifier.remove(global_txn(8))
        decision = certifier.certify_prepare(
            global_txn(7), sn(40), AliveInterval(0, 100)
        )
        assert decision.ok

    def test_no_sn_skips_extension(self, certifier):
        self.commit_one(certifier, 8, 50)
        decision = certifier.certify_prepare(
            global_txn(7), None, AliveInterval(0, 100)
        )
        assert decision.ok


class TestCommitCertification:
    """All other table entries must carry a bigger serial number."""

    def test_smallest_sn_commits(self, certifier):
        certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(0, 10))
        assert certifier.certify_commit(global_txn(1)).ok

    def test_bigger_sn_waits(self, certifier):
        certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(0, 10))
        decision = certifier.certify_commit(global_txn(2))
        assert not decision.ok
        assert certifier.commit_delays == 1

    def test_unblocked_after_removal(self, certifier):
        certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(0, 10))
        certifier.remove(global_txn(1))
        assert certifier.certify_commit(global_txn(2)).ok

    def test_disabled_commit_cert_always_passes(self, engine):
        certifier = ablated_certifier("2cm-nocommitcert", engine)
        certifier.insert(global_txn(1), sn(10), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(20), AliveInterval(0, 10))
        assert certifier.certify_commit(global_txn(2)).ok

    def test_unknown_txn_rejected(self, certifier):
        with pytest.raises(SimulationError):
            certifier.certify_commit(global_txn(9))


class TestPrepareOrderPolicy:
    """The rejected alternative: commit in prepared order."""

    def make(self, engine):
        return ablated_certifier("2cm-prepare-order", engine)

    def test_earlier_prepared_commits_first(self, engine):
        certifier = self.make(engine)
        certifier.insert(global_txn(1), None, AliveInterval(0, 10))
        certifier.insert(global_txn(2), None, AliveInterval(0, 10))
        assert certifier.certify_commit(global_txn(1)).ok
        assert not certifier.certify_commit(global_txn(2)).ok

    def test_order_independent_of_sn(self, engine):
        certifier = self.make(engine)
        certifier.insert(global_txn(1), sn(99), AliveInterval(0, 10))
        certifier.insert(global_txn(2), sn(1), AliveInterval(0, 10))
        # T1 prepared first: it goes first despite the bigger SN.
        assert certifier.certify_commit(global_txn(1)).ok
        assert not certifier.certify_commit(global_txn(2)).ok


class TestIntervalMaintenance:
    def test_extend_interval(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.extend_interval(global_txn(1), 50.0)
        assert certifier.interval_of(global_txn(1)) == AliveInterval(0, 50)

    def test_restart_interval(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.restart_interval(global_txn(1), 99.0)
        assert certifier.interval_of(global_txn(1)) == AliveInterval.instant(99.0)

    def test_remove_is_idempotent(self, certifier):
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.remove(global_txn(1))
        certifier.remove(global_txn(1))
        assert not certifier.contains(global_txn(1))

    def test_introspection(self, certifier):
        certifier.insert(global_txn(2), sn(2), AliveInterval(0, 10))
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        assert certifier.prepared_txns() == [global_txn(1), global_txn(2)]
        assert certifier.sn_of(global_txn(1)) == sn(1)
        assert certifier.table_size() == 2

    def test_record_commit_of_removed_entry_is_noop(self, certifier):
        certifier.record_local_commit(global_txn(5))
        assert certifier.max_committed_sn is None


class TestMultipleIntervals:
    """The paper's optional optimization: remember several alive
    intervals per prepared subtransaction (E14's ablation)."""

    def make(self, depth, engine):
        return ablated_certifier("memory", engine, depth=depth)

    def test_single_interval_forgets_history(self, engine):
        certifier = self.make(1, engine)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 50))
        certifier.restart_interval(global_txn(1), 80.0)
        # Candidate overlapping only the OLD incarnation's aliveness:
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(20, 45)
        )
        assert not decision.ok  # unnecessary refusal

    def test_archived_interval_avoids_unnecessary_refusal(self, engine):
        certifier = self.make(3, engine)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 50))
        certifier.restart_interval(global_txn(1), 80.0)
        decision = certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(20, 45)
        )
        assert decision.ok  # the archive remembers [0, 50]

    def test_archive_bounded(self, engine):
        certifier = self.make(2, engine)  # 1 archived + 1 current
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.restart_interval(global_txn(1), 20.0)
        certifier.restart_interval(global_txn(1), 40.0)
        # The oldest interval [0, 10] was evicted; [20, 20] is archived.
        assert not certifier.certify_prepare(
            global_txn(2), sn(2), AliveInterval(5, 15)
        ).ok
        assert certifier.certify_prepare(
            global_txn(3), sn(3), AliveInterval(15, 25)
        ).ok

    def test_current_interval_still_extended(self, engine):
        certifier = self.make(3, engine)
        certifier.insert(global_txn(1), sn(1), AliveInterval(0, 10))
        certifier.restart_interval(global_txn(1), 30.0)
        certifier.extend_interval(global_txn(1), 45.0)
        assert certifier.interval_of(global_txn(1)) == AliveInterval(30, 45)
