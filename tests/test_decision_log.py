"""DurableDecisionLog: the coordinator's presumed-nothing decision WAL,
and the restart-safe SN clock it floors."""

import asyncio
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import SerialNumber, global_txn
from repro.core.assembly import coordinator_clock
from repro.core.serial import RealTimeClockSN
from repro.durability import Decision, DurabilityConfig, DurableDecisionLog
from repro.durability.decision_log import coordinator_wal_directory
from repro.durability.records import RecordKind, WalRecord
from repro.durability.segments import segment_name, write_segment
from repro.rt.node import CoordinatorNode
from repro.rt.tuning import RtTuning


def config(tmp_path, **kwargs):
    kwargs.setdefault("sync", "simulated")
    return DurabilityConfig(root=str(tmp_path), **kwargs)


def decision(i, committed=True, sites=("a", "b")):
    sn = SerialNumber(float(i), "c1") if committed else None
    return Decision(
        txn=global_txn(i), committed=committed, sn=sn, sites=tuple(sites)
    )


def reopen(log, tmp_path, **kwargs):
    log.close()
    return DurableDecisionLog.open_name(log.name, config(tmp_path, **kwargs))


class TestDecisionReplay:
    def test_in_doubt_decision_survives_reopen(self, tmp_path):
        log = DurableDecisionLog.open_name("c1", config(tmp_path))
        log.log_decision(decision(1))
        log = reopen(log, tmp_path)
        assert [d.txn for d in log.in_doubt()] == [global_txn(1)]
        got = log.decision(global_txn(1))
        assert got.committed and got.sites == ("a", "b")
        assert got.sn == SerialNumber(1.0, "c1")
        log.close()

    def test_end_clears_in_doubt(self, tmp_path):
        log = DurableDecisionLog.open_name("c1", config(tmp_path))
        log.log_decision(decision(1))
        log.log_decision(decision(2, committed=False))
        log.log_end(global_txn(1))
        log = reopen(log, tmp_path)
        assert [d.txn for d in log.in_doubt()] == [global_txn(2)]
        # The ended decision is still queryable until compacted away.
        log.close()

    def test_abort_decision_roundtrip(self, tmp_path):
        log = DurableDecisionLog.open_name("c1", config(tmp_path))
        log.log_decision(decision(3, committed=False, sites=("b",)))
        log = reopen(log, tmp_path)
        got = log.decision(global_txn(3))
        assert got is not None and not got.committed and got.sn is None
        log.close()

    def test_decisions_are_forced(self, tmp_path):
        log = DurableDecisionLog.open_name("c1", config(tmp_path))
        log.log_decision(decision(1))
        assert log.force_writes == 1
        assert log.wal.forced_appends >= 1
        log.close()

    def test_end_churn_compacts_to_in_doubt_only(self, tmp_path):
        log = DurableDecisionLog.open_name(
            "c1", config(tmp_path, compact_min_discards=4)
        )
        survivor = decision(100)
        log.log_decision(survivor)
        for i in range(1, 20):
            log.log_decision(decision(i))
            log.log_end(global_txn(i))
        assert log.wal.checkpoints >= 1
        log = reopen(log, tmp_path)
        assert [d.txn for d in log.in_doubt()] == [global_txn(100)]
        # Ended decisions were compacted out entirely.
        assert log.decision(global_txn(1)) is None
        log.close()

    def test_unknown_txn_returns_none(self, tmp_path):
        log = DurableDecisionLog.open_name("c1", config(tmp_path))
        assert log.decision(global_txn(9)) is None
        assert log.in_doubt() == []
        log.close()


class TestRetiredRecords:
    def test_old_federation_records_replay_to_their_decisions(self, tmp_path):
        """A log written before the retired kinds were retired: LEASE and
        SHARD_EPOCH records, an old-format CHECKPOINT, then a DECISION.
        Replay skips the retired kinds and the old checkpoint keys, and
        recovery truncates nothing."""
        directory = coordinator_wal_directory(str(tmp_path), "c1")
        os.makedirs(directory)
        lease = {"lo": 1, "hi": 65, "owner": "c1"}
        epoch = {"shard": 3, "epoch": 2, "owner": "c1"}
        write_segment(
            os.path.join(directory, segment_name(1)),
            [
                WalRecord(RecordKind.RETIRED_LEASE, lease),
                WalRecord(RecordKind.RETIRED_SHARD_EPOCH, epoch),
                WalRecord(
                    RecordKind.CHECKPOINT,
                    {
                        "name": "c1",
                        "decisions": [],
                        "lease_high_water": 65,
                        "shard_epochs": {3: 2},
                    },
                ),
                WalRecord(RecordKind.RETIRED_LEASE, dict(lease, lo=65, hi=129)),
                WalRecord(RecordKind.RETIRED_SHARD_EPOCH, dict(epoch, epoch=3)),
                WalRecord(
                    RecordKind.DECISION,
                    {
                        "txn": global_txn(7),
                        "committed": True,
                        "sn": SerialNumber(70.0, "c1"),
                        "sites": ["a", "b"],
                    },
                ),
            ],
        )
        log = DurableDecisionLog.open_name("c1", config(tmp_path))
        assert log.wal.recovery.clean
        assert log.wal.repaired_files == 0
        assert [d.txn for d in log.in_doubt()] == [global_txn(7)]
        assert log.sn_high_water == SerialNumber(70.0, "c1")
        log.close()

    def test_retired_kinds_keep_their_numbers(self):
        assert RecordKind(11) is RecordKind.RETIRED_LEASE
        assert RecordKind(12) is RecordKind.RETIRED_SHARD_EPOCH


class TestRestartSafeSNs:
    """A respawned coordinator draws SNs above everything its previous
    incarnation logged (the respawn otherwise restarts near zero, and
    every certifier that saw the old SNs refuses it)."""

    def _incarnations(self, root, first):
        """Boot ``CoordinatorNode("c1")`` on ``root``, let ``first(node)``
        log decisions, reboot, and return the second incarnation's first
        SN."""

        async def scenario():
            node = CoordinatorNode("c1", root, RtTuning())
            first(node)
            await node.close()
            again = CoordinatorNode("c1", root, RtTuning())
            sn = again.sn_generator.generate("c1")
            await again.close()
            return sn

        return asyncio.run(scenario())

    @staticmethod
    def _log_first_sn(node, end=False):
        # The predecessor ran a while before it drew: its clock is ahead
        # of a fresh incarnation's kernel.
        time.sleep(0.05)
        node.kernel.pump_now()
        sn = node.sn_generator.generate("c1")
        node.decision_log.log_decision(
            Decision(txn=global_txn(1), committed=True, sn=sn, sites=("a",))
        )
        if end:
            node.decision_log.log_end(global_txn(1))
            node.decision_log.checkpoint()
            assert node.decision_log.decisions() == []
        return sn

    def test_respawn_draws_above_logged_sn(self, tmp_path):
        logged = []
        sn = self._incarnations(
            str(tmp_path), lambda node: logged.append(self._log_first_sn(node))
        )
        assert sn > logged[0]

    def test_floor_survives_checkpoint_compaction(self, tmp_path):
        logged = []
        sn = self._incarnations(
            str(tmp_path),
            lambda node: logged.append(self._log_first_sn(node, end=True)),
        )
        assert sn > logged[0]

    def test_floor_holds_when_the_wall_clock_stepped_back(self, tmp_path):
        ahead = SerialNumber(time.time() + 3600.0, "c1", 5)

        def log_ahead(node):
            node.decision_log.log_decision(
                Decision(txn=global_txn(1), committed=True, sn=ahead, sites=("a",))
            )

        assert self._incarnations(str(tmp_path), log_ahead) > ahead


class _FrozenKernel:
    """Just what a ``SiteClock`` reads: a settable ``now``."""

    now = 0.0


#: One step of a coordinator's life: log a decision after ``dt`` seconds
#: (optionally ended, optionally followed by a checkpoint), or restart
#: with the wall clock at ``wall``.
_STEPS = st.one_of(
    st.tuples(
        st.just("decide"),
        st.floats(0.0, 5.0),
        st.booleans(),
        st.booleans(),
    ),
    st.tuples(st.just("restart"), st.floats(0.0, 100.0)),
)


@given(steps=st.lists(_STEPS, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_no_sn_at_or_below_the_recovery_floor(steps):
    """Across random WAL restart points, with wall clocks that may step
    back arbitrarily, every SN a new incarnation draws is above every
    SN any earlier incarnation logged."""
    with tempfile.TemporaryDirectory() as root:
        cfg = DurabilityConfig(root=root, sync="simulated", compact_min_discards=2)

        def boot(wall):
            log = DurableDecisionLog.open_name("c1", cfg)
            kernel = _FrozenKernel()
            clock = coordinator_clock("c1", kernel, log.sn_high_water, wall)
            return log, kernel, RealTimeClockSN(kernel, {"c1": clock})

        log, kernel, generator = boot(0.0)
        floor = None
        number = 0
        for step in steps:
            if step[0] == "restart":
                log.close()
                log, kernel, generator = boot(step[1])
                floor = log.sn_high_water
                continue
            _kind, dt, end, checkpoint = step
            kernel.now += dt
            sn = generator.generate("c1")
            if floor is not None:
                assert sn > floor
            number += 1
            log.log_decision(
                Decision(txn=global_txn(number), committed=True, sn=sn, sites=("a",))
            )
            if end:
                log.log_end(global_txn(number))
            if checkpoint:
                log.checkpoint()
        log.close()
