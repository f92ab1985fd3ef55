"""Tests for CGM's data-partition rules (repro.baselines.cgm).

The paper's Sec. 6: in CGM "the restriction is imposed in a less
general way by partitioning the data items into the locally updateable
set and the globally updateable set.  As concerns reads, an additional
restriction is that those global transactions that update data items,
are not allowed to read the locally updateable set."
"""

import pytest

from repro.common.errors import RefusalReason
from repro.common.ids import global_txn
from repro.baselines.cgm import CGMPartition, CGMScheduler
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.kernel import EventKernel
from repro.ldbs.commands import AddValue, ReadItem, UpdateItem

from tests.helpers import drain


class TestSchedulerRules:
    def make(self):
        kernel = EventKernel()
        return kernel, CGMScheduler(
            kernel, partition=CGMPartition.of("gu")
        )

    def test_global_update_of_gu_allowed(self):
        kernel, scheduler = self.make()
        event = scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("gu", 1, AddValue(1))
        )
        assert event.done and event.error is None

    def test_global_update_of_lu_denied(self):
        kernel, scheduler = self.make()
        event = scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("lu", 1, AddValue(1))
        )
        assert event.error is not None
        assert event.error.reason is RefusalReason.PARTITION
        assert scheduler.partition_violations == 1

    def test_read_only_global_may_read_lu(self):
        kernel, scheduler = self.make()
        event = scheduler.before_command(
            kernel, global_txn(1), "a", ReadItem("lu", 1)
        )
        assert event.done and event.error is None

    def test_updater_may_not_read_lu(self):
        kernel, scheduler = self.make()
        scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("gu", 1, AddValue(1))
        )
        event = scheduler.before_command(
            kernel, global_txn(1), "b", ReadItem("lu", 1)
        )
        assert event.error is not None
        assert event.error.reason is RefusalReason.PARTITION

    def test_lu_reader_may_not_later_update(self):
        kernel, scheduler = self.make()
        scheduler.before_command(
            kernel, global_txn(1), "a", ReadItem("lu", 1)
        )
        event = scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("gu", 1, AddValue(1))
        )
        assert event.error is not None

    def test_flags_cleared_at_end(self):
        kernel, scheduler = self.make()
        scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("gu", 1, AddValue(1))
        )
        scheduler.on_end(global_txn(1), committed=False)
        event = scheduler.before_command(
            kernel, global_txn(1), "a", ReadItem("lu", 1)
        )
        assert event.done and event.error is None

    def test_no_partition_means_no_rules(self):
        kernel = EventKernel()
        scheduler = CGMScheduler(kernel, partition=None)
        event = scheduler.before_command(
            kernel, global_txn(1), "a", UpdateItem("lu", 1, AddValue(1))
        )
        assert event.done and event.error is None


class TestEndToEndPartition:
    def build(self):
        system = MultidatabaseSystem(
            SystemConfig(
                sites=("a", "b"),
                method="cgm",
                cgm_gu_tables=("gu",),
            )
        )
        for site in ("a", "b"):
            system.load(site, "gu", {1: 10})
            system.load(site, "lu", {1: 20})
        return system

    def test_partition_violating_global_aborts(self):
        system = self.build()
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(("a", UpdateItem("lu", 1, AddValue(1))),),
            )
        )
        drain(system)
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.PARTITION

    def test_conforming_global_commits(self):
        system = self.build()
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(
                    ("a", UpdateItem("gu", 1, AddValue(1))),
                    ("b", UpdateItem("gu", 1, AddValue(-1))),
                ),
            )
        )
        drain(system)
        assert done.value.committed

    def test_local_update_of_gu_denied(self):
        """Local transactions may only touch the LU set with writes —
        statically, unlike 2CM's DLU which only protects bound data."""
        system = self.build()
        denied = system.submit_local("a", [UpdateItem("gu", 1, AddValue(1))])
        allowed = system.submit_local("a", [UpdateItem("lu", 1, AddValue(1))])
        drain(system)
        assert not denied.value.committed
        assert denied.value.reason is RefusalReason.DLU
        assert allowed.value.committed
        assert system.guards["a"].static_denials == 1

    def test_2cm_has_no_static_restriction(self):
        """The Sec. 6 contrast: under 2CM the same local update is fine
        (only *bound* data is ever restricted)."""
        system = MultidatabaseSystem(
            SystemConfig(sites=("a",), method="2cm", cgm_gu_tables=("gu",))
        )
        system.load("a", "gu", {1: 10})
        done = system.submit_local("a", [UpdateItem("gu", 1, AddValue(1))])
        drain(system)
        assert done.value.committed
