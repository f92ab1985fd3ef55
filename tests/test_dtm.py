"""Tests for the system façade (repro.core.dtm)."""

import pytest

from repro.common.errors import ConfigError, RefusalReason
from repro.common.ids import global_txn
from repro.ablations import (
    ABLATIONS,
    NoCertificationCertifier,
    NoCommitCertificationCertifier,
    NoExtensionCertifier,
    PrepareOrderCertifier,
)
from repro.core.certifier import Certifier
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import METHODS, MultidatabaseSystem, SystemConfig
from repro.core.serial import CentralCounterSN, RealTimeClockSN
from repro.ldbs.commands import AddValue, ReadItem, UpdateItem
from repro.ldbs.dlu import DLUPolicy


class TestSystemConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(method="3pc")

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(sites=("a", "a"))

    def test_zero_coordinators_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_coordinators=0)

    def test_all_methods_buildable(self):
        for method in METHODS:
            system = MultidatabaseSystem(SystemConfig(method=method))
            assert system.config.method == method


def certifier_type(method):
    """The class of every site's certifier under ``method``."""
    system = MultidatabaseSystem.build(method, sites=("a", "b"))
    kinds = {type(system.certifier(site)) for site in ("a", "b")}
    assert len(kinds) == 1
    return kinds.pop()


class TestMethodPresets:
    """Every method but 2cm, ticket and cgm resolves through the
    ablation registry; the paper's methods run the plain certifier."""

    def test_2cm_everything_on(self):
        assert certifier_type("2cm") is Certifier

    def test_noext_disables_only_extension(self):
        assert certifier_type("2cm-noext") is NoExtensionCertifier

    def test_nocommitcert(self):
        assert certifier_type("2cm-nocommitcert") is NoCommitCertificationCertifier

    def test_prepare_order_policy(self):
        assert certifier_type("2cm-prepare-order") is PrepareOrderCertifier

    def test_naive_everything_off(self):
        assert certifier_type("naive") is NoCertificationCertifier

    def test_cgm_uses_naive_certifiers(self):
        assert certifier_type("cgm") is NoCertificationCertifier

    def test_ticket_keeps_the_papers_certifier(self):
        assert certifier_type("ticket") is Certifier

    def test_every_ablated_method_is_a_registry_entry(self):
        for method in METHODS:
            if method not in ("2cm", "ticket", "cgm"):
                assert method in ABLATIONS, method

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            ABLATIONS["nope"]

    def test_ablated_certifier_survives_agent_restart(self):
        system = MultidatabaseSystem.build("2cm-noext", sites=("a",))
        system.agent("a").simulate_restart()
        assert type(system.certifier("a")) is NoExtensionCertifier


class TestWiring:
    def test_one_agent_certifier_ltm_per_site(self):
        system = MultidatabaseSystem(SystemConfig(sites=("a", "b", "c")))
        for site in ("a", "b", "c"):
            assert system.agent(site).site == site
            assert system.certifier(site).site == site
            assert system.ltm(site).site == site

    def test_build_forwards_kwargs(self):
        system = MultidatabaseSystem.build("naive", sites=("x",), n_coordinators=3)
        assert system.config.method == "naive"
        assert len(system.coordinators) == 3

    def test_build_naive_method(self):
        system = MultidatabaseSystem.build("naive", sites=("a", "b"))
        assert system.config.method == "naive"
        assert system.config.sites == ("a", "b")
        for site in ("a", "b"):
            assert type(system.certifier(site)) is NoCertificationCertifier

    def test_build_ticket_method(self):
        system = MultidatabaseSystem.build("ticket", sites=("a", "b"))
        assert system.config.method == "ticket"
        assert isinstance(system.sn_generator, CentralCounterSN)
        assert all(c.sn_at_begin for c in system.coordinators)

    def test_naive_method_runs_transactions(self):
        system = MultidatabaseSystem.build("naive", sites=("a",))
        system.load("a", "t", {1: 5})
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(("a", UpdateItem("t", 1, AddValue(1))),),
            )
        )
        system.run()
        assert done.value.committed

    def test_ticket_forces_central_counter_and_sn_at_begin(self):
        system = MultidatabaseSystem(SystemConfig(method="ticket"))
        assert isinstance(system.sn_generator, CentralCounterSN)
        assert all(c.sn_at_begin for c in system.coordinators)

    def test_clock_generator_by_default(self):
        system = MultidatabaseSystem(SystemConfig())
        assert isinstance(system.sn_generator, RealTimeClockSN)

    def test_cgm_attaches_scheduler_and_observers(self):
        system = MultidatabaseSystem(SystemConfig(method="cgm"))
        assert system.scheduler is not None
        for site in system.config.sites:
            assert system.agent(site).on_ready_observers

    def test_non_cgm_has_no_scheduler(self):
        assert MultidatabaseSystem(SystemConfig()).scheduler is None

    def test_dlu_policy_propagates(self):
        system = MultidatabaseSystem(
            SystemConfig(dlu_policy=DLUPolicy.VIOLATE)
        )
        assert system.guards["a"].policy is DLUPolicy.VIOLATE

    def test_unknown_site_access_rejected(self):
        system = MultidatabaseSystem(SystemConfig())
        with pytest.raises(ConfigError):
            system.ltm("zz")

    def test_submit_rejects_unknown_site(self):
        system = MultidatabaseSystem(SystemConfig())
        spec = GlobalTransactionSpec(
            txn=global_txn(1), steps=(("zz", ReadItem("t", "X")),)
        )
        with pytest.raises(ConfigError):
            system.submit(spec)

    def test_round_robin_coordinators(self):
        system = MultidatabaseSystem(SystemConfig(n_coordinators=2))
        system.load("a", "t", {"X": 1})
        spec1 = GlobalTransactionSpec(
            txn=global_txn(1), steps=(("a", ReadItem("t", "X")),)
        )
        spec2 = GlobalTransactionSpec(
            txn=global_txn(2), steps=(("a", ReadItem("t", "X")),)
        )
        system.submit(spec1)
        system.submit(spec2)
        system.run()
        assert system.coordinators[0].committed == 1
        assert system.coordinators[1].committed == 1


class TestLocalSubmission:
    def test_local_transaction_commits(self):
        system = MultidatabaseSystem(SystemConfig())
        system.load("a", "t", {"X": 1})
        done = system.submit_local("a", [UpdateItem("t", "X", AddValue(5))])
        system.run()
        outcome = done.value
        assert outcome.committed
        assert outcome.txn.is_local
        snapshot = {k.key: v for k, v in system.ltm("a").store.snapshot("t").items()}
        assert snapshot["X"] == 6

    def test_local_numbers_auto_assigned_unique(self):
        system = MultidatabaseSystem(SystemConfig())
        system.load("a", "t", {"X": 1})
        first = system.submit_local("a", [ReadItem("t", "X")])
        second = system.submit_local("a", [ReadItem("t", "X")])
        system.run()
        assert first.value.txn != second.value.txn

    def test_local_abort_reported(self):
        system = MultidatabaseSystem(SystemConfig())
        system.load("a", "t", {"X": 1})
        # Hold an X lock with a global subtransaction, then time out.
        from repro.common.ids import SubtxnId

        system.ltms["a"].locks.default_timeout = 20.0
        holder = system.ltm("a").begin(SubtxnId(global_txn(9), "a", 0))
        holder.execute(UpdateItem("t", "X", AddValue(1)))
        system.run(until=5.0)
        done = system.submit_local("a", [UpdateItem("t", "X", AddValue(1))])
        system.run(until=50.0)
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.LOCK_TIMEOUT
        holder.abort()
        system.run()


class TestClockDrift:
    def test_offsets_applied_to_coordinator_clocks(self):
        system = MultidatabaseSystem(
            SystemConfig(n_coordinators=2, clock_offsets={"c2": 100.0})
        )
        sn1 = system.sn_generator.generate("c1")
        sn2 = system.sn_generator.generate("c2")
        assert sn2.clock - sn1.clock == 100.0


class TestHeterogeneity:
    """Per-site LDBS characteristics (the paper's D-autonomy)."""

    def test_ltm_overrides_apply_per_site(self):
        from repro.ldbs.ltm import LTMConfig

        system = MultidatabaseSystem(
            SystemConfig(
                sites=("ingres", "sybase"),
                ltm=LTMConfig(op_duration=1.0),
                ltm_overrides={"ingres": LTMConfig(op_duration=4.0)},
            )
        )
        assert system.ltm("ingres").config.op_duration == 4.0
        assert system.ltm("sybase").config.op_duration == 1.0

    def test_agent_overrides_apply_per_site(self):
        from repro.core.agent import AgentConfig

        system = MultidatabaseSystem(
            SystemConfig(
                sites=("a", "b"),
                agent=AgentConfig(alive_check_interval=50.0),
                agent_overrides={"b": AgentConfig(alive_check_interval=5.0)},
            )
        )
        assert system.agent("a").config.alive_check_interval == 50.0
        assert system.agent("b").config.alive_check_interval == 5.0

    def test_unknown_override_site_rejected(self):
        from repro.ldbs.ltm import LTMConfig

        with pytest.raises(ConfigError):
            SystemConfig(
                sites=("a",), ltm_overrides={"zz": LTMConfig()}
            )

    def test_heterogeneous_sites_interoperate(self):
        """A slow LDBS with active deadlock detection federates with a
        fast timeout-based one; a cross-site transaction still commits
        and audits clean."""
        from repro.ldbs.ltm import LTMConfig
        from repro.core.coordinator import GlobalTransactionSpec
        from repro.sim.metrics import audit as _audit

        system = MultidatabaseSystem(
            SystemConfig(
                sites=("ingres", "sybase"),
                ltm_overrides={
                    "ingres": LTMConfig(
                        op_duration=3.0,
                        lock_timeout=500.0,
                        deadlock_detection_period=20.0,
                    ),
                    "sybase": LTMConfig(op_duration=0.5, lock_timeout=60.0),
                },
            )
        )
        system.load("ingres", "t", {1: 10})
        system.load("sybase", "t", {1: 20})
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(
                    ("ingres", UpdateItem("t", 1, AddValue(1))),
                    ("sybase", UpdateItem("t", 1, AddValue(-1))),
                ),
            )
        )
        system.run()
        assert done.value.committed
        assert _audit(system).ok
