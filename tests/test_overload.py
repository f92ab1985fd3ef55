"""Tests for the overload-survival layer.

Covers the four mechanisms — admission control, deadline propagation,
adaptive resubmission backoff with GIVEUP escalation, and per-site
circuit breakers — at unit level and wired through a full system, plus
the drill's invariant battery and determinism, and the dead-letter
bound on both transports.
"""

import random

import pytest

from repro.common.errors import ConfigError, RefusalReason
from repro.common.ids import SerialNumber, global_txn
from repro.core.agent import AgentConfig, AgentPhase, _AgentTxn
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.core.intervals import AliveInterval
from repro.ldbs.commands import AddValue, UpdateItem
from repro.net.messages import Message, MsgType
from repro.net.network import LatencyModel, Network
from repro.kernel import EventKernel
from repro.overload.admission import AdmissionController
from repro.overload.backoff import ResubmitBackoff
from repro.overload.breaker import BreakerRegistry, BreakerState, CircuitBreaker
from repro.overload.config import BreakerConfig, OverloadConfig
from repro.sim.failures import abort_current_incarnation
from repro.sim.overload import OverloadDrillConfig, run_overload


def _update(key=1, delta=1):
    return UpdateItem("t", key, AddValue(delta))


def make_system(overload, sites=("a", "b"), **kwargs):
    system = MultidatabaseSystem(
        SystemConfig(sites=sites, n_coordinators=1, overload=overload, **kwargs)
    )
    for site in sites:
        system.load(site, "t", {k: 100 for k in range(8)})
    return system


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestConfigValidation:
    def test_defaults_are_valid(self):
        OverloadConfig()
        BreakerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight_globals": 0},
            {"shed_start_fraction": 1.5},
            {"shed_start_fraction": -0.1},
            {"default_deadline": 0.0},
            {"resubmit_backoff_base": 0.0},
            {"resubmit_backoff_factor": 0.5},
            {"resubmit_backoff_max": 5.0, "resubmit_backoff_base": 10.0},
            {"resubmit_backoff_jitter": -1.0},
            {"resubmit_budget": 0},
            {"min_commit_retry": 0.0},
            {"commit_retry_halflife": 0.0},
        ],
    )
    def test_bad_overload_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            OverloadConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"min_volume": 0},
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"open_duration": 0.0},
            {"half_open_probes": 0},
        ],
    )
    def test_bad_breaker_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            BreakerConfig(**kwargs)


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------


class TestBackoff:
    def cfg(self, **kwargs):
        defaults = dict(
            resubmit_backoff_base=10.0,
            resubmit_backoff_factor=2.0,
            resubmit_backoff_max=80.0,
            resubmit_backoff_jitter=0.0,
        )
        defaults.update(kwargs)
        return OverloadConfig(**defaults)

    def test_exponential_growth_and_cap(self):
        backoff = ResubmitBackoff(self.cfg(), random.Random(0))
        assert [backoff.delay(n) for n in (1, 2, 3, 4, 5)] == [
            10.0,
            20.0,
            40.0,
            80.0,
            80.0,  # capped
        ]

    def test_attempt_floor(self):
        backoff = ResubmitBackoff(self.cfg(), random.Random(0))
        assert backoff.delay(0) == backoff.delay(1) == 10.0

    def test_jitter_bounded_and_seeded(self):
        config = self.cfg(resubmit_backoff_jitter=5.0)
        a = ResubmitBackoff(config, random.Random(7))
        b = ResubmitBackoff(config, random.Random(7))
        delays_a = [a.delay(1) for _ in range(50)]
        delays_b = [b.delay(1) for _ in range(50)]
        assert delays_a == delays_b  # same seed, same schedule
        assert all(10.0 <= d < 15.0 for d in delays_a)
        assert len(set(delays_a)) > 1  # the jitter actually jitters


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------


class TestAdmission:
    def test_hard_cap_refuses(self):
        admission = AdmissionController(OverloadConfig(max_inflight_globals=2))
        assert admission.try_admit()
        assert admission.try_admit()
        assert not admission.try_admit()
        assert (admission.admitted, admission.shed) == (2, 1)
        admission.release()
        assert admission.try_admit()

    def test_release_underflow_raises(self):
        admission = AdmissionController(OverloadConfig())
        with pytest.raises(RuntimeError):
            admission.release()

    def test_shed_ramp_is_probabilistic_and_seeded(self):
        config = OverloadConfig(max_inflight_globals=10, shed_start_fraction=0.5)

        def shed_profile(seed):
            admission = AdmissionController(config, seed=seed)
            return [admission.try_admit() for _ in range(30)]

        assert shed_profile(3) == shed_profile(3)  # deterministic
        profile = shed_profile(3)
        # Below the ramp start nothing is shed.
        assert all(profile[:5])
        # The ramp shed something before the hard cap...
        assert not all(profile[5:])
        # ...and the hard cap is still absolute.
        admission = AdmissionController(config, seed=3)
        while admission.try_admit():
            pass
        assert admission.inflight <= 10


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestBreaker:
    def cfg(self, **kwargs):
        defaults = dict(
            window=8,
            min_volume=4,
            failure_threshold=0.5,
            open_duration=100.0,
            half_open_probes=2,
        )
        defaults.update(kwargs)
        return BreakerConfig(**defaults)

    def test_opens_at_error_rate_over_min_volume(self):
        breaker = CircuitBreaker("a", self.cfg())
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        # Three failures but min_volume=4: still closed.
        assert breaker.state is BreakerState.CLOSED
        breaker.record_success(3.0)
        # 3/4 failures >= 0.5: open.
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(4.0)
        assert breaker.refusals == 1

    def test_window_slides(self):
        breaker = CircuitBreaker("a", self.cfg(window=4, min_volume=4))
        for t in range(4):
            breaker.record_failure(float(t))
        assert breaker.state is BreakerState.OPEN

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker("a", self.cfg())
        for t in range(20):
            breaker.record_success(float(t))
        breaker.record_failure(20.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_success_closes_with_clean_slate(self):
        breaker = CircuitBreaker("a", self.cfg())
        for t in range(4):
            breaker.record_failure(float(t))
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(50.0)  # still cooling off
        assert breaker.allow(104.0)  # open_duration passed: probe allowed
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(110.0)
        assert breaker.state is BreakerState.CLOSED
        # Clean slate: one new failure must not instantly re-open.
        breaker.record_failure(111.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("a", self.cfg())
        for t in range(4):
            breaker.record_failure(float(t))
        assert breaker.allow(104.0)
        breaker.record_failure(105.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        # The new open period starts at the re-open, not the first one.
        assert not breaker.allow(150.0)
        assert breaker.allow(206.0)

    def test_half_open_probe_budget(self):
        breaker = CircuitBreaker("a", self.cfg(half_open_probes=2))
        for t in range(4):
            breaker.record_failure(float(t))
        assert breaker.allow(104.0)
        assert breaker.allow(104.0)
        assert not breaker.allow(104.0)  # budget spent, probes in flight

    def test_late_failures_ignored_while_open(self):
        breaker = CircuitBreaker("a", self.cfg())
        for t in range(4):
            breaker.record_failure(float(t))
        opens = breaker.opens
        breaker.record_failure(10.0)  # straggler from before the trip
        assert breaker.opens == opens

    def test_registry_aggregates_per_site(self):
        registry = BreakerRegistry(self.cfg(min_volume=1, failure_threshold=0.5))
        registry.record_failure("a", 0.0)
        registry.record_success("b", 0.0)
        assert registry.state_of("a") is BreakerState.OPEN
        assert registry.state_of("b") is BreakerState.CLOSED
        assert registry.opens == 1
        assert not registry.allow("a", 1.0)
        assert registry.allow("b", 1.0)
        assert registry.refusals == 1


# ----------------------------------------------------------------------
# Admission control wired through the coordinator
# ----------------------------------------------------------------------


class TestAdmissionIntegration:
    def test_concurrent_globals_beyond_budget_are_shed(self):
        system = make_system(OverloadConfig(max_inflight_globals=1, breaker=None))
        specs = [
            GlobalTransactionSpec(
                txn=global_txn(n),
                steps=(("a", _update(n)), ("b", _update(n))),
                think_time=50.0,
            )
            for n in (1, 2, 3)
        ]
        done = [system.submit(spec, coordinator=0) for spec in specs]
        system.run()
        outcomes = [d.value for d in done]
        committed = [o for o in outcomes if o.committed]
        shed = [o for o in outcomes if o.reason is RefusalReason.OVERLOADED]
        assert len(committed) == 1  # the budget holder finished normally
        assert len(shed) == 2  # the rest were refused at BEGIN
        coordinator = system.coordinator(0)
        assert coordinator.overload_refusals == 2
        assert coordinator.admission.inflight == 0  # all slots returned
        # Shed transactions never touched a site: no refusals, no state.
        for site in ("a", "b"):
            assert system.agent(site).refusals == {}

    def test_sequential_globals_all_admitted(self):
        system = make_system(OverloadConfig(max_inflight_globals=1, breaker=None))
        for n in (1, 2, 3):
            done = system.submit(
                GlobalTransactionSpec(
                    txn=global_txn(n), steps=(("a", _update(n)),)
                ),
                coordinator=0,
            )
            system.run()
            assert done.value.committed
        assert system.coordinator(0).overload_refusals == 0

    def test_overload_off_changes_nothing(self):
        system = make_system(None)
        assert system.coordinator(0).admission is None
        assert system.breakers is None
        done = system.submit(
            GlobalTransactionSpec(txn=global_txn(1), steps=(("a", _update()),))
        )
        system.run()
        assert done.value.committed


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_aborts_at_agent_command(self):
        system = make_system(OverloadConfig(breaker=None))
        # The think time pushes the second COMMAND past the deadline;
        # the coordinator has no pre-send gate there, so enforcement
        # falls to the agent: expired work is refused, never executed.
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(("a", _update(1)), ("a", _update(2))),
                think_time=10.0,
                deadline=20.0,
            )
        )
        system.run()
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.DEADLINE_EXPIRED
        agent = system.agent("a")
        assert agent.refusals.get(RefusalReason.DEADLINE_EXPIRED) == 1
        assert agent.certifier.table_size() == 0
        assert agent.phase_of(global_txn(1)) is AgentPhase.DONE

    def test_deadline_gate_before_votes(self):
        system = make_system(OverloadConfig(breaker=None))
        # Hold the READY vote back past the deadline: the coordinator
        # must abort at the vote gate instead of committing late.
        system.network.pause_channel("agent:a", "coord:c1")
        system.kernel.schedule_at(
            120.0, lambda: system.network.resume_channel("agent:a", "coord:c1")
        )
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1), steps=(("a", _update()),), deadline=100.0
            )
        )
        system.run()
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.DEADLINE_EXPIRED
        assert system.coordinator(0).deadline_aborts == 1
        # The prepared state was cleanly rolled back, not orphaned.
        agent = system.agent("a")
        assert agent.certifier.table_size() == 0
        assert agent.rollbacks_done == 1

    def test_expired_prepare_is_refused_never_prepared(self):
        # Drive the agent directly: a PREPARE that arrives past the
        # deadline must refuse without entering the certifier table.
        system = make_system(OverloadConfig(breaker=None))
        agent = system.agent("a")
        replies = []
        system.network.register("coord:test", replies.append)

        def at(time, fn):
            system.kernel.schedule_at(time, fn)

        def send(type_, **kwargs):
            system.network.send(
                Message(
                    type=type_,
                    src="coord:test",
                    dst="agent:a",
                    txn=global_txn(1),
                    **kwargs,
                )
            )

        at(0.0, lambda: send(MsgType.BEGIN))
        at(10.0, lambda: send(MsgType.COMMAND, payload=_update()))
        at(
            40.0,
            lambda: send(
                MsgType.PREPARE, sn=SerialNumber(40.0, "test"), deadline=30.0
            ),
        )
        system.run()
        assert [m.type for m in replies] == [
            MsgType.COMMAND_RESULT,
            MsgType.REFUSE,
        ]
        refuse = replies[-1]
        assert refuse.reason is RefusalReason.DEADLINE_EXPIRED
        assert agent.certifier.table_size() == 0
        assert agent.ready_sent == 0
        assert agent.phase_of(global_txn(1)) is AgentPhase.DONE

    def test_default_deadline_stamped_from_config(self):
        system = make_system(
            OverloadConfig(default_deadline=7.0, breaker=None)
        )
        done = system.submit(
            GlobalTransactionSpec(txn=global_txn(1), steps=(("a", _update()),))
        )
        system.run()
        # now=0 at submit, so the deadline was 7: the COMMAND at t>=10
        # found it expired exactly as an explicit deadline would.
        assert done.value.reason is RefusalReason.DEADLINE_EXPIRED

    def test_generous_deadline_commits_normally(self):
        system = make_system(OverloadConfig(breaker=None))
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(("a", _update()), ("b", _update())),
                deadline=10_000.0,
            )
        )
        system.run()
        assert done.value.committed


# ----------------------------------------------------------------------
# GIVEUP escalation
# ----------------------------------------------------------------------


class TestGiveupEscalation:
    def test_exhausted_resubmit_budget_escalates_to_global_abort(self):
        overload = OverloadConfig(
            resubmit_budget=2,
            resubmit_backoff_base=2.0,
            resubmit_backoff_factor=1.0,
            resubmit_backoff_max=2.0,
            resubmit_backoff_jitter=0.0,
            breaker=None,
        )
        system = make_system(
            overload, agent=AgentConfig(alive_check_interval=4.0)
        )
        # Keep site b's READY from reaching the coordinator so the
        # global decision stays open while site a's prepared
        # subtransaction is torn down and forced to resubmit.  The
        # pause starts at t=26: after b's COMMAND_RESULT has passed
        # (~t22) but before its READY is sent (~t29).
        system.kernel.schedule_at(
            26.0, lambda: system.network.pause_channel("agent:b", "coord:c1")
        )
        system.kernel.schedule_at(
            1000.0,
            lambda: system.network.resume_channel("agent:b", "coord:c1"),
        )
        # A second global queues for key 1's lock at a; at t=41.5 T1's
        # prepared subtransaction is unilaterally aborted, the lock
        # passes to T2 (whose own decision is held open by the same
        # paused channel), and every resubmission attempt of T1 then
        # dies on the lock timeout.
        blocker = []
        system.kernel.schedule_at(
            30.0,
            lambda: blocker.append(
                system.submit(
                    GlobalTransactionSpec(
                        txn=global_txn(2),
                        steps=(("a", _update(1)), ("b", _update(1))),
                    )
                )
            ),
        )
        system.kernel.schedule_at(
            41.5,
            lambda: abort_current_incarnation(system, global_txn(1), "a"),
        )
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1),
                steps=(("a", _update(1)), ("b", _update(1))),
            )
        )
        system.run()
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.RESUBMIT_BUDGET
        assert system.coordinator(0).giveup_aborts == 1
        agent = system.agent("a")
        assert agent.giveups_sent == 1
        assert agent.resubmit_failures > overload.resubmit_budget
        # The blocker reached its own terminal state too (its decision
        # was held open by the paused channel; it times out and aborts).
        assert not blocker[0].value.committed
        # Everything cleaned up: nothing prepared, tables empty.
        for site in ("a", "b"):
            assert system.agent(site).certifier.table_size() == 0
            assert system.agent(site).phase_of(global_txn(1)) is AgentPhase.DONE

    def test_giveup_after_commit_decision_is_ignored(self):
        # A READY vote cannot be revoked: a GIVEUP arriving for a
        # transaction that is no longer active (decision made) must be
        # dropped without growing coordinator state.
        system = make_system(OverloadConfig(breaker=None))
        done = system.submit(
            GlobalTransactionSpec(txn=global_txn(1), steps=(("a", _update()),))
        )
        system.run()
        assert done.value.committed
        coordinator = system.coordinator(0)
        coordinator._on_message(
            Message(
                type=MsgType.GIVEUP,
                src="agent:a",
                dst="coord:c1",
                txn=global_txn(1),
            )
        )
        assert coordinator._giveups == {}
        assert coordinator.giveup_aborts == 0


# ----------------------------------------------------------------------
# Circuit breakers wired through the system
# ----------------------------------------------------------------------


class TestBreakerIntegration:
    def make(self):
        return make_system(
            OverloadConfig(
                breaker=BreakerConfig(
                    window=8,
                    min_volume=2,
                    failure_threshold=0.5,
                    open_duration=100.0,
                    half_open_probes=1,
                )
            )
        )

    def test_open_breaker_refuses_up_front(self):
        system = self.make()
        system.breakers.record_failure("a", 0.0)
        system.breakers.record_failure("a", 0.0)
        assert system.breakers.state_of("a") is BreakerState.OPEN
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1), steps=(("a", _update()), ("b", _update()))
            )
        )
        system.run()
        outcome = done.value
        assert not outcome.committed
        assert outcome.reason is RefusalReason.SITE_BREAKER_OPEN
        assert system.coordinator(0).breaker_refusals == 1
        # Refused before any site work: the agents saw nothing.
        assert system.agent("a").refusals == {}
        assert system.network.messages_sent == 0

    def test_half_open_probe_commit_closes_the_breaker(self):
        system = self.make()
        system.breakers.record_failure("a", 0.0)
        system.breakers.record_failure("a", 0.0)
        # Wait out the open period, then submit: the probe passes,
        # commits, and its success closes the breaker.
        system.kernel.schedule_at(150.0, lambda: None)
        system.run()
        done = system.submit(
            GlobalTransactionSpec(txn=global_txn(1), steps=(("a", _update()),))
        )
        system.run()
        assert done.value.committed
        assert system.breakers.state_of("a") is BreakerState.CLOSED

    def test_unreachable_site_feedback_charges_the_breaker(self):
        # A coordinator abort whose reason implicates the site (here:
        # NOT_ALIVE via an injected unilateral abort racing PREPARE)
        # must land in the site's breaker window.
        system = self.make()
        registry = system.breakers
        assert registry.breaker("a")._window == []
        done = system.submit(
            GlobalTransactionSpec(
                txn=global_txn(1), steps=(("a", _update()),), deadline=None
            )
        )
        system.run()
        assert done.value.committed
        # A committed global records a success for every participant.
        assert registry.breaker("a")._window == [True]


# ----------------------------------------------------------------------
# Eager-commit-retry coalescing (the thundering-herd fix)
# ----------------------------------------------------------------------


class TestEagerRetryCoalescing:
    def test_at_most_one_pending_retry_per_subtransaction(self):
        system = make_system(None, sites=("a",))
        agent = system.agent("a")
        kernel = system.kernel

        def pending_candidate(n):
            state = _AgentTxn(
                txn=global_txn(n),
                coordinator="coord:test",
                local=None,
                phase=AgentPhase.PREPARED,
                commit_pending=True,
            )
            agent._states[state.txn] = state
            agent._open[state.txn] = state
            return state

        def finalizable(n):
            state = _AgentTxn(
                txn=global_txn(n), coordinator="coord:test", local=None
            )
            agent.log.open(state.txn, coordinator="coord:test")
            agent.certifier.insert(
                state.txn, SerialNumber(float(n), "test"), AliveInterval(0.0, 1.0)
            )
            return state

        c1, c2 = pending_candidate(1), pending_candidate(2)
        before = kernel.pending
        agent._finalize(finalizable(10))
        assert kernel.pending - before == 2  # one wakeup per candidate
        assert c1.retry_armed and c2.retry_armed
        # A burst of further finalizations must not pile on more.
        agent._finalize(finalizable(11))
        agent._finalize(finalizable(12))
        assert kernel.pending - before == 2

    def test_wakeup_rearms_after_draining(self):
        system = make_system(None, sites=("a",))
        done = system.submit(
            GlobalTransactionSpec(txn=global_txn(1), steps=(("a", _update()),))
        )
        system.run()
        assert done.value.committed  # coalescing left the protocol intact


# ----------------------------------------------------------------------
# Dead-letter bounds
# ----------------------------------------------------------------------


class TestDeadLetterBound:
    def test_network_dead_letters_are_bounded(self):
        kernel = EventKernel()
        net = Network(kernel, latency=LatencyModel(base=1.0), dead_letter_limit=3)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.pause_channel("a", "b")
        for n in range(5):
            net.send(
                Message(MsgType.COMMAND, src="a", dst="b", txn=global_txn(n))
            )
        net.unregister("b")
        released = net.resume_channel("a", "b")
        assert released == 0
        assert len(net.dead_letters) == 3  # bounded
        assert net.dead_letters_dropped == 2  # the loss is counted
        # The survivors are the *newest* entries.
        assert [m.txn for m, _why in net.dead_letters] == [
            global_txn(2),
            global_txn(3),
            global_txn(4),
        ]


# ----------------------------------------------------------------------
# The drill
# ----------------------------------------------------------------------


class TestOverloadDrill:
    def test_drill_sheds_cleanly_at_16x(self):
        result = run_overload(OverloadDrillConfig(seed=1))
        assert result.ok, result.violations
        assert result.counters["shed"] > 0  # the storm was real
        assert result.committed > 0  # and the system kept committing
        # Every submitted global reached a terminal state.
        assert result.committed + result.aborted == result.submitted

    def test_drill_is_deterministic(self):
        a = run_overload(OverloadDrillConfig(seed=2, n_global=40, n_local=4))
        b = run_overload(OverloadDrillConfig(seed=2, n_global=40, n_local=4))
        assert (a.committed, a.aborted, a.sim_time) == (
            b.committed,
            b.aborted,
            b.sim_time,
        )
        assert a.counters == b.counters
        c = run_overload(OverloadDrillConfig(seed=9, n_global=40, n_local=4))
        assert (a.committed, a.sim_time) != (c.committed, c.sim_time)

    def test_unprotected_storm_still_safe_just_slower(self):
        result = run_overload(
            OverloadDrillConfig(seed=1, shed=False, n_global=60, n_local=6)
        )
        # No overload layer: nothing shed — but safety must still hold.
        assert result.counters["shed"] == 0
        assert result.counters["admitted"] == 0
        assert result.ok, result.violations
