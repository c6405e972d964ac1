"""Fault injection + retry/recovery: determinism, costs, asymmetry."""

import pytest

from repro.bench.harness import call_args
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.fdbs.config import EngineConfig
from repro.errors import (
    FencedProcessDiedError,
    RmiDroppedError,
    SimulationError,
    StatementAbortedError,
)
from repro.simtime.clock import VirtualClock
from repro.simtime.costs import DEFAULT_COSTS
from repro.simtime.rng import FaultRng
from repro.sysmodel.faults import (
    FAULT_SITES,
    SITE_ACTIVITY_PROGRAM,
    SITE_FENCED_PROCESS,
    SITE_LOCAL_FUNCTION,
    SITE_RMI_UDTF,
    SITE_RMI_WFMS,
    FaultInjector,
    RetryPolicy,
)
from repro.sysmodel.rmi import RmiChannel

ANCHOR = "GetNoSuppComp"


class TestFaultInjector:
    def test_disabled_injector_never_fails_and_never_draws(self):
        injector = FaultInjector(FaultRng(seed=42), enabled=False)
        injector.arm(SITE_RMI_UDTF, probability=0.5)
        assert not any(injector.should_fail(SITE_RMI_UDTF) for _ in range(100))
        # The RNG stream was never consumed: next roll equals a fresh one.
        assert injector.rng.roll() == FaultRng(seed=42).roll()

    def test_probability_zero_site_never_draws(self):
        """Arming a site at 0 must not perturb other sites' decisions."""
        injector = FaultInjector(FaultRng(seed=7), enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=0.0)
        assert not any(injector.should_fail(SITE_RMI_UDTF) for _ in range(100))
        assert injector.rng.roll() == FaultRng(seed=7).roll()

    def test_certain_faults_do_not_draw(self):
        """probability=1.0 is deterministic: no roll is spent on it."""
        injector = FaultInjector(FaultRng(seed=7), enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=1.0)
        assert all(injector.should_fail(SITE_RMI_UDTF) for _ in range(5))
        assert injector.rng.roll() == FaultRng(seed=7).roll()

    def test_same_seed_same_decisions(self):
        def decisions(seed):
            injector = FaultInjector(FaultRng(seed=seed), enabled=True)
            injector.arm(SITE_LOCAL_FUNCTION, probability=0.3)
            return [injector.should_fail(SITE_LOCAL_FUNCTION) for _ in range(200)]

        assert decisions(11) == decisions(11)
        assert decisions(11) != decisions(12)

    def test_fault_budget_exhausts(self):
        injector = FaultInjector(enabled=True)
        injector.arm(SITE_FENCED_PROCESS, probability=1.0, count=2)
        fired = [injector.should_fail(SITE_FENCED_PROCESS) for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert injector.injected(SITE_FENCED_PROCESS) == 2
        assert injector.injected() == 2

    def test_reset_restores_budget_and_stream(self):
        injector = FaultInjector(FaultRng(seed=3), enabled=True)
        injector.arm(SITE_RMI_WFMS, probability=0.5, count=1)
        first = [injector.should_fail(SITE_RMI_WFMS) for _ in range(20)]
        injector.reset()
        assert injector.injected() == 0
        assert [injector.should_fail(SITE_RMI_WFMS) for _ in range(20)] == first

    def test_unknown_site_rejected(self):
        with pytest.raises(SimulationError, match="unknown fault site"):
            FaultInjector().arm("rmi.bogus")

    def test_invalid_probability_rejected(self):
        with pytest.raises(SimulationError, match="probability"):
            FaultInjector().arm(SITE_RMI_UDTF, probability=1.5)

    def test_stats_counts_per_site(self):
        injector = FaultInjector(enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=1.0, count=3)
        for _ in range(4):
            injector.should_fail(SITE_RMI_UDTF)
        stats = injector.stats()
        assert stats[f"injected[{SITE_RMI_UDTF}]"] == 3
        assert stats["injected_total"] == 3
        assert stats["enabled"] == 1

    def test_all_documented_sites_armable(self):
        injector = FaultInjector()
        for site in FAULT_SITES:
            injector.arm(site, probability=0.1)


class TestRetryPolicy:
    def test_inactive_policy_grants_single_attempt(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.attempts() == 1
        policy.configure(active=True)
        assert policy.attempts() == 5

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=4.0, multiplier=2.0)
        assert policy.backoff(1, default_base=99.0) == 4.0
        assert policy.backoff(2, default_base=99.0) == 8.0
        assert policy.backoff(3, default_base=99.0) == 16.0

    def test_backoff_falls_back_to_cost_model_base(self):
        policy = RetryPolicy()
        assert policy.backoff(1, default_base=5.0) == 5.0

    def test_configure_validates(self):
        with pytest.raises(SimulationError, match="max_attempts"):
            RetryPolicy().configure(max_attempts=0)
        with pytest.raises(SimulationError, match="backoff_base"):
            RetryPolicy().configure(backoff_base=-1.0)
        with pytest.raises(SimulationError, match="multiplier"):
            RetryPolicy().configure(multiplier=0.5)


def make_channel(clock, persistent=False):
    channel = RmiChannel(
        "test", clock,
        call_cost=10.0, return_cost=7.0,
        warm_call_cost=4.0, warm_return_cost=3.0,
    )
    channel.configure(persistent=persistent)
    return channel


class TestRmiChannelFaults:
    def test_dropped_hop_charges_timeout_and_detection(self):
        clock = VirtualClock()
        channel = make_channel(clock)
        injector = FaultInjector(enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=1.0, count=1)
        channel.bind_faults(injector, SITE_RMI_UDTF, RetryPolicy(), DEFAULT_COSTS)
        with pytest.raises(RmiDroppedError):
            channel.invoke(lambda: "never")
        # Call hop + timeout + fault detection; no return hop, no remote.
        expected = (
            channel.call_cost + DEFAULT_COSTS.rmi_timeout + DEFAULT_COSTS.fault_detection
        )
        assert clock.now == pytest.approx(expected)
        assert channel.stats()["drops"] == 1
        assert channel.stats()["retries"] == 0

    def test_active_policy_redrives_dropped_hop_with_backoff(self):
        clock = VirtualClock()
        channel = make_channel(clock)
        injector = FaultInjector(enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=1.0, count=1)
        policy = RetryPolicy(max_attempts=2, backoff_base=5.0, active=True)
        channel.bind_faults(injector, SITE_RMI_UDTF, policy, DEFAULT_COSTS)
        assert channel.invoke(lambda: "ok") == "ok"
        expected = (
            channel.call_cost  # dropped attempt's call hop
            + DEFAULT_COSTS.rmi_timeout + DEFAULT_COSTS.fault_detection
            + 5.0  # backoff before the retry
            + channel.call_cost + channel.return_cost  # successful attempt
        )
        assert clock.now == pytest.approx(expected)
        assert channel.stats() == {
            "calls": 2, "warm_calls": 0, "drops": 1, "retries": 1,
            "persistent": 0, "established": 0,
        }
        assert policy.retries == 1

    def test_retries_bounded_by_max_attempts(self):
        clock = VirtualClock()
        channel = make_channel(clock)
        injector = FaultInjector(enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=1.0)  # unlimited faults
        policy = RetryPolicy(max_attempts=3, backoff_base=1.0, active=True)
        channel.bind_faults(injector, SITE_RMI_UDTF, policy, DEFAULT_COSTS)
        with pytest.raises(RmiDroppedError):
            channel.invoke(lambda: "never")
        assert channel.call_count == 3
        assert channel.retries == 2

    def test_remote_exceptions_are_not_retried_by_the_channel(self):
        """Failure semantics past the hop belong to the caller's layer:
        only dropped hops are the channel's business."""
        clock = VirtualClock()
        channel = make_channel(clock)
        policy = RetryPolicy(max_attempts=3, active=True)
        channel.bind_faults(
            FaultInjector(enabled=True), SITE_RMI_UDTF, policy, DEFAULT_COSTS
        )
        calls = []
        with pytest.raises(ValueError):
            channel.invoke(lambda: calls.append(1) or (_ for _ in ()).throw(ValueError()))
        assert len(calls) == 1
        assert channel.retries == 0


class TestRmiChannelExceptionSafety:
    def test_raising_remote_still_pays_return_hop(self):
        """Regression: the return hop was charged after the remote call,
        so a raising remote skipped the hop that carries the failure
        back and the failed call was billed too cheap."""
        clock = VirtualClock()
        channel = make_channel(clock)

        def boom():
            raise ValueError("remote failed")

        with pytest.raises(ValueError):
            channel.invoke(boom)
        assert clock.now == pytest.approx(channel.call_cost + channel.return_cost)

    def test_persistent_channel_established_after_call_hop(self):
        """Regression: a persistent channel only flipped established
        after a *successful* call, so a retry after a remote-side
        failure double-paid the cold connection setup."""
        clock = VirtualClock()
        channel = make_channel(clock, persistent=True)

        def boom():
            raise ValueError("remote failed")

        with pytest.raises(ValueError):
            channel.invoke(boom)
        assert channel.established  # connection setup was paid
        start = clock.now
        channel.invoke(lambda: "ok")
        assert clock.now - start == pytest.approx(
            channel.warm_call_cost + channel.warm_return_cost
        )

    def test_dropped_hop_still_tears_down_persistent_connection(self):
        """A drop kills the connection itself: the next attempt must pay
        cold setup again (unlike a remote-side failure)."""
        clock = VirtualClock()
        channel = make_channel(clock, persistent=True)
        channel.invoke(lambda: "warm-up")
        assert channel.established
        injector = FaultInjector(enabled=True)
        injector.arm(SITE_RMI_UDTF, probability=1.0, count=1)
        channel.bind_faults(injector, SITE_RMI_UDTF, RetryPolicy(), DEFAULT_COSTS)
        with pytest.raises(RmiDroppedError):
            channel.invoke(lambda: "never")
        assert not channel.established


class TestFencedProcessFaults:
    def fenced_scenario(self, data):
        scenario = build_scenario(
            Architecture.ENHANCED_SQL_UDTF, data=data, config=EngineConfig(pooling=True)
        )
        return scenario, scenario.server

    def test_cold_fenced_death_aborts_statement(self, data):
        scenario, server = self.fenced_scenario(data)
        server.configure_faults(
            enabled=True, sites={SITE_FENCED_PROCESS: (1.0, 1)}
        )
        with pytest.raises(StatementAbortedError, match=SITE_FENCED_PROCESS):
            server.call(ANCHOR, *call_args(ANCHOR))
        assert server.machine.runtime_pool.fault_evictions >= 1

    def test_warm_fenced_death_degrades_to_cold_restart(self, data):
        scenario, server = self.fenced_scenario(data)
        args = call_args(ANCHOR)
        baseline = server.call(ANCHOR, *args)  # populate warm slots
        server.configure_faults(
            enabled=True, sites={SITE_FENCED_PROCESS: (1.0, 1)}
        )
        # The warm slot dies, is evicted, and the hand-over is retried
        # against a freshly fenced (cold) process: the call completes.
        assert server.call(ANCHOR, *args) == baseline
        assert server.machine.runtime_pool.fault_evictions == 1

    def test_warm_fenced_double_death_aborts(self, data):
        scenario, server = self.fenced_scenario(data)
        args = call_args(ANCHOR)
        server.call(ANCHOR, *args)
        server.configure_faults(
            enabled=True, sites={SITE_FENCED_PROCESS: (1.0, 2)}
        )
        with pytest.raises(StatementAbortedError, match="died again"):
            server.call(ANCHOR, *args)


class TestRobustnessAsymmetry:
    """The paper's central claim, as a fast tier-1 check: the same fault
    at the local-function site is absorbed by the WfMS architecture
    (forward recovery from the input container) but aborts the UDTF
    architecture's statement."""

    def test_wfms_forward_recovery_completes_the_call(self, data):
        scenario = build_scenario(Architecture.WFMS, data=data)
        server = scenario.server
        args = call_args(ANCHOR)
        baseline = server.call(ANCHOR, *args)
        _, fault_free = server.elapsed(server.call, ANCHOR, *args)
        server.configure_faults(
            enabled=True,
            sites={SITE_ACTIVITY_PROGRAM: (1.0, 1)},
            forward_recovery=True,
        )
        rows, elapsed = server.elapsed(server.call, ANCHOR, *args)
        assert rows == baseline  # recovery may change time, never answers
        assert elapsed > fault_free  # detection + restart are not free
        events = [e.event for e in server.wfms_client.engine.audit.events]
        assert "activity crashed (injected)" in events
        assert "forward recovery" in events
        assert "activity recovered" in events

    def test_udtf_aborts_on_the_same_fault(self, data):
        scenario = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=data)
        server = scenario.server
        args = call_args(ANCHOR)
        server.call(ANCHOR, *args)
        server.configure_faults(
            enabled=True,
            sites={SITE_LOCAL_FUNCTION: (1.0, 1)},
            retry_attempts=2,
            forward_recovery=True,  # irrelevant: no navigator to use it
        )
        with pytest.raises(StatementAbortedError, match=SITE_LOCAL_FUNCTION):
            server.call(ANCHOR, *args)

    def test_wfms_survives_local_function_fault_via_retry(self, data):
        scenario = build_scenario(Architecture.WFMS, data=data)
        server = scenario.server
        args = call_args(ANCHOR)
        baseline = server.call(ANCHOR, *args)
        server.configure_faults(
            enabled=True,
            sites={SITE_LOCAL_FUNCTION: (1.0, 1)},
            retry_attempts=2,
            forward_recovery=True,
        )
        assert server.call(ANCHOR, *args) == baseline

    def test_runtime_stats_surface_fault_counters(self, data):
        scenario = build_scenario(Architecture.WFMS, data=data)
        server = scenario.server
        server.configure_faults(
            enabled=True, seed=99, sites={SITE_RMI_WFMS: 0.0}
        )
        stats = server.machine.runtime_stats()["faults"]
        assert stats["enabled"] == 1
        assert stats[f"injected[{SITE_RMI_WFMS}]"] == 0
        assert "retry_active" in stats
        assert "forward_recovery" in stats
