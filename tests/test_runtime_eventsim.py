"""Vectorized event-sim kernel: field-for-field equivalence with the
scalar :class:`~repro.sim.DPMSimulator` event loop.

The contract mirrors the batched slotted engine's: the fast path must be
indistinguishable from the reference semantics.  Every eligible baseline
policy is pinned against the scalar loop on shared traces across device
presets (rel tol <= 1e-9 on every :class:`~repro.sim.SimReport` field,
identical residency key sets), and stateful policies must fall back to
the scalar loop with identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AdaptiveTimeout,
    AlwaysOn,
    FixedTimeout,
    GreedySleep,
    MultiLevelTimeout,
    OracleShutdown,
    PredictiveShutdown,
)
from repro.device import PowerState, PowerStateMachine, Transition, get_preset
from repro.sim import BatchIdleContext, DPMSimulator, resolve_demands
from repro.runtime import run_vectorized, simulate_trace
from repro.workload import Exponential, Pareto, Trace, renewal_trace

#: presets the equivalence matrix runs over (>= 3, different wait-state
#: shapes: mobile_hdd/abstract3 park in a free idle state, two_state and
#: wlan park at home because their shallow trips cost energy/latency)
PRESETS = ("mobile_hdd", "abstract3", "two_state", "wlan")

FIELDS = (
    "duration", "total_energy", "mean_power", "energy_saving_ratio",
    "n_requests", "mean_latency", "p95_latency", "max_latency",
    "n_shutdowns", "n_wrong_shutdowns", "n_idle_periods",
    "mean_idle_length",
)


def assert_reports_match(ref, fast, rel=1e-9):
    """Field-for-field SimReport comparison (ints exact, floats tight)."""
    for name in FIELDS:
        a, b = getattr(ref, name), getattr(fast, name)
        if isinstance(a, int):
            assert a == b, f"{name}: {a} != {b}"
        else:
            assert b == pytest.approx(a, rel=rel, abs=1e-12), name
    assert set(ref.state_residency) == set(fast.state_residency)
    for key, a in ref.state_residency.items():
        assert fast.state_residency[key] == pytest.approx(a, rel=rel, abs=1e-12), key


def run_both(device_name, policy_factory, trace, oracle=False,
             service_time=0.4):
    """Scalar and vectorized reports for the same cell (fresh objects
    each, so neither run can contaminate the other)."""
    ref = DPMSimulator(
        get_preset(device_name), policy_factory(),
        service_time=service_time, oracle=oracle,
    ).run(trace)
    fast = run_vectorized(
        get_preset(device_name), policy_factory(), trace,
        service_time=service_time, oracle=oracle,
    )
    return ref, fast


ELIGIBLE = [
    ("always_on", AlwaysOn, False),
    ("greedy", GreedySleep, False),
    ("timeout_break_even", FixedTimeout, False),
    ("timeout_short", lambda: FixedTimeout(1.5), False),
    ("oracle", OracleShutdown, True),
]


class TestEligibleEquivalence:
    @pytest.mark.parametrize("device_name", PRESETS)
    @pytest.mark.parametrize(
        "policy_factory,oracle", [(f, o) for _, f, o in ELIGIBLE],
        ids=[name for name, _, _ in ELIGIBLE],
    )
    def test_exponential_trace(self, device_name, policy_factory, oracle, rng):
        trace = renewal_trace(Exponential(0.05), 3_000.0, rng)
        ref, fast = run_both(device_name, policy_factory, trace, oracle)
        assert fast is not None, "eligible cell unexpectedly fell back"
        assert_reports_match(ref, fast)

    @pytest.mark.parametrize("device_name", ("mobile_hdd", "wlan"))
    @pytest.mark.parametrize(
        "policy_factory,oracle", [(f, o) for _, f, o in ELIGIBLE],
        ids=[name for name, _, _ in ELIGIBLE],
    )
    def test_heavy_tailed_trace(self, device_name, policy_factory, oracle, rng):
        trace = renewal_trace(Pareto(1.6, 6.0), 3_000.0, rng)
        ref, fast = run_both(device_name, policy_factory, trace, oracle)
        assert fast is not None
        assert_reports_match(ref, fast)

    def test_per_request_demands(self, rng):
        base = renewal_trace(Exponential(0.1), 1_500.0, rng)
        demands = rng.uniform(0.0, 1.2, size=len(base))  # zeros fall back
        trace = Trace(base.arrival_times, duration=1_500.0,
                      service_demands=demands)
        for factory, oracle in ((FixedTimeout, False), (OracleShutdown, True)):
            ref, fast = run_both("mobile_hdd", factory, trace, oracle)
            assert fast is not None
            assert_reports_match(ref, fast)

    def test_saturated_trace_single_busy_period(self, rng):
        """Queueing regime: arrivals outrun service, gaps never open."""
        trace = renewal_trace(Exponential(5.0), 200.0, rng)
        ref, fast = run_both("mobile_hdd", FixedTimeout, trace)
        assert fast is not None
        assert fast.n_idle_periods == ref.n_idle_periods
        assert_reports_match(ref, fast)

    def test_multilevel_first_stage(self, rng):
        trace = renewal_trace(Exponential(0.05), 2_000.0, rng)
        factory = lambda: MultiLevelTimeout([(2.0, "standby")])
        ref, fast = run_both("mobile_hdd", factory, trace)
        assert fast is not None
        assert_reports_match(ref, fast)


class TestEdgeCases:
    """Tie-breaking and boundary semantics, on integral (exactly
    representable) times so both engines resolve ties identically."""

    def test_empty_trace(self):
        trace = Trace([], duration=50.0)
        for factory, oracle in ((GreedySleep, False), (FixedTimeout, False),
                                (OracleShutdown, True), (AlwaysOn, False)):
            ref, fast = run_both("mobile_hdd", factory, trace, oracle)
            assert fast is not None
            assert_reports_match(ref, fast)

    def test_arrival_at_time_zero(self):
        """t=0 arrival lands after begin_idle(0): greedy still counts a
        (wrong) shutdown on the zero-length first gap."""
        trace = Trace([0.0, 0.0, 8.0], duration=30.0)
        ref, fast = run_both("mobile_hdd", GreedySleep, trace)
        assert fast is not None
        assert ref.n_shutdowns == fast.n_shutdowns
        assert ref.n_wrong_shutdowns == fast.n_wrong_shutdowns
        assert_reports_match(ref, fast)

    def test_timeout_tieing_with_arrival_never_fires(self):
        """TIMEOUT and ARRIVAL at the same instant: the arrival wins the
        tie-break, so no shutdown happens (integral times, exact)."""
        trace = Trace([2.0, 10.0], duration=12.0)
        # idle starts at 2 + 3 = 5; timeout 5 -> fires exactly at 10;
        # the trailing gap's timeout (13 + 5) is beyond the window too
        factory = lambda: FixedTimeout(5.0, "off")
        ref, fast = run_both("two_state", factory, trace, service_time=3.0)
        assert fast is not None
        assert ref.n_shutdowns == fast.n_shutdowns == 0
        # one second earlier the timeout beats the arrival
        early = lambda: FixedTimeout(4.0, "off")
        ref, fast = run_both("two_state", early, trace, service_time=3.0)
        assert fast is not None
        assert ref.n_shutdowns == fast.n_shutdowns == 1
        assert_reports_match(ref, fast)

    def test_trailing_timeout_beyond_window_is_dropped(self):
        """A TIMEOUT scheduled at/after the trace duration never fires,
        but a zero-timeout (inline) shutdown still does."""
        trace = Trace([1.0], duration=4.0)
        # idle restarts at 2; timeout 2 -> event at exactly 4 = duration
        factory = lambda: FixedTimeout(2.0, "standby")
        ref, fast = run_both("mobile_hdd", factory, trace, service_time=1.0)
        assert fast is not None
        assert ref.n_shutdowns == fast.n_shutdowns == 0
        assert_reports_match(ref, fast)
        ref, fast = run_both("mobile_hdd", GreedySleep, trace, service_time=1.0)
        assert ref.n_shutdowns == fast.n_shutdowns == 2  # inline: no check
        assert_reports_match(ref, fast)

    def test_final_down_transition_extends_duration(self):
        """A trailing shutdown whose down transition out-lives the window
        stretches the reported duration past it on both paths."""
        trace = Trace([9.0], duration=10.0)
        ref, fast = run_both("mobile_hdd", GreedySleep, trace, service_time=0.5)
        assert fast is not None
        assert ref.duration > 10.0
        assert_reports_match(ref, fast)

    def test_wake_during_down_transition(self):
        """Arrival mid-down-flight: the device completes the descent,
        then wakes — both paths charge the full round trip."""
        trace = Trace([6.0, 6.2], duration=20.0)  # standby fall takes 0.67
        factory = lambda: FixedTimeout(0.5, "standby")
        ref, fast = run_both("mobile_hdd", factory, trace, service_time=0.3)
        assert fast is not None
        assert ref.n_shutdowns >= 1
        assert_reports_match(ref, fast)


class TestFallback:
    def test_stateful_policies_decline_batch(self, rng):
        trace = renewal_trace(Exponential(0.05), 1_000.0, rng)
        for factory in (lambda: AdaptiveTimeout(initial_timeout=2.0),
                        lambda: PredictiveShutdown(smoothing=0.5)):
            assert run_vectorized(
                get_preset("mobile_hdd"), factory(), trace, service_time=0.4
            ) is None

    def test_simulate_trace_falls_back_with_identical_results(self, rng):
        """simulate_trace on a stateful policy IS the scalar loop."""
        trace = renewal_trace(Exponential(0.05), 1_000.0, rng)
        for factory in (lambda: AdaptiveTimeout(initial_timeout=2.0),
                        lambda: PredictiveShutdown(smoothing=0.5)):
            ref = DPMSimulator(
                get_preset("mobile_hdd"), factory(), service_time=0.4
            ).run(trace)
            fast = simulate_trace(
                get_preset("mobile_hdd"), factory(), trace, service_time=0.4
            )
            assert fast == ref  # same code path: exact dataclass equality

    def test_simulate_trace_uses_kernel_when_eligible(self, rng):
        trace = renewal_trace(Exponential(0.05), 1_000.0, rng)
        report = simulate_trace(
            get_preset("mobile_hdd"), FixedTimeout(), trace, service_time=0.4
        )
        ref = DPMSimulator(
            get_preset("mobile_hdd"), FixedTimeout(), service_time=0.4
        ).run(trace)
        assert_reports_match(ref, report)

    def test_invalid_service_time_raises_like_simulator(self):
        with pytest.raises(ValueError):
            run_vectorized(
                get_preset("mobile_hdd"), FixedTimeout(), Trace([1.0]),
                service_time=0.0,
            )


class TestKernelInternals:
    def test_resolve_demands_defaults_and_zero_fallback(self):
        trace = Trace([1.0, 2.0, 3.0], duration=5.0,
                      service_demands=[0.5, 0.0, 2.0])
        np.testing.assert_allclose(
            resolve_demands(trace, 0.7), [0.5, 0.7, 2.0]
        )
        bare = Trace([1.0, 2.0], duration=5.0)
        np.testing.assert_allclose(resolve_demands(bare, 0.7), [0.7, 0.7])

    def test_decide_batch_matches_on_idle_for_oracle(self, rng):
        """The oracle's batched decisions replicate per-gap on_idle."""
        device = get_preset("mobile_hdd")
        policy = OracleShutdown()
        gap_starts = np.array([0.0, 10.0, 25.0, 40.0])
        next_arrivals = np.array([4.0, 11.0, 39.0, np.nan])
        batch = policy.decide_batch(BatchIdleContext(
            gap_starts=gap_starts, next_arrivals=next_arrivals,
            device=device, wait_state="idle",
        ))
        from repro.sim import IdleContext
        names = device.state_names
        for i in range(gap_starts.size):
            nxt = None if np.isnan(next_arrivals[i]) else float(next_arrivals[i])
            scalar = policy.on_idle(IdleContext(
                now=float(gap_starts[i]), device=device,
                wait_state="idle", next_arrival=nxt,
            ))
            expect_idx = -1 if scalar.target_state is None else names.index(
                scalar.target_state
            )
            assert batch.target_idx[i] == expect_idx
            assert batch.timeouts[i] == scalar.timeout

    def test_wake_delay_cascade_converges(self):
        """Chained gaps where each wake delay shifts the next gap's
        decision: the fixpoint must settle on scalar semantics."""
        # two_state: down 0.5s, up 1.5s; timeout 8 on gaps ~8-10 long
        arrivals = [10.0, 20.0, 30.0, 40.0, 50.0]
        trace = Trace(arrivals, duration=60.0)
        factory = lambda: FixedTimeout(8.0, "off")
        ref, fast = run_both("two_state", factory, trace, service_time=1.0)
        assert fast is not None
        assert_reports_match(ref, fast)


class TestDispatcherDegenerates:
    """Shapes the fleet dispatcher routinely produces: empty sub-traces
    (a device that got no requests but still owns the whole window),
    single-request sub-traces, and the all-requests-to-one-device skew
    of a consolidating router.  Field-for-field vs the scalar loop."""

    DEGENERATE_POLICIES = (
        (AlwaysOn, False), (GreedySleep, False), (FixedTimeout, False),
        (OracleShutdown, True),
    )

    @pytest.mark.parametrize("device_name", PRESETS)
    def test_empty_subtrace_long_window(self, device_name):
        """A starved device: zero requests over a long window (greedy
        parks it immediately; the report is one trailing idle period)."""
        trace = Trace([], duration=5_000.0)
        for factory, oracle in self.DEGENERATE_POLICIES:
            ref, fast = run_both(device_name, factory, trace, oracle)
            assert fast is not None
            assert fast.n_requests == 0
            assert fast.n_idle_periods == 1
            assert_reports_match(ref, fast)

    @pytest.mark.parametrize("device_name", PRESETS)
    def test_single_request_subtrace(self, device_name):
        """One request mid-window: a leading gap, one service, and a
        trailing gap."""
        trace = Trace([100.0], duration=2_000.0)
        for factory, oracle in self.DEGENERATE_POLICIES:
            ref, fast = run_both(device_name, factory, trace, oracle)
            assert fast is not None
            assert fast.n_requests == 1
            assert_reports_match(ref, fast)

    def test_all_requests_to_one_device_skew(self, rng):
        """A consolidating router's worst case: one device gets the whole
        stream, its siblings get nothing — both extremes must match the
        scalar loop on the same shared window."""
        trace = renewal_trace(Exponential(0.8), 1_500.0, rng)
        assignments = np.zeros(len(trace), dtype=np.int64)
        subs = trace.split(assignments, n_parts=4)
        assert [len(s) for s in subs] == [len(trace), 0, 0, 0]
        for sub in (subs[0], subs[1]):
            for factory, oracle in self.DEGENERATE_POLICIES:
                ref, fast = run_both("mobile_hdd", factory, sub, oracle)
                assert fast is not None
                assert_reports_match(ref, fast)
