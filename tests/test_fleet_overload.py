"""Overload-resilient routing: brownouts, breakers, budgets, deadlines.

Three contracts under test.  First, **agreement with the replay**: the
fault-aware loop (:func:`~repro.fleet.route_with_overload`) must give
the outcome of the independent per-request replay of
``test_fleet_overload_replay`` on every router, preset, and degradation
scenario — fail-stop outages, brownouts (finite severity: the device
serves, but slowly), whole-fleet blackouts, and retry-budget
exhaustion.  Second,
**reduction**: with breakers, budget, and deadlines disabled the loop
reproduces the recorded failover-only outcomes bit for bit (pinned by
digest), and with no faults and no pressure it reproduces plain routing
choice for choice.  Third, the **semantics** of each
mechanism in isolation: breaker trip/half-open/reprobe transitions,
token-bucket exhaustion and refill, deadline-aware admission, and the
conservation law dispatched + dropped + shed == offered.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import AlwaysOn, FixedTimeout
from repro.device import get_preset
from repro.fleet import (
    ROUTERS,
    BreakerConfig,
    Dispatcher,
    FailoverConfig,
    FleetSweepRunner,
    FleetSweepSpec,
    OverloadConfig,
    RetryBudgetConfig,
    SHED_BUDGET,
    SHED_DEADLINE,
    make_router,
    route_with_overload,
    run_fleet,
)
from repro.fleet.dispatch import PowerAwareRouter, RouteContext
from repro.runtime import PolicySpec, TraceSpec
from repro.workload import (
    Exponential,
    FaultProcess,
    FaultSchedule,
    Trace,
    no_faults,
    renewal_trace,
)

from test_fleet_faults import outcome_digest
from test_fleet_overload_replay import ROUTE_SEED, ReplayRouter, replay
from test_fleet_sweep import assert_fleet_reports_match, engine_pairs

PRESETS = ("mobile_hdd", "wlan")

#: the full-degradation config the pinning matrix runs under: breakers
#: trip fast, the budget is tight, and deadlines bite — every code path
#: of the loop is exercised, not just the happy one
FULL_CONFIG = OverloadConfig(
    failover=FailoverConfig(max_retries=3, backoff_base=0.25,
                            backoff_cap=2.0),
    breaker=BreakerConfig(failure_threshold=2, recovery_time=5.0,
                          latency_threshold=3.0),
    retry_budget=RetryBudgetConfig(capacity=8.0, refill_rate=0.5),
    slo=6.0,
)


def make_context(trace, n_devices, device_name="mobile_hdd", seed=0,
                 service_time=0.4):
    demands = trace.service_demands
    if demands is None:
        demands = np.full(len(trace), service_time)
    return RouteContext(
        arrivals=trace.arrival_times,
        demands=demands,
        n_devices=n_devices,
        device=get_preset(device_name),
        rng=np.random.default_rng(seed),
    )


def overload_scenarios(n_devices, horizon, seed=5):
    """The degradation battery every pinning test runs: a fail-stop
    exponential process, a brownout process (finite severity — devices
    degrade instead of stopping), a mixed schedule with brownout *and*
    outage intervals on the same device, a whole-fleet blackout, and a
    fail-stop storm dense enough to exhaust the retry budget."""
    scenarios = {
        "fail_stop": FaultProcess(mtbf=40.0, mttr=6.0).realize(
            n_devices, horizon, seed=seed
        ),
        "brownout": FaultProcess(mtbf=30.0, mttr=10.0, severity=4.0).realize(
            n_devices, horizon, seed=seed
        ),
        "mixed": FaultSchedule(
            [[(horizon * 0.1, horizon * 0.3, 3.0),
              (horizon * 0.5, horizon * 0.6)]]
            + [[] for _ in range(n_devices - 1)],
            horizon,
        ),
        "budget_storm": FaultProcess(mtbf=10.0, mttr=8.0).realize(
            n_devices, horizon, seed=seed + 1
        ),
    }
    if n_devices > 1:
        scenarios["blackout"] = FaultSchedule(
            [[(horizon * 0.3, horizon * 0.5)] for _ in range(n_devices)],
            horizon,
        )
    return scenarios


# --------------------------------------------------------------------- #
# config validation
# --------------------------------------------------------------------- #


class TestConfigs:
    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"recovery_time": 0.0},
        {"recovery_time": -1.0},
        {"half_open_successes": 0},
        {"latency_threshold": 0.0},
        {"latency_threshold": float("nan")},
    ])
    def test_invalid_breaker_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"capacity": -1.0},
        {"capacity": float("nan")},
        {"refill_rate": -0.5},
        {"refill_rate": float("inf")},
    ])
    def test_invalid_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryBudgetConfig(**kwargs)

    @pytest.mark.parametrize("cls, kwargs", [
        (FailoverConfig, {"max_retries": 2.5}),
        (FailoverConfig, {"max_retries": float("inf")}),
        (BreakerConfig, {"failure_threshold": 2.5}),
        (BreakerConfig, {"failure_threshold": float("inf")}),
        (BreakerConfig, {"half_open_successes": 1.5}),
    ], ids=["retries-2.5", "retries-inf", "threshold-2.5", "threshold-inf",
            "half-open-1.5"])
    def test_fractional_counts_rejected(self, cls, kwargs):
        """The loop compares integer counters against these caps with
        ``==`` / ``>=``: a fractional ``max_retries`` never equals the
        retry count, so the cap would silently switch off."""
        with pytest.raises(ValueError, match="integer"):
            cls(**kwargs)

    def test_integral_counts_accepted_and_cap_binds(self):
        """Whole-valued counts of any numeric type are accepted, and the
        retry cap binds: one device down over [0, 90) drops all three
        requests after exactly two retries."""
        assert BreakerConfig(failure_threshold=np.int64(2),
                             half_open_successes=2.0).failure_threshold == 2
        trace = Trace([1.0, 2.0, 3.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 90.0)]], 100.0)
        for max_retries in (2, 2.0, np.int64(2)):
            out = route_with_overload(
                make_router("round_robin"), make_context(trace, 1), faults,
                OverloadConfig(failover=FailoverConfig(
                    max_retries=max_retries)),
            )
            assert out.assignments.tolist() == [-1, -1, -1]
            assert out.retries.tolist() == [2, 2, 2]

    def test_invalid_overload_rejected(self):
        with pytest.raises(TypeError):
            OverloadConfig(failover={"policy": "next_best"})
        with pytest.raises(TypeError):
            OverloadConfig(breaker={"failure_threshold": 2})
        with pytest.raises(TypeError):
            OverloadConfig(retry_budget=8.0)
        for slo in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError):
                OverloadConfig(slo=slo)

    def test_backoff_shape_unchecked_when_retries_disabled(self):
        """Satellite: max_retries=0 means no backoff ever fires, so an
        inverted cap/base pair must be accepted there — and only there."""
        cfg = FailoverConfig(max_retries=0, backoff_base=0.5,
                             backoff_cap=0.1)
        assert cfg.max_retries == 0
        with pytest.raises(ValueError, match="backoff_cap"):
            FailoverConfig(max_retries=1, backoff_base=0.5, backoff_cap=0.1)

    def test_max_retries_zero_is_first_failure_drop(self):
        """With retries disabled the first dead pick drops the request
        at its arrival instant — no backoff delay, no budget draw."""
        trace = Trace([1.0, 2.0], duration=10.0)
        faults = FaultSchedule([[(0.0, 10.0)], []], 10.0)
        config = OverloadConfig(
            failover=FailoverConfig(max_retries=0, backoff_base=0.5,
                                    backoff_cap=0.1),
            retry_budget=RetryBudgetConfig(capacity=100.0),
        )
        out = route_with_overload(make_router("round_robin"),
                                  make_context(trace, 2), faults, config)
        # round_robin: request 0 picks dead device 0 and drops on the
        # spot; request 1 picks device 1 and lands
        assert out.assignments.tolist() == [-1, 1]
        assert out.dispatch_times.tolist() == [1.0, 2.0]
        assert out.n_retries == 0
        assert out.n_shed == 0


# --------------------------------------------------------------------- #
# reduction: disabled features change nothing
# --------------------------------------------------------------------- #


#: sha256 over the little-endian bytes of ``assignments``,
#: ``dispatch_times`` and ``retries`` (in that order), recorded from the
#: dedicated failover engine before it was folded into the fault-aware
#: loop, on the inputs of :class:`TestReductionToFailover`; the resubmit
#: cases of jsq and power_aware drop requests, every case retries
REDUCTION_DIGESTS = {
    ("jsq", "next_best"):
        "cb229b033338ef249ef7d2d2ec286c50042705f0eb9031de606b734f9aa87268",
    ("jsq", "resubmit"):
        "e97cf58908b06c26b374182447244264580620b5092333b8860304b8ace8e616",
    ("power_aware", "next_best"):
        "a94e3b2cd62248e99a3ab45f7266f6185a794d9844a8434b330002db89772e53",
    ("power_aware", "resubmit"):
        "f4a02d0da8069fb3e00fe32cadd7fffe6860265258673fd8a90234cc177958b5",
    ("random", "next_best"):
        "ad056d6d5d8072168e0f560eaa16dbeeeb8e4989d59f95639d4ca0785cee76c1",
    ("random", "resubmit"):
        "051615b76b0ac06e832aaee08665b9ec256834b586ad2696ceb0b619618224f9",
    ("round_robin", "next_best"):
        "721bd06e49d2001fbc8f8f24a9744d0adf81a7f1395daf01169265d4d7f2fd60",
    ("round_robin", "resubmit"):
        "ac082695754bee58af74d3a50143a0ab138f11278a40fd287c2180f7711cb998",
}


class TestReductionToFailover:
    """OverloadConfig with breakers, budget, and deadlines all None must
    reproduce failover-only routing bit for bit on fail-stop schedules —
    severity is exactly 1.0 on live devices and ``x * 1.0 == x``.  The
    reference outcomes are the recorded digests of the failover engine
    this loop replaced; with no faults and no pressure the loop makes
    plain routing's choices."""

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    @pytest.mark.parametrize("policy", ("next_best", "resubmit"))
    def test_bit_identical_to_failover(self, name, policy, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        router = make_router(name)
        failover = FailoverConfig(policy=policy, max_retries=3,
                                  backoff_base=0.25, backoff_cap=2.0)
        faults = FaultProcess(mtbf=40.0, mttr=6.0).realize(
            4, trace.duration, seed=5)
        out = route_with_overload(
            router, make_context(trace, 4, seed=9), faults,
            OverloadConfig(failover=failover),
        )
        assert out.n_retries > 0
        assert outcome_digest(out) == REDUCTION_DIGESTS[(name, policy)]
        assert out.n_shed == 0
        assert out.n_breaker_trips == 0
        assert np.all(out.deadlines == math.inf)

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_no_fault_schedule_reproduces_plain_routing(self, name, rng):
        trace = renewal_trace(Exponential(0.8), 200.0, rng)
        router = make_router(name)
        plain = router.route(make_context(trace, 4, seed=9))
        out = route_with_overload(
            router, make_context(trace, 4, seed=9),
            no_faults(4, trace.duration), FULL_CONFIG,
        )
        # breakers see no failures and generous booked waits, the budget
        # is never drawn, and the 6s SLO is never at risk at this load:
        # every choice is the router's natural one
        assert np.array_equal(out.assignments, plain)
        assert out.n_shed == 0
        assert out.n_breaker_trips == 0


# --------------------------------------------------------------------- #
# agreement with the independent per-request replay
# --------------------------------------------------------------------- #


def assert_matches_replay(router, ctx, faults, config, label=""):
    """Route through the loop and through the independent replay of
    ``test_fleet_overload_replay``, fed the schedule's raw intervals;
    ``ctx`` must be seeded with ``ROUTE_SEED``, the replay's routing
    seed.  Every outcome field must agree exactly."""
    out = route_with_overload(router, ctx, faults, config)
    n = ctx.n_devices
    intervals = [
        [(start, end, sev) for (start, end), sev in
         zip(faults.intervals(d), faults.interval_severities(d))]
        for d in range(n)
    ]
    # window and max_queue of the default PowerAwareRouter
    want, trips = replay(
        ctx.arrivals, ctx.demands, n, intervals, config,
        ReplayRouter(router.name, n,
                     PowerAwareRouter().resolve_window(ctx.device), 4),
    )
    for key, values in want.items():
        assert np.array_equal(getattr(out, key), np.array(values),
                              equal_nan=True), (label, key)
    assert out.n_breaker_trips == trips, label


class TestReplayPinning:
    """The acceptance matrix: every router x preset x scenario, full
    degradation config, outcomes equal to the independent replay."""

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    @pytest.mark.parametrize("device_name", PRESETS)
    def test_pinned_across_scenarios(self, name, device_name, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        router = make_router(name)
        for label, faults in overload_scenarios(4, trace.duration).items():
            config = FULL_CONFIG
            if label == "budget_storm":
                config = OverloadConfig(
                    failover=FULL_CONFIG.failover,
                    breaker=FULL_CONFIG.breaker,
                    retry_budget=RetryBudgetConfig(capacity=2.0,
                                                   refill_rate=0.01),
                    slo=FULL_CONFIG.slo,
                )
            assert_matches_replay(
                router, make_context(trace, 4, device_name, seed=ROUTE_SEED),
                faults, config, f"{name}/{device_name}/{label}",
            )

    def test_budget_storm_actually_sheds(self, rng):
        """The budget_storm scenario must exercise the exhaustion path,
        or the matrix above pins dead code."""
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        faults = overload_scenarios(4, trace.duration)["budget_storm"]
        config = OverloadConfig(
            failover=FULL_CONFIG.failover,
            retry_budget=RetryBudgetConfig(capacity=2.0, refill_rate=0.01),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 4, seed=9),
            faults, config,
        )
        assert out.n_budget_shed > 0

    def test_brownout_scenario_inflates_demands(self, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        faults = overload_scenarios(4, trace.duration)["brownout"]
        out = route_with_overload(
            make_router("jsq"), make_context(trace, 4, seed=9), faults,
            OverloadConfig(),
        )
        inflated = out.effective_demands > np.full(len(trace), 0.4)
        assert inflated.any()
        # a browned-out device *serves* — no drops from slowness alone
        assert out.n_dropped == 0

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_pinned_single_device_fleet(self, name, rng):
        trace = renewal_trace(Exponential(0.5), 100.0, rng)
        faults = FaultSchedule(
            [[(10.0, 30.0), (50.0, 60.0, 5.0)]], trace.duration)
        assert_matches_replay(
            make_router(name), make_context(trace, 1, seed=ROUTE_SEED),
            faults, FULL_CONFIG,
        )

    def test_device_count_mismatch_raises(self, rng):
        trace = renewal_trace(Exponential(0.5), 50.0, rng)
        with pytest.raises(ValueError, match="covers 2 devices"):
            route_with_overload(make_router("jsq"), make_context(trace, 4),
                                no_faults(2, trace.duration))


# --------------------------------------------------------------------- #
# mechanism semantics
# --------------------------------------------------------------------- #


class TestBrownoutSemantics:
    def test_severity_multiplies_booked_demand(self):
        trace = Trace([1.0], duration=10.0, service_demands=[0.5])
        faults = FaultSchedule([[(0.0, 10.0, 3.0)]], 10.0)
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 1), faults,
            OverloadConfig(),
        )
        assert out.assignments.tolist() == [0]
        assert out.effective_demands.tolist() == [1.5]
        assert out.completions.tolist() == [1.0 + 1.5]

    def test_deadline_sees_inflated_cost(self):
        """The same request admits under an SLO the nominal demand
        meets, and sheds when the brownout inflates it past the line."""
        trace = Trace([1.0], duration=10.0, service_demands=[0.5])
        config = OverloadConfig(slo=1.0)
        healthy = route_with_overload(
            make_router("round_robin"), make_context(trace, 1),
            no_faults(1, 10.0), config,
        )
        assert healthy.assignments.tolist() == [0]
        browned = route_with_overload(
            make_router("round_robin"), make_context(trace, 1),
            FaultSchedule([[(0.0, 10.0, 3.0)]], 10.0), config,
        )
        assert browned.assignments.tolist() == [-2]
        assert browned.shed_reasons.tolist() == [SHED_DEADLINE]


class TestBreakerSemantics:
    def test_trips_after_consecutive_failures(self):
        """Three dead picks in a row trip device 0's breaker; the next
        natural decision is masked away from it with no retry needed."""
        trace = Trace([1.0, 2.0, 3.0, 4.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 50.0)], []], 100.0)
        config = OverloadConfig(
            failover=FailoverConfig(policy="resubmit", max_retries=3,
                                    backoff_base=0.25, backoff_cap=1.0),
            breaker=BreakerConfig(failure_threshold=3, recovery_time=40.0),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 2), faults,
            config,
        )
        assert out.n_breaker_trips == 1
        # once open, round_robin's masked decisions land straight on
        # device 1 — the retry tail vanishes
        assert out.retries[-1] == 0
        assert out.assignments[-1] == 1

    def test_half_open_reprobe_retrips_then_closes(self):
        """Open -> half-open at the recovery window; a failed reprobe
        re-trips immediately, a successful one closes the breaker."""
        trace = Trace([1.0, 5.0, 20.0, 25.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 15.0)], []], 100.0)
        config = OverloadConfig(
            failover=FailoverConfig(policy="resubmit", max_retries=1,
                                    backoff_base=0.5, backoff_cap=0.5),
            breaker=BreakerConfig(failure_threshold=1, recovery_time=3.0,
                                  half_open_successes=1),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 2), faults,
            config,
        )
        # t=1: dead pick trips the breaker (trip 1); the resubmit retry
        # re-picks device 0 while open and already half-probing is not
        # due, so the request drops or lands on 1 depending on the
        # cursor — what matters is the trip ledger:
        # t=5 > 1+3: half-open; device 0 still down -> reprobe fails,
        # re-trip (trip 2).  t=20 > 5+3: half-open again; device 0 is
        # repaired -> reprobe succeeds, breaker closes.  t=25: closed,
        # natural routing, no trip.
        assert out.n_breaker_trips >= 2
        assert out.assignments[2] == 0      # successful reprobe landed
        assert out.assignments[3] >= 0      # closed breaker routes freely

    def test_all_open_fleet_is_never_black_holed(self):
        """A single-device fleet whose breaker is open must still route
        (the mask is dropped) — breakers bound blast radius, they do not
        turn the fleet into a black hole."""
        trace = Trace([1.0, 2.0, 10.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 5.0)]], 100.0)
        config = OverloadConfig(
            failover=FailoverConfig(max_retries=0),
            breaker=BreakerConfig(failure_threshold=1, recovery_time=50.0),
        )
        out = route_with_overload(
            make_router("jsq"), make_context(trace, 1), faults, config,
        )
        # requests 0 and 1 drop (device down, no retries) and trip/hold
        # the breaker; request 2 arrives after repair and must land even
        # though the breaker is still open
        assert out.assignments.tolist() == [-1, -1, 0]

    def test_latency_threshold_counts_as_failure(self):
        """No faults at all: a deep backlog alone pushes booked waits
        past the latency threshold and trips the breaker."""
        trace = Trace([0.0, 0.1, 0.2, 0.3, 0.4], duration=100.0,
                      service_demands=[5.0] * 5)
        config = OverloadConfig(
            breaker=BreakerConfig(failure_threshold=2, recovery_time=10.0,
                                  latency_threshold=2.0),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 1),
            no_faults(1, 100.0), config,
        )
        assert out.n_breaker_trips > 0
        assert (out.assignments >= 0).all()  # they still land (1 device)


class TestRetryBudgetSemantics:
    def test_exhaustion_sheds_instead_of_retrying(self):
        """Capacity 2, no refill, whole-fleet blackout: the first
        request burns both tokens, every later request sheds on its
        first would-be retry."""
        trace = Trace([1.0, 2.0, 3.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 90.0)], [(0.0, 90.0)]], 100.0)
        config = OverloadConfig(
            failover=FailoverConfig(max_retries=5, backoff_base=0.5,
                                    backoff_cap=0.5),
            retry_budget=RetryBudgetConfig(capacity=2.0, refill_rate=0.0),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 2), faults,
            config,
        )
        assert out.assignments.tolist() == [-2, -2, -2]
        assert out.retries.tolist() == [2, 0, 0]
        assert out.shed_reasons.tolist() == [SHED_BUDGET] * 3
        assert out.n_budget_shed == 3

    def test_refill_restores_tokens(self):
        """Same blackout, but the bucket refills at 1 token/s: a request
        arriving 10 s later has tokens to retry with again."""
        trace = Trace([1.0, 20.0], duration=200.0)
        faults = FaultSchedule([[(0.0, 190.0)], [(0.0, 190.0)]], 200.0)
        config = OverloadConfig(
            failover=FailoverConfig(max_retries=2, backoff_base=0.5,
                                    backoff_cap=0.5),
            retry_budget=RetryBudgetConfig(capacity=2.0, refill_rate=1.0),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 2), faults,
            config,
        )
        # request 0 burns both tokens then exhausts max_retries (drop);
        # request 1 finds a refilled bucket and does the same
        assert out.assignments.tolist() == [-1, -1]
        assert out.retries.tolist() == [2, 2]
        assert out.n_budget_shed == 0

    def test_zero_capacity_sheds_first_retry(self):
        trace = Trace([1.0], duration=10.0)
        faults = FaultSchedule([[(0.0, 9.0)], [(0.0, 9.0)]], 10.0)
        config = OverloadConfig(
            retry_budget=RetryBudgetConfig(capacity=0.0, refill_rate=0.0),
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 2), faults,
            config,
        )
        assert out.assignments.tolist() == [-2]
        assert out.retries.tolist() == [0]


class TestDeadlineSemantics:
    def test_backlog_miss_sheds_without_any_fault(self):
        """Admission control is load-aware, not just fault-aware: a deep
        enough backlog alone sheds the request."""
        trace = Trace([0.0, 0.1, 0.2], duration=100.0,
                      service_demands=[5.0, 5.0, 5.0])
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 1),
            no_faults(1, 100.0), OverloadConfig(slo=6.0),
        )
        # request 0 books [0, 5] (fits); request 1 would finish at 10.0
        # > 5.1; request 2 at 10.2's view still 5.0+5.0 > 6.2
        assert out.assignments.tolist() == [0, -2, -2]
        assert out.shed_reasons.tolist() == [0, SHED_DEADLINE, SHED_DEADLINE]

    def test_retry_past_deadline_sheds(self):
        trace = Trace([1.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 50.0)], [(0.0, 50.0)]], 100.0)
        config = OverloadConfig(
            failover=FailoverConfig(max_retries=5, backoff_base=2.0,
                                    backoff_cap=2.0),
            slo=1.5,
        )
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 2), faults,
            config,
        )
        # the first backoff (to t=3.0) already passes deadline 2.5
        assert out.assignments.tolist() == [-2]
        assert out.shed_reasons.tolist() == [SHED_DEADLINE]
        assert out.retries.tolist() == [1]

    def test_goodput_and_slo_attainment(self):
        trace = Trace([0.0, 0.1, 0.2, 50.0], duration=100.0,
                      service_demands=[5.0, 5.0, 5.0, 1.0])
        out = route_with_overload(
            make_router("round_robin"), make_context(trace, 1),
            no_faults(1, 100.0), OverloadConfig(slo=6.0),
        )
        # 2 of 4 land (requests 0 and 3), both within deadline
        assert out.n_shed == 2
        assert out.goodput == pytest.approx(0.5)
        assert out.slo_attainment == pytest.approx(1.0)
        assert out.goodput <= (out.landed.sum() / 4.0)


class TestConservation:
    """dispatched + dropped + shed == offered, on every outcome."""

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_every_request_accounted(self, name, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        for label, faults in overload_scenarios(3, trace.duration).items():
            out = route_with_overload(
                make_router(name), make_context(trace, 3, seed=7),
                faults, FULL_CONFIG,
            )
            landed = int(out.landed.sum())
            assert landed + out.n_dropped + out.n_shed == len(trace), label
            assert out.goodput <= landed / len(trace) + 1e-12, label


# --------------------------------------------------------------------- #
# fleet engines and sweep integration
# --------------------------------------------------------------------- #


class TestFleetEnginesUnderOverload:
    KWARGS = dict(
        service_time=0.4, route_seed=21,
        faults=FaultProcess(mtbf=40.0, mttr=8.0, severity=4.0),
        fault_seed=77,
        overload=OverloadConfig(
            failover=FailoverConfig(max_retries=3),
            breaker=BreakerConfig(failure_threshold=2, recovery_time=5.0,
                                  latency_threshold=2.0),
            retry_budget=RetryBudgetConfig(capacity=6.0, refill_rate=0.2),
            slo=3.0,
        ),
    )
    OVERLOAD_FIELDS = ("availability", "n_retries", "n_dropped", "n_shed",
                       "n_budget_shed", "n_breaker_trips", "n_offered")

    @pytest.mark.parametrize("engine", ("auto", "batch"))
    @pytest.mark.parametrize("router_name", ("jsq", "round_robin", "random"))
    def test_engines_pinned_under_overload(self, engine, router_name, rng):
        trace = renewal_trace(Exponential(0.8), 400.0, rng)
        for ref, fast in engine_pairs(
            engine, get_preset("mobile_hdd"), FixedTimeout, trace,
            router_name, 4, **self.KWARGS,
        ):
            assert_fleet_reports_match(ref, fast)
            for field in self.OVERLOAD_FIELDS:
                assert getattr(ref, field) == getattr(fast, field), field
            for field in ("goodput", "slo_attainment"):
                assert getattr(fast, field) == pytest.approx(
                    getattr(ref, field), rel=1e-12), field

    def test_report_conserves_and_bounds_goodput(self, rng):
        trace = renewal_trace(Exponential(0.8), 400.0, rng)
        report = run_fleet(get_preset("mobile_hdd"), AlwaysOn(), trace,
                           make_router("jsq"), 3, **self.KWARGS)
        assert report.n_offered == len(trace)
        assert (report.n_requests + report.n_dropped + report.n_shed
                == report.n_offered)
        assert report.goodput <= report.n_requests / report.n_offered + 1e-12
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_brownout_schedule_auto_upgrades_failover_path(self, rng):
        """A brownout schedule under a failover-only ``OverloadConfig``
        still books brownout-inflated demands (failover-only routing is
        the same fault-aware loop) — and the engines agree."""
        trace = renewal_trace(Exponential(0.8), 200.0, rng)
        pairs = engine_pairs(
            "batch", get_preset("wlan"), FixedTimeout, trace, "jsq", 3,
            service_time=0.4, route_seed=3,
            faults=FaultProcess(mtbf=30.0, mttr=10.0, severity=3.0),
            fault_seed=11,
            overload=OverloadConfig(failover=FailoverConfig(max_retries=2)),
        )
        for ref, fast in pairs:
            assert_fleet_reports_match(ref, fast)
            # brownouts slow devices without killing them
            assert ref.availability == 1.0
            assert ref.n_dropped == 0


class TestDispatcherOverload:
    def test_shed_requests_reach_no_subtrace(self):
        trace = Trace([0.0, 0.1, 0.2], duration=100.0,
                      service_demands=[5.0, 5.0, 5.0])
        subs, outcome = Dispatcher(
            "round_robin", 1, get_preset("mobile_hdd"),
        ).dispatch_with_overload(trace, None, OverloadConfig(slo=6.0))
        assert outcome.n_shed == 2
        assert len(subs[0]) == 1
        assert subs[0].service_demands.tolist() == [5.0]

    def test_subtraces_carry_inflated_demands(self):
        trace = Trace([1.0, 2.0], duration=10.0,
                      service_demands=[0.5, 0.5])
        faults = FaultSchedule([[(0.0, 1.5, 4.0)]], 10.0)
        subs, outcome = Dispatcher(
            "round_robin", 1, get_preset("mobile_hdd"),
        ).dispatch_with_overload(trace, faults)
        assert subs[0].service_demands.tolist() == [2.0, 0.5]
        assert outcome.n_shed == 0


class TestSweepIntegration:
    def _spec(self):
        proc = FaultProcess(mtbf=30.0, mttr=8.0, severity=4.0)
        overload = OverloadConfig(
            breaker=BreakerConfig(failure_threshold=2, recovery_time=5.0,
                                  latency_threshold=2.0),
            retry_budget=RetryBudgetConfig(capacity=6.0, refill_rate=0.2),
            slo=3.0,
        )
        return FleetSweepSpec(
            device="mobile_hdd",
            fleet_sizes=(3,),
            routers=("jsq",),
            policies=(PolicySpec("always_on", AlwaysOn()),),
            trace=TraceSpec("exp", Exponential(1.5), 120.0),
            n_traces=4,
            service_time=0.4,
            faults=proc,
            overload=overload,
        )

    def test_sweep_verified_with_metrics_and_columns(self):
        spec = self._spec()
        assert spec.uses_overload
        result = FleetSweepRunner(
            chunk_size=2, verify_fraction=1.0,
        ).run(spec)
        counters = result.execution["metrics"]["counters"]
        assert "fleet.requests_shed" in counters
        assert "breaker.trips" in counters
        block = result.execution["verification"]
        assert block["n_divergences"] == 0
        table = result.render()
        assert "shed" in table
        assert "goodput" in table

    @pytest.mark.parametrize("knob, columns", [
        (None, False),
        ("breaker", True),
        ("retry_budget", True),
        ("slo", True),
    ])
    def test_shed_goodput_columns_follow_the_knobs(self, knob, columns):
        """A failover-only spec (an ``OverloadConfig`` with every
        protection off) renders no shed / goodput columns: nothing is
        shed and goodput is 1 - dropped/offered.  Any protection knob
        adds them."""
        knobs = {"breaker": BreakerConfig(failure_threshold=2),
                 "retry_budget": RetryBudgetConfig(capacity=4.0),
                 "slo": 5.0}
        overload = OverloadConfig(
            failover=FailoverConfig(max_retries=1),
            **({} if knob is None else {knob: knobs[knob]}),
        )
        spec = FleetSweepSpec(
            device="mobile_hdd", fleet_sizes=(2,), routers=("jsq",),
            policies=(PolicySpec("always_on", AlwaysOn()),),
            trace=TraceSpec("exp", Exponential(1.0), 60.0),
            n_traces=2, service_time=0.4,
            faults=FaultProcess(mtbf=20.0, mttr=5.0), overload=overload,
        )
        assert spec.uses_overload is columns
        headers = FleetSweepRunner().run(spec).render().splitlines()[1]
        assert "retries" in headers
        assert ("shed" in headers) is columns
        assert ("goodput" in headers) is columns

    def test_brownout_process_implies_overload(self):
        spec = FleetSweepSpec(
            device="mobile_hdd", fleet_sizes=(2,), routers=("round_robin",),
            policies=(PolicySpec("always_on", AlwaysOn()),),
            trace=TraceSpec("exp", Exponential(1.0), 100.0),
            n_traces=2, service_time=0.4,
            faults=FaultProcess(mtbf=30.0, mttr=5.0, severity=2.0),
        )
        assert spec.uses_overload
