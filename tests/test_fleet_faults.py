"""Failure-aware routing: golden pin, failover semantics, fleet engines.

Failover-only routing is the fault-aware loop
(:func:`~repro.fleet.route_with_overload`) under
``OverloadConfig(failover=...)``.  Its outcomes are pinned to sha256
digests recorded from the dedicated failover engine this loop replaced
— every router x failover policy, on a seeded fault process with
retries and drops.  A no-fault schedule must
reproduce plain routing choice for choice, the failover semantics are
checked case by case, and the fast fleet engine (per-seed `auto` runs
and multi-trace `run_fleet_batch` calls) must agree with `scalar` on
every report field under faults at rel <= 1e-9.
"""

from __future__ import annotations

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import AlwaysOn, FixedTimeout, GreedySleep
from repro.device import get_preset
from repro.fleet import (
    ROUTERS,
    Dispatcher,
    FailoverConfig,
    FleetSweepSpec,
    OverloadConfig,
    make_router,
    route_with_overload,
    run_fleet,
    run_fleet_batch,
)
from repro.fleet.dispatch import RouteContext, _backoff_delay
from repro.runtime.simsweep import PolicySpec, TraceSpec
from repro.workload import (
    Exponential,
    FaultProcess,
    FaultSchedule,
    Trace,
    no_faults,
    renewal_trace,
)

from test_fleet_sweep import assert_fleet_reports_match, engine_pairs

PRESETS = ("mobile_hdd", "wlan")


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


def route_with_failover(router, ctx, faults, config=FailoverConfig()):
    """Failover-only routing: the fault-aware loop, every overload knob
    off."""
    return route_with_overload(router, ctx, faults,
                               OverloadConfig(failover=config))


#: sha256 over the little-endian bytes of ``assignments``,
#: ``dispatch_times`` and ``retries`` (in that order), recorded from the
#: dedicated failover engine before it was folded into the fault-aware
#: loop; each case has retries > 0 and at least one drop
GOLDEN_DIGESTS = {
    ("jsq", "next_best"):
        "0bc366ab61663d5c323ceb40ea88ee670451c9c582ca61a1d6fd8a17d8e082b6",
    ("jsq", "resubmit"):
        "0e909cd7989157ca0d67ee093f48d85774e364dad5f2ec4149223bd7ca768e7f",
    ("power_aware", "next_best"):
        "3bf1aea7716c3e1ba4a3bfa59c6d1f118969fc04b87777f5e409aa9e0586eb3d",
    ("power_aware", "resubmit"):
        "181ed1e43b5b4d8a17d0abe036fb4053121ca418a37d78ea79d527f3e572b3cf",
    ("random", "next_best"):
        "0fa81ad1c66bac1de33d5f982ddffbfa3e6c50ce48de1f339303a09ba93b1168",
    ("random", "resubmit"):
        "ba9c2d64c456cd5e5b4dc8b74910348db68753f76440e98940154e9941ae49dd",
    ("round_robin", "next_best"):
        "91693f52ba61fe7db1346c7f82f397d5350885f4822293f0571b88a24fa3b053",
    ("round_robin", "resubmit"):
        "c8e70896d18f9d9fcdf9b86e4954d3adcd74efa307c7db4f9bb1c25451326336",
}


def outcome_digest(outcome):
    h = hashlib.sha256()
    h.update(outcome.assignments.astype("<i8").tobytes())
    h.update(outcome.dispatch_times.astype("<f8").tobytes())
    h.update(outcome.retries.astype("<i8").tobytes())
    return h.hexdigest()


class TestFailoverConfig:
    def test_defaults_valid(self):
        cfg = FailoverConfig()
        assert cfg.policy == "next_best"

    @pytest.mark.parametrize("kwargs", [
        {"policy": "teleport"},
        {"max_retries": -1},
        {"backoff_base": 0.0},
        {"backoff_base": -1.0},
        {"backoff_cap": 0.1, "backoff_base": 0.5},
        {"backoff_base": math.nan},
        {"backoff_base": math.nan, "max_retries": 0},
        {"backoff_cap": math.nan, "max_retries": 8},
        {"backoff_base": math.inf, "backoff_cap": math.inf},
        {"backoff_base": math.inf, "max_retries": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FailoverConfig(**kwargs)

    def test_cap_unchecked_without_retries(self):
        """``max_retries == 0`` never backs off, so the cap is not
        validated, NaN included."""
        assert FailoverConfig(max_retries=0, backoff_cap=math.nan)
        assert FailoverConfig(max_retries=0, backoff_cap=0.1)


class TestGoldenPin:
    """Failover-only routing reproduces the recorded outcomes bit for
    bit, with every overload mechanism inert."""

    @pytest.mark.parametrize("entry", ("loop", "dispatcher"))
    @pytest.mark.parametrize("policy", ("next_best", "resubmit"))
    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_matches_recorded_digest(self, name, policy, entry):
        """Pinned through the loop itself and through
        ``Dispatcher.dispatch_with_faults``, the entry the fleet engine
        calls."""
        trace = renewal_trace(Exponential(0.8), 300.0,
                              np.random.default_rng(2024))
        faults = FaultProcess(mtbf=10.0, mttr=8.0).realize(
            4, trace.duration, seed=5)
        config = FailoverConfig(policy=policy, max_retries=3,
                                backoff_base=0.25, backoff_cap=2.0)
        if entry == "loop":
            out = route_with_failover(
                make_router(name), make_context(trace, 4, seed=9), faults,
                config,
            )
        else:
            _, out = Dispatcher(
                name, 4, get_preset("mobile_hdd"), service_time=0.4, seed=9,
            ).dispatch_with_faults(trace, faults, config)
        assert out.n_retries > 0
        assert out.n_dropped > 0
        assert outcome_digest(out) == GOLDEN_DIGESTS[(name, policy)]
        # failover only: nothing shed, no breaker, no deadline
        assert out.n_shed == 0
        assert out.n_breaker_trips == 0
        assert np.all(out.deadlines == math.inf)
        assert np.array_equal(out.effective_demands[out.landed], np.full(
            int(out.landed.sum()), 0.4))


class TestNoFaultBitIdentity:
    """With an always-up schedule failover routing must make exactly the
    choices of plain routing: the first attempt is always the router's
    natural, mask-oblivious decision."""

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    @pytest.mark.parametrize("plain_path", ("route", "fast"))
    def test_matches_plain_route(self, name, plain_path, rng):
        """Against the scalar ``Router.route`` and against the fast
        path (``route_batch`` / ``route_step_batch``) that plain fleet
        dispatch takes."""
        trace = renewal_trace(Exponential(0.8), 400.0, rng)
        router = make_router(name)
        if plain_path == "route":
            plain = router.route(make_context(trace, 4, seed=9))
        else:
            plain = Dispatcher(
                router, 4, get_preset("mobile_hdd"), service_time=0.4, seed=9,
            ).assignments(trace, vectorized=True)
        outcome = route_with_failover(
            router, make_context(trace, 4, seed=9),
            no_faults(4, trace.duration),
        )
        assert np.array_equal(outcome.assignments, plain)
        assert outcome.n_retries == 0
        assert outcome.n_dropped == 0
        assert outcome.latency_inflation == 0.0
        assert np.array_equal(outcome.dispatch_times, trace.arrival_times)

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_single_device_fleet_drops_through_outages(self, name, rng):
        """n_devices=1: failover has nowhere to go, so an outage longer
        than the whole backoff schedule must produce drops."""
        trace = renewal_trace(Exponential(0.5), 100.0, rng)
        faults = FaultSchedule([[(10.0, 30.0), (60.0, 61.0)]], trace.duration)
        config = FailoverConfig(max_retries=2, backoff_base=0.5,
                                backoff_cap=4.0)
        out = route_with_failover(
            make_router(name), make_context(trace, 1, seed=3), faults, config)
        assert out.n_dropped > 0  # the 20s outage outlives the backoff
        assert set(out.assignments.tolist()) <= {-1, 0}

    def test_device_count_mismatch_raises(self, rng):
        trace = renewal_trace(Exponential(0.5), 50.0, rng)
        with pytest.raises(ValueError, match="covers 2 devices"):
            route_with_failover(make_router("jsq"), make_context(trace, 4),
                                no_faults(2, trace.duration))


class TestFailoverSemantics:
    def test_next_best_lands_on_survivor(self):
        """Device 0 down for the whole window: every request that would
        naturally land there fails over to a live device instead."""
        trace = Trace([1.0, 2.0, 3.0, 4.0], duration=10.0)
        faults = FaultSchedule([[(0.0, 10.0)], []], 10.0)
        outcome = route_with_failover(
            make_router("jsq"), make_context(trace, 2), faults,
            FailoverConfig(policy="next_best"),
        )
        assert outcome.n_dropped == 0
        assert (outcome.assignments == 1).all()
        assert outcome.n_retries == 4      # one backoff each before rerouting
        assert outcome.latency_inflation > 0.0

    def test_resubmit_drops_under_stale_health_view(self):
        """resubmit re-asks the fault-oblivious router; jsq keeps
        re-picking the (empty-queued) dead device, so the request
        exhausts its retries and drops — the measurable cost of
        health-blind dispatch that next_best avoids."""
        trace = Trace([1.0], duration=200.0)
        faults = FaultSchedule([[(0.0, 150.0)], []], 200.0)
        resubmit = route_with_failover(
            make_router("jsq"), make_context(trace, 2), faults,
            FailoverConfig(policy="resubmit", max_retries=3,
                           backoff_base=0.5, backoff_cap=8.0),
        )
        assert resubmit.assignments.tolist() == [-1]
        assert resubmit.retries.tolist() == [3]
        next_best = route_with_failover(
            make_router("jsq"), make_context(trace, 2), faults,
            FailoverConfig(policy="next_best", max_retries=3),
        )
        assert next_best.assignments.tolist() == [1]

    def test_backoff_delays_are_capped_exponential(self):
        """A whole-fleet blackout forces consecutive backoffs: the
        dispatch delay must be the sum of min(base * 2**(k-1), cap)."""
        trace = Trace([1.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 90.0)], [(0.0, 90.0)]], 100.0)
        config = FailoverConfig(max_retries=4, backoff_base=1.0,
                                backoff_cap=4.0)
        outcome = route_with_failover(
            make_router("round_robin"), make_context(trace, 2),
            faults, config,
        )
        # delays 1, 2, 4, 4 — still inside the blackout, so it drops
        assert outcome.assignments.tolist() == [-1]
        assert outcome.dispatch_times.tolist() == [1.0 + 1.0 + 2.0 + 4.0 + 4.0]

    @pytest.mark.parametrize("base, cap", [
        (0.5, 8.0), (1.0, 4.0), (1e-3, 1e300), (5e-324, 8.0),
        (0.25, math.inf),
    ])
    def test_backoff_delay_is_exact_capped_doubling(self, base, cap):
        """Every delay equals min(base * 2**(k-1), cap) in exact rational
        arithmetic, far past the retry where 2.0 ** (k - 1) overflows."""
        config = FailoverConfig(max_retries=3000, backoff_base=base,
                                backoff_cap=cap)
        for k in list(range(1, 1100)) + [2000, 3000]:
            doubled = Fraction(base) * 2 ** (k - 1)
            want = (cap if doubled > min(cap, sys.float_info.max)
                    else float(doubled))
            assert _backoff_delay(k, config) == want, k

    def test_thousands_of_retries_do_not_overflow(self):
        """Both devices down over [0.5, 15000]: under the default 8 s
        cap a request needs ~1,900 backoffs to outlast the blackout."""
        trace = Trace([1.0, 2.0], duration=16000.0)
        faults = FaultSchedule([[(0.5, 15000.0)], [(0.5, 15000.0)]],
                               16000.0)
        subs, outcome = Dispatcher(
            "round_robin", 2, get_preset("mobile_hdd"),
        ).dispatch_with_faults(trace, faults,
                               FailoverConfig(max_retries=2000))
        assert outcome.n_dropped == 0
        assert outcome.retries.min() > 1025
        assert np.all(outcome.dispatch_times >= 15000.0)
        assert np.all(np.isfinite(outcome.dispatch_times))
        assert sum(len(sub) for sub in subs) == 2

    def test_fleet_recovers_mid_backoff(self):
        """A blackout that ends inside the backoff window: the retry
        probe sees the repaired device and lands there."""
        trace = Trace([1.0], duration=100.0)
        faults = FaultSchedule([[(0.0, 3.0)], [(0.0, 90.0)]], 100.0)
        outcome = route_with_failover(
            make_router("round_robin"), make_context(trace, 2), faults,
            FailoverConfig(max_retries=4, backoff_base=1.0, backoff_cap=4.0),
        )
        # natural pick 0 (down), backoff to 2.0 (still down), to 4.0:
        # device 0 repaired — lands there
        assert outcome.assignments.tolist() == [0]
        assert outcome.dispatch_times.tolist() == [4.0]
        assert outcome.retries.tolist() == [2]

    def test_max_retries_zero_drops_immediately(self):
        trace = Trace([1.0], duration=10.0)
        faults = FaultSchedule([[(0.0, 10.0)], []], 10.0)
        outcome = route_with_failover(
            make_router("round_robin"), make_context(trace, 2), faults,
            FailoverConfig(max_retries=0),
        )
        assert outcome.assignments.tolist() == [-1]
        assert outcome.dispatch_times.tolist() == [1.0]


class TestDispatchWithFaults:
    def test_subtraces_carry_delayed_dispatches(self):
        """A failed-over request enters its device's sub-trace at the
        delayed dispatch instant, stable-sorted against other landings
        — request 0's retry lands on device 1 *after* request 2's
        natural dispatch there, so the sub-trace order flips."""
        trace = Trace([1.0, 1.2, 1.3], duration=10.0,
                      service_demands=[0.3, 0.2, 0.7])
        faults = FaultSchedule([[(0.95, 1.05)], []], 10.0)
        subs, outcome = Dispatcher(
            "round_robin", 2, get_preset("mobile_hdd"),
        ).dispatch_with_faults(
            trace, faults, FailoverConfig(backoff_base=0.5),
        )
        # request 0: natural pick 0 (down at 1.0), retried at 1.5 onto
        # device 1; request 1: cursor pick 0 (repaired by 1.2); request
        # 2: cursor pick 1, dispatching at 1.3 < 1.5
        assert subs[0].arrival_times.tolist() == [1.2]
        assert subs[0].service_demands.tolist() == [0.2]
        assert subs[1].arrival_times.tolist() == [1.3, 1.5]
        assert subs[1].service_demands.tolist() == [0.7, 0.3]
        assert outcome.n_retries == 1

    def test_dropped_requests_reach_no_subtrace(self):
        trace = Trace([1.0, 5.0], duration=10.0)
        faults = FaultSchedule([[(0.0, 10.0)], [(0.0, 10.0)]], 10.0)
        subs, outcome = Dispatcher(
            "jsq", 2, get_preset("mobile_hdd"),
        ).dispatch_with_faults(trace, faults, FailoverConfig(max_retries=1))
        assert outcome.n_dropped == 2
        assert all(len(s) == 0 for s in subs)

    def test_window_stretches_to_latest_landing(self):
        """A retry landing past the nominal window must stretch every
        sub-trace's shared duration to cover it."""
        trace = Trace([9.5], duration=10.0)
        faults = FaultSchedule([[(9.0, 10.0)], []], 10.0)
        subs, outcome = Dispatcher(
            "round_robin", 2, get_preset("mobile_hdd"),
        ).dispatch_with_faults(
            trace, faults, FailoverConfig(backoff_base=1.0),
        )
        assert outcome.dispatch_times.tolist() == [10.5]
        assert all(s.duration == 10.5 for s in subs)

    def test_requires_schedule(self, rng):
        trace = renewal_trace(Exponential(0.5), 50.0, rng)
        with pytest.raises(ValueError, match="fault schedule"):
            Dispatcher("jsq", 2, get_preset("mobile_hdd")).\
                dispatch_with_faults(trace, None)

    def test_accepts_process_and_is_seed_deterministic(self, rng):
        trace = renewal_trace(Exponential(0.8), 200.0, rng)
        dispatcher = Dispatcher("jsq", 3, get_preset("mobile_hdd"), seed=4)
        proc = FaultProcess(mtbf=30.0, mttr=5.0)
        subs_a, out_a = dispatcher.dispatch_with_faults(trace, proc)
        subs_b, out_b = dispatcher.dispatch_with_faults(trace, proc)
        assert np.array_equal(out_a.assignments, out_b.assignments)
        assert np.array_equal(out_a.dispatch_times, out_b.dispatch_times)
        _, out_c = dispatcher.dispatch_with_faults(trace, proc, fault_seed=99)
        assert not np.array_equal(out_a.assignments, out_c.assignments)


class TestFleetEnginesUnderFaults:
    """The fast fleet engine — one auto run, or a run_fleet_batch call
    over three traces — vs the scalar reference per seed, with faults
    injected: every FleetReport field at rel <= 1e-9 (assignments and
    dispatch instants themselves are bit-identical upstream)."""

    POLICIES = [("always_on", AlwaysOn), ("greedy", GreedySleep),
                ("timeout", FixedTimeout)]

    @pytest.mark.parametrize("engine", ("auto", "batch"))
    @pytest.mark.parametrize("router_name", sorted(ROUTERS))
    @pytest.mark.parametrize(
        "policy_factory", [f for _, f in POLICIES],
        ids=[name for name, _ in POLICIES],
    )
    def test_engines_pinned_under_faults(self, engine, router_name,
                                         policy_factory, rng):
        trace = renewal_trace(Exponential(0.8), 400.0, rng)
        for ref, fast in engine_pairs(
            engine, get_preset("mobile_hdd"), policy_factory, trace,
            router_name, 4, service_time=0.4, route_seed=21,
            faults=FaultProcess(mtbf=50.0, mttr=8.0), fault_seed=77,
            overload=OverloadConfig(failover=FailoverConfig(max_retries=3)),
        ):
            assert_fleet_reports_match(ref, fast)
            for field in ("availability", "n_retries", "n_dropped",
                          "failover_latency_inflation"):
                assert getattr(ref, field) == getattr(fast, field), field

    @pytest.mark.parametrize("engine", ("auto", "batch"))
    def test_degenerate_blackout_pinned(self, engine, rng):
        """Whole-fleet blackout mid-trace: drops occur, some devices may
        end up with empty sub-traces — engines must still agree."""
        trace = renewal_trace(Exponential(1.0), 120.0, rng)
        faults = FaultSchedule([[(30.0, 60.0)]] * 3, trace.duration)
        pairs = engine_pairs(
            engine, get_preset("wlan"), FixedTimeout, trace, "jsq", 3,
            service_time=0.4, route_seed=5, faults=faults,
            overload=OverloadConfig(failover=FailoverConfig(
                max_retries=2, backoff_base=0.5, backoff_cap=2.0)),
        )
        assert pairs[0][0].n_dropped > 0
        for ref, fast in pairs:
            assert_fleet_reports_match(ref, fast)

    @pytest.mark.parametrize("engine", ("auto", "batch"))
    def test_every_request_dropped_pinned(self, engine):
        """Whole fleet down for the whole window, zero retries: every
        request drops, every sub-trace is empty — the fast engine and
        the reference must still produce coherent (all-zero traffic)
        reports."""
        trace = Trace(np.array([1.0, 2.0, 3.0]), 100.0)
        faults = FaultSchedule([[(0.0, 100.0)], [(0.0, 100.0)]], 100.0)
        pairs = engine_pairs(
            engine, get_preset("mobile_hdd"), FixedTimeout, trace,
            "round_robin", 2, service_time=0.4, route_seed=1,
            faults=faults,
            overload=OverloadConfig(failover=FailoverConfig(max_retries=0)),
        )
        assert pairs[0][0].n_offered == len(trace)
        for ref, fast in pairs:
            for report in (ref, fast):
                assert report.n_dropped == report.n_offered
                assert report.n_requests == 0
                assert report.availability == 0.0
            assert_fleet_reports_match(ref, fast)

    def test_report_metrics_reflect_faults(self, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        device = get_preset("mobile_hdd")
        report = run_fleet(
            device, AlwaysOn(), trace, make_router("jsq"), 3,
            service_time=0.4,
            faults=FaultProcess(mtbf=30.0, mttr=10.0), fault_seed=2,
        )
        assert 0.0 < report.availability < 1.0
        assert report.n_retries > 0
        assert report.failover_latency_inflation > 0.0
        fault_free = run_fleet(device, AlwaysOn(), trace,
                               make_router("jsq"), 3, service_time=0.4)
        assert fault_free.availability == 1.0
        assert fault_free.n_retries == 0
        assert fault_free.n_dropped == 0

    def test_batch_matches_per_seed_runs(self, rng):
        """Chunking invariance under faults: a batch of R seeded runs
        equals R independent run_fleet calls exactly, and each matches
        the scalar reference."""
        traces = [renewal_trace(Exponential(0.8), 200.0,
                                np.random.default_rng(s)) for s in (1, 2, 3)]
        device = get_preset("mobile_hdd")
        proc = FaultProcess(mtbf=40.0, mttr=6.0)
        batched = run_fleet_batch(
            device, GreedySleep(), traces, make_router("power_aware"), 3,
            service_time=0.4, route_seeds=[11, 12, 13],
            faults=proc, fault_seeds=[21, 22, 23],
        )
        for trace, rs, fs, got in zip(traces, (11, 12, 13), (21, 22, 23),
                                      batched):
            kwargs = dict(service_time=0.4, route_seed=rs, faults=proc,
                          fault_seed=fs)
            solo = run_fleet(device, GreedySleep(), trace,
                             make_router("power_aware"), 3, **kwargs)
            ref = run_fleet(device, GreedySleep(), trace,
                            make_router("power_aware"), 3, engine="scalar",
                            **kwargs)
            assert solo == got
            assert_fleet_reports_match(ref, got)
            assert ref.n_retries == got.n_retries
            assert ref.n_dropped == got.n_dropped


class TestFleetSweepSpecFaultValidation:
    """Satellite: degenerate fault configs must fail fast at the spec."""

    def _spec(self, **overrides):
        kwargs = dict(
            device="mobile_hdd",
            fleet_sizes=(2,),
            routers=("jsq",),
            policies=(PolicySpec(label="always_on", policy=AlwaysOn()),),
            trace=TraceSpec(name="exp", dist=Exponential(1.0),
                            duration=100.0),
            service_time=0.4,
        )
        kwargs.update(overrides)
        return FleetSweepSpec(**kwargs)

    def test_valid_process_accepted(self):
        spec = self._spec(faults=FaultProcess(mtbf=30.0, mttr=5.0))
        assert spec.faults.mtbf == 30.0

    def test_mtbf_shorter_than_a_request_rejected(self):
        with pytest.raises(ValueError, match="shorter than a single"):
            self._spec(faults=FaultProcess(mtbf=0.1, mttr=5.0))

    def test_mttr_nonpositive_rejected_at_the_source(self):
        with pytest.raises(ValueError, match="mttr"):
            FaultProcess(mtbf=10.0, mttr=0.0)
        with pytest.raises(ValueError, match="mttr"):
            FaultProcess(mtbf=10.0, mttr=-1.0)

    def test_whole_fleet_start_down_rejected_at_the_source(self):
        with pytest.raises(ValueError, match="no surviving device"):
            FaultProcess(mtbf=10.0, mttr=1.0, start_down=1.0)

    def test_all_down_at_t0_schedule_rejected(self):
        dead = FaultSchedule([[(0.0, 5.0)], [(0.0, 3.0)]], 100.0)
        with pytest.raises(ValueError, match="down at t=0"):
            self._spec(faults=dead)

    def test_schedule_must_match_single_fleet_size(self):
        sched = no_faults(2, 100.0)
        assert self._spec(faults=sched).faults is sched
        with pytest.raises(ValueError, match="single-fleet-size"):
            self._spec(faults=sched, fleet_sizes=(2, 4))

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="FaultProcess"):
            self._spec(faults=0.5)

    def test_failover_type_checked(self):
        # the failover shape goes inside OverloadConfig, never bare
        with pytest.raises(ValueError, match="OverloadConfig"):
            self._spec(overload=FailoverConfig())
