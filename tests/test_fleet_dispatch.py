"""Dispatcher and router semantics of :mod:`repro.fleet.dispatch`.

The fleet mirrors the repo's stateless/stateful split: stateless routers
must be bit-identical between their scalar reference loop (``route``,
one ``decide_one`` per request) and the closed-form ``route_batch``
path, queue-aware routers must be bit-identical between the scalar loop
and the epoch-advance ``route_step_batch`` path (one arrival per
round), the heap-settled backlog must agree after every operation with
plain per-device pending lists, and the dispatcher must partition traces
without losing requests, demands, or window duration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.device import get_preset
from repro.fleet import (
    ROUTERS,
    Dispatcher,
    JoinShortestQueueRouter,
    PowerAwareRouter,
    RandomRouter,
    RouteContext,
    RoundRobinRouter,
    make_router,
)
from repro.fleet import dispatch
from repro.fleet.dispatch import _Backlog
from repro.workload import Exponential, Trace, renewal_trace

STATELESS = ("round_robin", "random")
QUEUE_AWARE = ("jsq", "power_aware")
EPOCH_PRESETS = ("mobile_hdd", "wlan", "sa1100")


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


class TestRegistry:
    def test_all_four_routers_registered(self):
        assert set(ROUTERS) == {"round_robin", "random", "jsq", "power_aware"}

    def test_make_router_unknown_name(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("teleport")

    def test_names_match_registry_keys(self):
        for name in ROUTERS:
            assert make_router(name).name == name


class TestStatelessBitExactness:
    """route() and route_batch() must agree bit-for-bit (the fleet's
    analogue of the decide_batch contract)."""

    @pytest.mark.parametrize("name", STATELESS)
    @pytest.mark.parametrize("n_devices", (1, 3, 16))
    def test_scalar_equals_batch(self, name, n_devices, rng):
        trace = renewal_trace(Exponential(0.8), 500.0, rng)
        router = make_router(name)
        scalar = router.route(make_context(trace, n_devices, seed=9))
        batch = router.route_batch(make_context(trace, n_devices, seed=9))
        assert scalar.dtype == batch.dtype == np.int64
        assert np.array_equal(scalar, batch)

    @pytest.mark.parametrize("name", QUEUE_AWARE)
    def test_queue_aware_has_no_batch_path(self, name, rng):
        trace = renewal_trace(Exponential(0.8), 100.0, rng)
        assert make_router(name).route_batch(make_context(trace, 4)) is None

    @pytest.mark.parametrize("name", STATELESS)
    def test_stateless_has_no_step_path(self, name, rng):
        """Stateless routers are served by route_batch; the epoch-advance
        hook stays the base-class None for them."""
        trace = renewal_trace(Exponential(0.8), 100.0, rng)
        assert make_router(name).route_step_batch(make_context(trace, 4)) is None


class TestQueueAwareEpochPath:
    """route() and route_step_batch() must agree bit-for-bit: the dense
    backlog arrays book the exact same completion floats as the scalar
    tracker, and every argmin/argmax tie breaks to the lowest index in
    both paths."""

    @pytest.mark.parametrize("name", QUEUE_AWARE)
    @pytest.mark.parametrize("device_name", EPOCH_PRESETS)
    @pytest.mark.parametrize("n_devices", (1, 3, 16))
    def test_scalar_equals_step_batch(self, name, device_name, n_devices, rng):
        trace = renewal_trace(Exponential(0.8), 500.0, rng)
        router = make_router(name)
        scalar = router.route(make_context(trace, n_devices, device_name))
        stepped = router.route_step_batch(
            make_context(trace, n_devices, device_name)
        )
        assert stepped.dtype == np.int64
        assert np.array_equal(scalar, stepped)

    @pytest.mark.parametrize("name", QUEUE_AWARE)
    @pytest.mark.parametrize("device_name", EPOCH_PRESETS)
    def test_degenerate_traces(self, name, device_name):
        router = make_router(name)
        for trace in (
            Trace([], duration=5.0),                    # no arrivals at all
            Trace([0.0, 0.0, 0.0, 0.0], duration=1.0),  # one simultaneous burst
            Trace([1.0], duration=2.0),                 # single request
            Trace([0.0, 0.0, 3.0, 3.0, 3.0], duration=4.0),
        ):
            for n_devices in (1, 2, 4):
                ctx = make_context(trace, n_devices, device_name)
                scalar = router.route(ctx)
                stepped = router.route_step_batch(
                    make_context(trace, n_devices, device_name)
                )
                assert np.array_equal(scalar, stepped), (trace, n_devices)

    @pytest.mark.parametrize("name", QUEUE_AWARE)
    def test_heavy_trace_with_varied_demands(self, name, rng):
        """Overload regime with per-request demands: long backlogs, many
        settles per arrival, float completion times exercised hard."""
        base = renewal_trace(Exponential(3.0), 300.0, rng)
        trace = Trace(base.arrival_times, duration=300.0,
                      service_demands=rng.uniform(0.05, 1.5, size=len(base)))
        router = make_router(name)
        scalar = router.route(make_context(trace, 8))
        stepped = router.route_step_batch(make_context(trace, 8))
        assert np.array_equal(scalar, stepped)

    def test_simultaneous_arrivals_tie_break_lowest_index(self):
        """Equal queue lengths must resolve to the lowest device index on
        the epoch path exactly as on the scalar scan."""
        trace = Trace([0.0, 0.0, 0.0, 0.0], duration=10.0)
        out = JoinShortestQueueRouter().route_step_batch(
            make_context(trace, 4)
        )
        assert out.tolist() == [0, 1, 2, 3]

    def test_power_aware_all_awake_and_full_branch(self):
        """max_queue=1 with a tight burst drives the router through all
        three branches — including the every-device-awake-and-full plain
        shortest-queue fallback — identically on both paths."""
        trace = Trace([0.0, 0.1, 0.2, 0.3], duration=10.0)
        router = PowerAwareRouter(awake_window=0.05, max_queue=1)
        stepped = router.route_step_batch(make_context(trace, 2))
        assert stepped.tolist() == [0, 1, 0, 1]
        assert np.array_equal(router.route(make_context(trace, 2)), stepped)

    def test_dispatcher_prefers_epoch_path(self, rng):
        """assignments(vectorized=True) must reach route_step_batch for
        queue-aware routers — proven by breaking the scalar loop."""
        trace = renewal_trace(Exponential(0.8), 200.0, rng)
        device = get_preset("mobile_hdd")
        for name in QUEUE_AWARE:
            dispatcher = Dispatcher(name, 4, device, service_time=0.4)
            expected = dispatcher.assignments(trace, vectorized=False)
            def broken(ctx):
                raise AssertionError("scalar route must not be consulted")
            dispatcher.router.route = broken
            assert np.array_equal(
                dispatcher.assignments(trace, vectorized=True), expected
            )


#: instants on a coarse binary grid: sums of grid demands stay exact,
#: so booked completions collide with later arrivals and settle instants
_INSTANTS = st.integers(0, 40).map(lambda k: k * 0.25)
_DEMANDS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.75])


@st.composite
def _backlog_programs(draw):
    """A fleet size and a settle/assign sequence over it.

    Instants are not monotone (the fault-aware loop settles at a
    retry's delayed instant, then at the next, earlier arrival), bursts
    book many requests on one device at one instant, and
    ``settle_at_completion`` settles exactly on a booked completion —
    the ``<=`` boundary.
    """
    n_devices = draw(st.integers(1, 4))
    device = st.integers(0, n_devices - 1)
    op = st.one_of(
        st.tuples(st.just("settle"), _INSTANTS),
        st.tuples(st.just("assign"), device, _INSTANTS, _DEMANDS),
        st.tuples(st.just("settle_at_completion"), device),
        st.tuples(st.just("burst"), device, st.integers(1, 80),
                  _INSTANTS, _DEMANDS),
    )
    return n_devices, draw(st.lists(op, max_size=60))


class PendingLists:
    """Test-local reference backlog: per device, the booked completions
    still pending, filtered with ``c > now`` on every settle."""

    def __init__(self, n_devices):
        self.pending = [[] for _ in range(n_devices)]
        self.last_completion = [0.0] * n_devices

    @property
    def queue_len(self):
        return [len(p) for p in self.pending]

    def settle(self, now):
        self.pending = [[c for c in p if c > now] for p in self.pending]

    def assign(self, d, now, demand):
        done = max(now, self.last_completion[d]) + demand
        self.pending[d].append(done)
        self.last_completion[d] = done


class TestBacklogEquivalence:
    """Every routing loop runs over :class:`_Backlog`; it must expose
    the reference's ``queue_len`` / ``last_completion`` lists after
    every settle and assign."""

    @settings(max_examples=200, deadline=None)
    @given(program=_backlog_programs())
    @example(program=(1, [("burst", 0, 3 * 64, 0.0, 0.0),
                          ("settle", 10.0),
                          ("assign", 0, 10.0, 0.5),
                          ("settle", 10.0),
                          ("settle_at_completion", 0)]))
    @example(program=(1, [("burst", 0, 64 + 6, 0.0, 0.0),
                          ("assign", 0, 0.0, 0.5),
                          ("settle", 0.0),
                          ("settle_at_completion", 0)]))
    @example(program=(2, [("assign", 0, 1.0, 0.0), ("assign", 0, 1.0, 0.0),
                          ("settle", 1.0), ("assign", 1, 2.0, 0.5),
                          ("settle", 0.5), ("settle_at_completion", 1)]))
    def test_same_arrays_after_every_operation(self, program):
        n_devices, ops = program
        reference = PendingLists(n_devices)
        backlog = _Backlog(n_devices)
        for op in ops:
            kind = op[0]
            if kind == "settle_at_completion":
                kind, op = "settle", ("settle",
                                      reference.last_completion[op[1]])
            if kind == "settle":
                reference.settle(op[1])
                backlog.settle(op[1])
            else:
                d, now, demand = op[1], op[-2], op[-1]
                for _ in range(op[2] if kind == "burst" else 1):
                    reference.assign(d, now, demand)
                    backlog.assign(d, now, demand)
            assert backlog.queue_len == reference.queue_len, op
            assert backlog.last_completion == reference.last_completion, op
            assert min(backlog.queue_len) >= 0


class TestBacklogMemory:
    """settle() pops every completed request off the shared heap, so
    the heap stays bounded by the live backlog, not by the trace
    length."""

    def test_long_trace_memory_stays_bounded(self):
        backlog = _Backlog(2)
        now = 0.0
        for i in range(5000):
            backlog.assign(i % 2, now, 0.5)
            now += 1.0
            backlog.settle(now)
            assert backlog.queue_len == [0, 0]
            # without the pops this heap would grow to 5000 entries
            assert backlog._heap == []

    def test_heap_holds_exactly_the_live_backlog(self):
        """Partial settles leave an unsettled tail: the heap keeps one
        entry per pending request, no more."""
        backlog = _Backlog(2)
        now = 0.0
        for i in range(400):
            now += 0.25 if i % 3 else 0.0    # repeats exercise ties
            backlog.settle(now)
            assert len(backlog._heap) == sum(backlog.queue_len)
            assert all(done > now for done, _ in backlog._heap)
            backlog.assign(i % 2, now, 0.4 + (i % 5) * 0.3)


class TestRoundRobin:
    def test_cycles_in_request_order(self, rng):
        trace = renewal_trace(Exponential(1.0), 50.0, rng)
        out = RoundRobinRouter().route(make_context(trace, 3))
        assert out.tolist() == [i % 3 for i in range(len(trace))]


class TestRandom:
    def test_within_bounds_and_seed_deterministic(self, rng):
        trace = renewal_trace(Exponential(1.0), 300.0, rng)
        a = RandomRouter().route(make_context(trace, 5, seed=3))
        b = RandomRouter().route(make_context(trace, 5, seed=3))
        c = RandomRouter().route(make_context(trace, 5, seed=4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)  # overwhelmingly likely
        assert a.min() >= 0 and a.max() < 5


#: bounds of the block-draw pin: powers of two never reject, odd bounds
#: can, and the largest rejects about three draws in ten
DRAW_BOUNDS = (1, 2, 3, 7, 8, 64, 3_000_000_001)


def _edge_draws(n):
    """32-bit values whose Lemire low word, ``value * n mod 2**32``,
    sits exactly at the rejection threshold ``2**32 mod n`` (accepted)
    and one below it (redrawn).  Odd bounds only, which are invertible
    mod 2**32; the bound 1 has no threshold to sit on."""
    threshold = (1 << 32) % n
    if n % 2 == 0 or threshold == 0:
        return []
    inverse = pow(n, -1, 1 << 32)
    return [low * inverse % (1 << 32) for low in (threshold, threshold - 1)]


def _generator(seed, first):
    """``default_rng(seed)``, its next 32-bit value planted as ``first``
    (PCG64 hands out the buffered upper half of a 64-bit draw first)."""
    rng = np.random.default_rng(seed)
    if first is not None:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, first
        rng.bit_generator.state = state
    return rng


@st.composite
def block_draw_runs(draw):
    """A bound, then decisions: unmasked (None) or masked with 1 to
    N - 1 live devices, read from blocks of 1-40 values."""
    n = draw(st.sampled_from(DRAW_BOUNDS))
    decision = st.none()
    if 1 < n <= 64:
        decision = decision | st.sets(
            st.integers(0, n - 1), min_size=1, max_size=n - 1
        ).map(lambda live: [d in live for d in range(n)])
    decisions = draw(st.lists(decision, min_size=1, max_size=60))
    first = draw(st.none() | st.sampled_from(_edge_draws(n) or [None]))
    return (n, decisions, draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(1, 40)), first)


def _edge_case(n, which):
    return (n, [None] * 4, 17, 3, _edge_draws(n)[which])


class TestRandomBlockDraw:
    """``RandomRouter.decide_one`` maps 32-bit values from a pre-filled
    block to ``[0, n)``; every decision must equal one
    ``Generator.integers(0, n)`` call on the same stream."""

    @settings(max_examples=300, deadline=None)
    @given(block_draw_runs())
    # the low word exactly at the threshold, and one below it
    @example(_edge_case(3, 0))
    @example(_edge_case(3, 1))
    @example(_edge_case(7, 0))
    @example(_edge_case(7, 1))
    @example(_edge_case(3_000_000_001, 0))
    @example(_edge_case(3_000_000_001, 1))
    # one live device draws nothing, and blocks of two refill often
    @example((8, [[d == 5 for d in range(8)], None, None, None], 4, 2, None))
    def test_one_integers_call_per_decision(self, run):
        n, decisions, seed, block, first = run
        want_rng = _generator(seed, first)
        want = []
        for alive in decisions:
            if alive is None:
                want.append(int(want_rng.integers(0, n)))
            else:
                live = np.flatnonzero(alive)
                want.append(int(live[want_rng.integers(0, live.size)]))
        ctx = RouteContext(arrivals=np.zeros(0), demands=np.zeros(0),
                           n_devices=n, device=get_preset("mobile_hdd"),
                           rng=_generator(seed, first))
        router = RandomRouter()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dispatch, "_DRAW_BLOCK", block)
            state = router.begin_route(ctx)
            got = [router.decide_one(state, [], [], 0.0, ctx, alive=alive)
                   for alive in decisions]
        assert got == want

    def test_edge_draws_sit_on_the_threshold(self):
        for n in (3, 7, 3_000_000_001):
            at, below = ((v * n) % (1 << 32) for v in _edge_draws(n))
            assert at == (1 << 32) % n and below == at - 1

    def test_fleet_past_32_bits_rejected(self):
        ctx = RouteContext(arrivals=np.zeros(0), demands=np.zeros(0),
                           n_devices=(1 << 32) + 1,
                           device=get_preset("mobile_hdd"),
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_devices"):
            RandomRouter().begin_route(ctx)


class TestJoinShortestQueue:
    def test_spreads_simultaneous_burst(self):
        # four arrivals inside one service time: each must land on a
        # different (empty-queue) device, lowest index first
        trace = Trace([0.0, 0.1, 0.2, 0.3], duration=10.0)
        out = JoinShortestQueueRouter().route(make_context(trace, 4))
        assert out.tolist() == [0, 1, 2, 3]

    def test_reuses_drained_device(self):
        # second arrival comes after the first completes: queue empty
        # everywhere again, so the tie falls back to device 0
        trace = Trace([0.0, 5.0], duration=10.0)
        out = JoinShortestQueueRouter().route(make_context(trace, 2))
        assert out.tolist() == [0, 0]

    def test_all_busy_settles_a_completion_at_the_arrival(self):
        # at t=0.5 both devices are busy, and device 0's first
        # completion lands exactly then: settled, it leaves one request
        # per device, so the tie goes to device 0
        trace = Trace([0.0, 0.0, 0.0, 0.5], duration=2.0,
                      service_demands=[0.5, 1.0, 0.5, 0.25])
        router = JoinShortestQueueRouter()
        for route in (router.route, router.route_step_batch):
            assert route(make_context(trace, 2)).tolist() == [0, 1, 0, 0]


class TestPowerAware:
    def test_consolidates_when_fleet_sleeps(self):
        # gaps longer than the awake window: every arrival re-wakes the
        # same most-recently-used device instead of spreading
        device = get_preset("mobile_hdd")
        window = PowerAwareRouter().resolve_window(device)
        gap = window + 5.0
        times = [i * gap for i in range(5)]
        trace = Trace(times, duration=times[-1] + 1.0)
        out = PowerAwareRouter().route(make_context(trace, 4))
        assert out.tolist() == [0] * 5

    def test_wakes_sleeping_device_when_awake_queue_full(self):
        # max_queue=1: t=0 lands on device 0; at t=0.1 device 0 is awake
        # but full, so the burst wakes device 1; by t=0.2 both are busy
        # and full, so plain shortest-queue takes over
        trace = Trace([0.0, 0.1, 0.2, 0.3], duration=10.0)
        out = PowerAwareRouter(awake_window=0.05, max_queue=1).route(
            make_context(trace, 2)
        )
        assert out.tolist() == [0, 1, 0, 1]

    def test_bounded_queue_prefers_awake_until_full(self):
        # after t=0 only device 0 is awake (busy); it keeps the burst
        # until its queue hits max_queue=2, then device 1 is woken
        trace = Trace([0.0, 0.1, 0.2], duration=10.0)
        out = PowerAwareRouter(awake_window=0.05, max_queue=2).route(
            make_context(trace, 3)
        )
        assert out.tolist() == [0, 0, 1]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            PowerAwareRouter(awake_window=-1.0)
        with pytest.raises(ValueError):
            PowerAwareRouter(max_queue=0)

    def test_nan_window_rejected(self):
        """A NaN window passes a ``< 0`` check but breaks the step
        path's ``window >= 0`` premise (it drops the busy term of the
        awake test), so the fast and scalar paths would disagree."""
        with pytest.raises(ValueError, match="awake_window"):
            PowerAwareRouter(awake_window=float("nan"))

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    def test_fractional_max_queue_rejected(self, bad):
        """A fractional cap used to be floored silently (2.5 -> 2)."""
        with pytest.raises(ValueError, match="max_queue"):
            PowerAwareRouter(max_queue=bad)

    def test_whole_float_max_queue_accepted(self):
        assert PowerAwareRouter(max_queue=2.0)._max_queue == 2


class TestDispatcher:
    def test_validation(self):
        device = get_preset("mobile_hdd")
        with pytest.raises(ValueError):
            Dispatcher("round_robin", 0, device)
        with pytest.raises(ValueError):
            Dispatcher("round_robin", 2, device, service_time=0.0)
        with pytest.raises(TypeError):
            Dispatcher(object(), 2, device)
        with pytest.raises(ValueError, match="unknown router"):
            Dispatcher("warp", 2, device)

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_partition_conserves_requests_and_window(self, name, rng):
        trace = renewal_trace(Exponential(0.6), 400.0, rng)
        subs = Dispatcher(name, 4, get_preset("mobile_hdd"),
                          service_time=0.4, seed=7).dispatch(trace)
        assert len(subs) == 4
        assert sum(len(s) for s in subs) == len(trace)
        assert all(s.duration == trace.duration for s in subs)
        merged = Trace.merge(subs)
        assert np.array_equal(merged.arrival_times, trace.arrival_times)

    def test_demands_travel_with_their_requests(self, rng):
        base = renewal_trace(Exponential(0.5), 200.0, rng)
        demands = rng.uniform(0.1, 1.0, size=len(base))
        trace = Trace(base.arrival_times, duration=200.0,
                      service_demands=demands)
        dispatcher = Dispatcher("round_robin", 3, get_preset("mobile_hdd"))
        assignments = dispatcher.assignments(trace)
        subs = dispatcher.dispatch(trace)
        for d, sub in enumerate(subs):
            assert np.array_equal(sub.service_demands,
                                  demands[assignments == d])

    def test_dispatch_is_pure(self, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        dispatcher = Dispatcher("random", 5, get_preset("mobile_hdd"), seed=11)
        a = dispatcher.assignments(trace)
        b = dispatcher.assignments(trace)
        assert np.array_equal(a, b)

    def test_scalar_flag_forces_reference_loop(self, rng):
        trace = renewal_trace(Exponential(0.8), 300.0, rng)
        dispatcher = Dispatcher("random", 5, get_preset("mobile_hdd"), seed=11)
        assert np.array_equal(
            dispatcher.assignments(trace, vectorized=True),
            dispatcher.assignments(trace, vectorized=False),
        )


class TestTraceSplit:
    """The workload-layer primitive the dispatcher rides on."""

    def test_split_validation(self):
        trace = Trace([1.0, 2.0], duration=5.0)
        with pytest.raises(ValueError, match="match"):
            trace.split([0])
        with pytest.raises(ValueError, match="integers"):
            trace.split([0.5, 1.5])
        with pytest.raises(ValueError, match="n_parts"):
            trace.split([0, 0], n_parts=0)
        with pytest.raises(ValueError, match="lie in"):
            trace.split([0, 3], n_parts=2)
        with pytest.raises(ValueError, match="lie in"):
            trace.split([-1, 0], n_parts=2)

    def test_split_empty_parts_allowed(self):
        parts = Trace([1.0], duration=4.0).split([2], n_parts=4)
        assert [len(p) for p in parts] == [0, 0, 1, 0]
        assert all(p.duration == 4.0 for p in parts)

    def test_split_empty_trace(self):
        parts = Trace([], duration=3.0).split([], n_parts=2)
        assert [len(p) for p in parts] == [0, 0]
        assert all(p.duration == 3.0 for p in parts)

    def test_merge_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Trace.merge([])
        with pytest.raises(TypeError, match="Trace"):
            Trace.merge([Trace([1.0], duration=2.0), [2.0]])

    def test_merge_carries_demands_and_window(self):
        a = Trace([1.0, 3.0], duration=6.0, service_demands=[0.2, 0.4])
        b = Trace([2.0], duration=4.0)
        merged = Trace.merge([a, b])
        assert merged.arrival_times.tolist() == [1.0, 2.0, 3.0]
        assert merged.service_demands.tolist() == [0.2, 0.0, 0.4]
        assert merged.duration == 6.0

    def test_split_merge_roundtrip(self, rng):
        base = renewal_trace(Exponential(0.7), 300.0, rng)
        demands = rng.uniform(0.1, 0.9, size=len(base))
        trace = Trace(base.arrival_times, duration=300.0,
                      service_demands=demands)
        assignments = rng.integers(0, 4, size=len(trace))
        merged = Trace.merge(trace.split(assignments, n_parts=4))
        assert np.array_equal(merged.arrival_times, trace.arrival_times)
        assert merged.duration == trace.duration
        # demand multiset survives; order of simultaneous arrivals may not
        assert np.allclose(np.sort(merged.service_demands),
                           np.sort(demands))
