"""Per-request routing against independent NumPy oracles.

``PowerAwareRouter`` and ``JoinShortestQueueRouter`` (``decide_one``,
``route_step_batch`` and ``route``) and the circuit-breaker state of
the fault-aware loop run on Python scalars and lists.  The oracles below
state the same rules with whole-fleet NumPy array ops (``np.where``,
``argmin`` / ``argmax``, boolean-mask assignment) and share no code
with the routers: every choice, tie-break and breaker transition must
agree exactly, at exact ties in queue length and last completion, on
the awake-window boundary, for simultaneous arrivals, for an empty
trace and for all-True, single-True and absent masks.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.device import get_preset
from repro.fleet import JoinShortestQueueRouter, PowerAwareRouter, RouteContext
from repro.fleet.dispatch import BreakerConfig, _BreakerFleet

DEVICE = get_preset("mobile_hdd")
FLEET_SIZES = st.sampled_from([1, 2, 3, 8, 64])
_NO_ROOM = np.iinfo(np.int64).max


# ---------------------------------------------------------------------- #
# router oracles: the decision tree in whole-fleet array ops
# ---------------------------------------------------------------------- #

def oracle_power_aware(queue_len, last_completion, now, window, max_queue,
                       alive=None):
    awake = (queue_len > 0) | (now - last_completion < window)
    eligible = alive if alive is not None else np.ones(
        queue_len.size, dtype=bool
    )
    room = awake & eligible & (queue_len < max_queue)
    if room.any():
        return int(np.argmin(np.where(room, queue_len, _NO_ROOM)))
    sleeping = ~awake & eligible
    if sleeping.any():
        return int(np.argmax(np.where(sleeping, last_completion, -np.inf)))
    return int(np.argmin(np.where(eligible, queue_len, _NO_ROOM)))


def oracle_jsq(queue_len, alive=None):
    if alive is None:
        return int(np.argmin(queue_len))
    return int(np.argmin(np.where(alive, queue_len, _NO_ROOM)))


def oracle_trace(arrivals, demands, n_devices, decide):
    """The epoch-advance path: a per-device completion list settled by
    a full scan, NumPy backlog arrays, one oracle decision
    ``decide(queue_len, last_completion, now)`` per arrival."""
    pending = [[] for _ in range(n_devices)]
    queue_len = np.zeros(n_devices, dtype=np.int64)
    last_completion = np.zeros(n_devices)
    out = np.empty(arrivals.size, dtype=np.int64)
    for i, (now, demand) in enumerate(zip(arrivals.tolist(),
                                          demands.tolist())):
        for d in range(n_devices):
            pending[d] = [c for c in pending[d] if c > now]
            queue_len[d] = len(pending[d])
        choice = decide(queue_len, last_completion, now)
        done = max(now, float(last_completion[choice])) + demand
        pending[choice].append(done)
        last_completion[choice] = done
        out[i] = choice
    return out


# ---------------------------------------------------------------------- #
# inputs: small value pools, so ties and window boundaries are common
# ---------------------------------------------------------------------- #

NOW = 10.0
#: windows and completions on a binary grid: ``NOW - lc == window``
#: exactly for some draws, the ``<`` / ``<=`` boundary
WINDOWS = st.sampled_from([0.0, 0.5, 2.0])
COMPLETIONS = st.sampled_from([0.0, 7.5, 8.0, 9.5, 10.0, 10.5, 12.0])


@st.composite
def masks(draw, n):
    kind = draw(st.sampled_from(["none", "all", "single", "any"]))
    if kind == "none":
        return None
    if kind == "all":
        return np.ones(n, dtype=bool)
    if kind == "single":
        alive = np.zeros(n, dtype=bool)
        alive[draw(st.integers(0, n - 1))] = True
        return alive
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@st.composite
def decisions(draw):
    n = draw(FLEET_SIZES)
    queue_len = np.array(
        draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    last_completion = np.array(
        draw(st.lists(COMPLETIONS, min_size=n, max_size=n))
    )
    return (queue_len, last_completion, draw(WINDOWS),
            draw(st.integers(1, 4)), draw(masks(n)))


@st.composite
def traces(draw):
    """Arrivals on a quarter-second grid (simultaneous arrivals and
    completions landing exactly on later arrivals), demands including
    zero, possibly empty."""
    ticks = draw(st.lists(st.integers(0, 60), max_size=40))
    arrivals = np.array(sorted(ticks), dtype=np.float64) * 0.25
    demands = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                      min_size=arrivals.size, max_size=arrivals.size)),
        dtype=np.float64,
    )
    return (arrivals, demands, draw(FLEET_SIZES), draw(WINDOWS),
            draw(st.integers(1, 4)))


def as_lists(queue_len, last_completion, alive):
    """The oracle's arrays as ``decide_one``'s list arguments, in
    ``(queue_len, last_completion, alive)`` order."""
    return (queue_len.tolist(), last_completion.tolist(),
            None if alive is None else alive.tolist())


def context(arrivals, demands, n_devices):
    return RouteContext(arrivals=arrivals, demands=demands,
                        n_devices=n_devices, device=DEVICE,
                        rng=np.random.default_rng(0))


class TestPowerAwareOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=decisions())
    # no room anywhere, two sleeping devices tie on the latest
    # completion: the first of the tie wins
    @example(case=(np.array([4, 0, 0]), np.array([12.0, 7.5, 7.5]),
                   0.5, 4, None))
    # busy but idle-looking device (q > 0, lc far in the past) must
    # count as awake
    @example(case=(np.array([1, 0]), np.array([0.0, 0.0]), 0.5, 4, None))
    # idle for exactly the window: asleep (strict <)
    @example(case=(np.array([0, 0]), np.array([8.0, 9.5]), 2.0, 4, None))
    @example(case=(np.array([3, 3]), np.array([12.0, 12.0]), 0.5, 3,
                   np.array([False, True])))
    def test_decide_one_matches_oracle(self, case):
        queue_len, last_completion, window, max_queue, alive = case
        router = PowerAwareRouter(awake_window=window, max_queue=max_queue)
        state = {"window": window}
        ctx = context(np.empty(0), np.empty(0), queue_len.size)
        qs, lcs, live = as_lists(queue_len, last_completion, alive)
        got = router.decide_one(state, qs, lcs, NOW, ctx, alive=live)
        want = oracle_power_aware(queue_len, last_completion, NOW, window,
                                  max_queue, alive)
        assert type(got) is int
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(case=traces())
    # window 0: every idle device is asleep at once, so each arrival
    # takes the wake-most-recent branch over tied completions
    @example(case=(np.array([0.0, 0.0, 0.0, 0.25, 0.25]),
                   np.array([0.25, 0.25, 0.25, 0.0, 0.5]), 3, 0.0, 1))
    # completion lands exactly on the next arrival, window boundary
    @example(case=(np.array([0.0, 0.5, 1.0, 1.0]),
                   np.array([0.5, 0.0, 0.5, 0.5]), 2, 0.5, 1))
    @example(case=(np.empty(0), np.empty(0), 8, 2.0, 4))
    def test_route_step_batch_and_route_match_oracle(self, case):
        arrivals, demands, n_devices, window, max_queue = case
        router = PowerAwareRouter(awake_window=window, max_queue=max_queue)
        want = oracle_trace(
            arrivals, demands, n_devices,
            lambda q, lc, now: oracle_power_aware(q, lc, now, window,
                                                  max_queue),
        )
        stepped = router.route_step_batch(
            context(arrivals, demands, n_devices)
        )
        assert stepped.dtype == np.int64
        assert stepped.tolist() == want.tolist()
        routed = router.route(context(arrivals, demands, n_devices))
        assert routed.tolist() == want.tolist()


class TestJoinShortestQueueOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=decisions())
    @example(case=(np.array([2, 1, 1]), np.zeros(3), 0.0, 1,
                   np.array([True, False, True])))
    @example(case=(np.array([0, 0]), np.zeros(2), 0.0, 1,
                   np.array([False, False])))
    def test_decide_one_matches_oracle(self, case):
        queue_len, last_completion, _, _, alive = case
        ctx = context(np.empty(0), np.empty(0), queue_len.size)
        qs, lcs, live = as_lists(queue_len, last_completion, alive)
        got = JoinShortestQueueRouter().decide_one(
            {}, qs, lcs, NOW, ctx, alive=live
        )
        assert type(got) is int
        assert got == oracle_jsq(queue_len, alive)

    @settings(max_examples=300, deadline=None)
    @given(case=traces())
    # completions land exactly on later arrivals: settled at ``<=``, so
    # device 0 is empty again for the second and the fourth request
    @example(case=(np.array([0.0, 0.5, 0.5, 1.0]),
                   np.array([0.5, 0.5, 0.0, 0.5]), 2, 0.0, 1))
    @example(case=(np.empty(0), np.empty(0), 8, 0.0, 1))
    def test_route_step_batch_and_route_match_oracle(self, case):
        arrivals, demands, n_devices, _, _ = case
        want = oracle_trace(arrivals, demands, n_devices,
                            lambda q, lc, now: oracle_jsq(q))
        router = JoinShortestQueueRouter()
        stepped = router.route_step_batch(
            context(arrivals, demands, n_devices)
        )
        assert stepped.dtype == np.int64
        assert stepped.tolist() == want.tolist()
        routed = router.route(context(arrivals, demands, n_devices))
        assert routed.tolist() == want.tolist()


# ---------------------------------------------------------------------- #
# breaker oracle: the per-device state machine on NumPy arrays
# ---------------------------------------------------------------------- #

_CLOSED, _OPEN, _HALF_OPEN = 0, 1, 2


class OracleBreaker:
    def __init__(self, n_devices, config):
        self.config = config
        self.trips = 0
        self.state = np.zeros(n_devices, dtype=np.int8)
        self.failures = np.zeros(n_devices, dtype=np.int64)
        self.successes = np.zeros(n_devices, dtype=np.int64)
        self.opened_at = np.zeros(n_devices)

    def routing_mask(self, now):
        open_mask = self.state == _OPEN
        ready = open_mask & (now - self.opened_at >= self.config.recovery_time)
        self.state[ready] = _HALF_OPEN
        self.successes[ready] = 0
        open_mask &= ~ready
        if not open_mask.any() or open_mask.all():
            return None
        return ~open_mask

    def _trip(self, d, now):
        self.state[d] = _OPEN
        self.opened_at[d] = now
        self.trips += 1

    def record_failure(self, d, now):
        if self.state[d] == _HALF_OPEN:
            self._trip(d, now)
        elif self.state[d] == _CLOSED:
            self.failures[d] += 1
            if self.failures[d] >= self.config.failure_threshold:
                self.failures[d] = 0
                self._trip(d, now)

    def record_outcome(self, d, now, wait):
        if wait > self.config.latency_threshold:
            self.record_failure(d, now)
        elif self.state[d] == _HALF_OPEN:
            self.successes[d] += 1
            if self.successes[d] >= self.config.half_open_successes:
                self.state[d] = _CLOSED
                self.failures[d] = 0
        elif self.state[d] == _CLOSED:
            self.failures[d] = 0


RECOVERY = 4.0
LATENCY = 1.0
#: whole-second instants, so ``now - opened_at == recovery_time`` hits
#: exactly; not monotone, as retried attempts are not
_BREAKER_TIMES = st.integers(0, 30).map(float)
#: queue waits on either side of (and at) the latency threshold
_WAITS = st.sampled_from([0.0, LATENCY, math.nextafter(LATENCY, math.inf),
                          5.0])


@st.composite
def breaker_programs(draw):
    n = draw(st.integers(1, 4))
    device = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.just("failure"), device, _BREAKER_TIMES),
        st.tuples(st.just("outcome"), device, _BREAKER_TIMES, _WAITS),
    )
    config = BreakerConfig(
        failure_threshold=draw(st.integers(1, 3)),
        recovery_time=RECOVERY,
        half_open_successes=draw(st.integers(1, 2)),
        latency_threshold=LATENCY,
    )
    return n, config, draw(st.lists(op, max_size=60))


class TestBreakerOracle:
    @settings(max_examples=300, deadline=None)
    @given(program=breaker_programs())
    # every breaker trips: the mask is dropped, then each recovers at
    # exactly opened_at + recovery_time
    @example(program=(2, BreakerConfig(failure_threshold=1,
                                       recovery_time=RECOVERY,
                                       latency_threshold=LATENCY),
                      [("failure", 0, 1.0), ("failure", 1, 2.0),
                       ("outcome", 0, 5.0, 0.0), ("outcome", 1, 6.0, 5.0),
                       ("outcome", 1, 10.0, LATENCY)]))
    # a half-open reprobe fails by timeout and re-trips
    @example(program=(3, BreakerConfig(failure_threshold=2,
                                       recovery_time=RECOVERY,
                                       latency_threshold=LATENCY),
                      [("outcome", 2, 0.0, 5.0), ("outcome", 2, 0.0, 5.0),
                       ("failure", 0, 4.0), ("outcome", 2, 4.0, 5.0),
                       ("failure", 2, 8.0)]))
    def test_replay_matches_oracle(self, program):
        n, config, ops = program
        fleet = _BreakerFleet(n, config)
        oracle = OracleBreaker(n, config)
        for op in ops:
            kind, d, now = op[:3]
            if kind == "failure":
                fleet.record_failure(d, now)
                oracle.record_failure(d, now)
            else:
                fleet.record_outcome(d, now, op[3])
                oracle.record_outcome(d, now, op[3])
            got = fleet.routing_mask(now)
            want = oracle.routing_mask(now)
            if want is None:
                assert got is None, op
            else:
                assert all(type(ok) is bool for ok in got), op
                assert got == want.tolist(), op
            assert fleet.trips == oracle.trips, op
            assert fleet.n_open == int((oracle.state == _OPEN).sum()), op
            assert list(fleet.state) == oracle.state.tolist(), op
            assert list(fleet.failures) == oracle.failures.tolist(), op
            assert list(fleet.successes) == oracle.successes.tolist(), op
            assert list(fleet.opened_at) == oracle.opened_at.tolist(), op

    def test_all_tripped_fleet_is_reached(self):
        """The first explicit example above must trip every breaker at
        once, or the replay never exercises the dropped mask."""
        fleet = _BreakerFleet(2, BreakerConfig(failure_threshold=1,
                                               recovery_time=RECOVERY))
        fleet.record_failure(0, 1.0)
        fleet.record_failure(1, 2.0)
        assert fleet.n_open == 2
        assert fleet.routing_mask(2.0) is None
        assert fleet.routing_mask(5.0) == [True, False]
