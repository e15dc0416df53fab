"""The fault-aware routing loop against an independent per-request replay.

:func:`~repro.fleet.route_with_overload` is pinned elsewhere by the
recorded digests of failover-only outcomes, which say what an engine
once returned, not why.  The replay below restates the loop's contract
from its docstrings and shares no code with it: its own backlog
(per-device pending lists filtered on every settle), capped exponential
backoff, token bucket, deadline checks, brownout inflation (read off
the raw interval lists, not the :class:`~repro.workload.FaultSchedule`
queries) and router decisions (whole-fleet NumPy oracles; the breaker
is the NumPy state machine of ``test_fleet_routing_oracle``).  Every
field of the :class:`~repro.fleet.OverloadOutcome` must agree exactly,
on grid-aligned inputs where ties, simultaneous arrivals, zero demands,
exactly adjacent fail-stop / brownout intervals, deadline boundaries,
single-device fleets and whole-fleet outages are common.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.device import get_preset
from repro.fleet import (
    BreakerConfig,
    FailoverConfig,
    OverloadConfig,
    RetryBudgetConfig,
    RouteContext,
    SHED_BUDGET,
    make_router,
    route_with_overload,
)
from repro.fleet.dispatch import PowerAwareRouter
from repro.workload import FaultSchedule

from test_fleet_routing_oracle import OracleBreaker, oracle_power_aware

DEVICE = get_preset("mobile_hdd")
ROUTE_SEED = 3
_BIG = np.iinfo(np.int64).max


# ---------------------------------------------------------------------- #
# the replay
# ---------------------------------------------------------------------- #

def severity(intervals, d, t):
    for start, end, sev in intervals[d]:
        if start <= t < end:
            return sev
    return 1.0


class ReplayRouter:
    """One decision per call, each router's rule on NumPy arrays."""

    def __init__(self, name, n, window, max_queue):
        self.name, self.n = name, n
        self.window, self.max_queue = window, max_queue
        self.cursor = 0
        self.rng = np.random.default_rng(ROUTE_SEED)

    def decide(self, queue_len, last_completion, now, alive):
        if self.name == "round_robin":
            pick = self.cursor % self.n
            self.cursor += 1
            if alive is None:
                return pick
            order = np.roll(np.arange(self.n), -pick)
            return int(order[np.argmax(alive[order])])
        if self.name == "random":
            if alive is None:
                return int(self.rng.integers(0, self.n))
            live = np.flatnonzero(alive)
            return int(live[self.rng.integers(0, live.size)])
        if self.name == "jsq":
            eligible = np.ones(self.n, bool) if alive is None else alive
            return int(np.argmin(np.where(eligible, queue_len, _BIG)))
        return oracle_power_aware(queue_len, last_completion, now,
                                  self.window, self.max_queue, alive)


def replay(arrivals, demands, n, intervals, config, router):
    failover = config.failover
    breaker = (OracleBreaker(n, config.breaker)
               if config.breaker is not None else None)
    budget = config.retry_budget
    tokens = None if budget is None else budget.capacity
    refilled_at = 0.0
    pending = [[] for _ in range(n)]
    last = np.zeros(n)
    out = {key: [] for key in ("assignments", "dispatch_times", "retries",
                               "shed_reasons", "deadlines", "completions",
                               "effective_demands")}

    def queue_len(t):
        for d in range(n):
            pending[d] = [c for c in pending[d] if c > t]
        return np.array([len(p) for p in pending])

    def breaker_mask(t):
        return None if breaker is None else breaker.routing_mask(t)

    for arrival, demand in zip(arrivals.tolist(), demands.tolist()):
        deadline = math.inf if config.slo is None else arrival + config.slo
        t, retries, landed, reason = arrival, 0, None, 0
        choice = router.decide(queue_len(t), last, t, breaker_mask(t))
        while True:
            sev = severity(intervals, choice, t)
            if sev != math.inf:
                landed = choice
                break
            if breaker is not None:
                breaker.record_failure(choice, t)
            if retries == failover.max_retries:
                choice = -1
                break
            if tokens is not None:
                if t > refilled_at:
                    tokens = min(budget.capacity, tokens
                                 + (t - refilled_at) * budget.refill_rate)
                    refilled_at = t
                if tokens < 1.0:
                    choice, reason = -2, 2
                    break
                tokens -= 1.0
            retries += 1
            t += min(failover.backoff_base * 2.0 ** (retries - 1),
                     failover.backoff_cap)
            if t > deadline:
                choice, reason = -2, 1
                break
            q = queue_len(t)
            if failover.policy == "resubmit":
                choice = router.decide(q, last, t, breaker_mask(t))
                continue
            alive = np.array([severity(intervals, d, t) != math.inf
                              for d in range(n)])
            if alive.any():
                mask = breaker_mask(t)
                both = alive if mask is None else alive & mask
                choice = router.decide(q, last, t,
                                       both if both.any() else alive)
        completion, booked = math.nan, demand
        if landed is not None:
            booked = demand * sev
            start = max(t, last[landed])
            completion = start + booked
            if completion > deadline:
                choice, reason = -2, 1
                completion, booked = math.nan, demand
            else:
                pending[landed].append(completion)
                last[landed] = completion
                if breaker is not None:
                    breaker.record_outcome(landed, t, start - t)
        for key, value in (("assignments", choice), ("dispatch_times", t),
                           ("retries", retries), ("shed_reasons", reason),
                           ("deadlines", deadline),
                           ("completions", completion),
                           ("effective_demands", booked)):
            out[key].append(value)
    return out, 0 if breaker is None else breaker.trips


# ---------------------------------------------------------------------- #
# inputs: quarter-second grid, so every comparison can tie exactly
# ---------------------------------------------------------------------- #

GRID = 0.25
#: segment kinds of a device's timeline: up, fail-stop, brownouts
_SEGMENTS = st.sampled_from([1.0, 1.0, math.inf, math.inf, 1.5, 2.0])


@st.composite
def timelines(draw, horizon):
    """One device's intervals: consecutive grid segments, each up,
    fail-stop or browned out — so fail-stop and brownout intervals are
    often exactly adjacent."""
    intervals, t = [], 0.0
    for sev, ticks in draw(st.lists(
        st.tuples(_SEGMENTS, st.integers(1, 12)), max_size=6
    )):
        end = min(t + ticks * GRID, horizon)
        if end <= t:
            break
        if sev != 1.0:
            intervals.append((t, end, sev))
        t = end
    return intervals


@st.composite
def configs(draw):
    max_retries = draw(st.integers(0, 3))
    base = draw(st.sampled_from([0.25, 0.5]))
    failover = FailoverConfig(
        policy=draw(st.sampled_from(["next_best", "resubmit"])),
        max_retries=max_retries,
        backoff_base=base,
        backoff_cap=draw(st.sampled_from([base, 1.0, 2.0])),
    )
    breaker = draw(st.none() | st.builds(
        BreakerConfig,
        failure_threshold=st.integers(1, 3),
        recovery_time=st.sampled_from([0.5, 1.0, 4.0]),
        half_open_successes=st.integers(1, 2),
        latency_threshold=st.sampled_from([math.inf, 0.5, 1.0]),
    ))
    budget = draw(st.none() | st.builds(
        RetryBudgetConfig,
        capacity=st.sampled_from([0.0, 1.0, 2.0, 2.5]),
        refill_rate=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
    ))
    slo = draw(st.none() | st.sampled_from([0.25, 0.75, 1.0, 2.0]))
    return OverloadConfig(failover=failover, breaker=breaker,
                          retry_budget=budget, slo=slo)


@st.composite
def cases(draw):
    n = draw(st.sampled_from([1, 1, 2, 3, 4]))
    ticks = sorted(draw(st.lists(st.integers(0, 40), max_size=40)))
    arrivals = np.array(ticks, dtype=np.float64) * GRID
    demands = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      min_size=arrivals.size, max_size=arrivals.size)),
        dtype=np.float64,
    )
    horizon = 12.0
    if draw(st.booleans()):
        # one shared timeline: the whole fleet goes down together
        intervals = [draw(timelines(horizon))] * n
    else:
        intervals = [draw(timelines(horizon)) for _ in range(n)]
    router = draw(st.sampled_from(["round_robin", "random", "jsq",
                                   "power_aware"]))
    window = draw(st.sampled_from([0.0, 0.5, 2.0]))
    max_queue = draw(st.integers(1, 3))
    return (arrivals, demands, n, intervals, horizon, draw(configs()),
            router, window, max_queue)


def route(case):
    arrivals, demands, n, intervals, horizon, config, name, window, \
        max_queue = case
    router = (PowerAwareRouter(awake_window=window, max_queue=max_queue)
              if name == "power_aware" else make_router(name))
    ctx = RouteContext(arrivals=arrivals, demands=demands, n_devices=n,
                       device=DEVICE, rng=np.random.default_rng(ROUTE_SEED))
    return route_with_overload(router, ctx, FaultSchedule(intervals, horizon),
                               config)


def _case(arrivals, demands, n, intervals, config, name="jsq", window=0.5,
          max_queue=2):
    return (np.array(arrivals, dtype=np.float64),
            np.array(demands, dtype=np.float64), n, intervals, 12.0, config,
            name, window, max_queue)


_REFILL = ([0.0, 5.0], [0.0, 0.0], 1,
           [[(0.0, 1.0, math.inf), (5.0, 6.0, math.inf)]],
           OverloadConfig(
               failover=FailoverConfig(max_retries=3, backoff_base=0.25,
                                       backoff_cap=0.5),
               retry_budget=RetryBudgetConfig(capacity=1.0,
                                              refill_rate=1.0),
           ))
#: 0.25 + 0.5 == 0.75 == slo exactly, and 1.0 + 0.75 == 1.0 + slo
_AT_DEADLINE = ([0.0, 1.0, 1.0], [0.0, 0.75, 0.25], 1,
                [[(0.0, 0.75, math.inf)]],
                OverloadConfig(
                    failover=FailoverConfig(max_retries=3,
                                            backoff_base=0.25,
                                            backoff_cap=1.0),
                    slo=0.75,
                ))


class TestReplayOracle:
    @settings(max_examples=500, deadline=None)
    @given(case=cases())
    # the bucket drains, then refills up to (not past) its cap over a
    # quiet spell: one more retry, then the request is budget-shed
    @example(case=_case(*_REFILL))
    # retries land exactly on the deadline (0.25 + 0.5 == 0.75), and a
    # booked completion meets it exactly
    @example(case=_case(*_AT_DEADLINE))
    # adjacent fail-stop and brownout intervals on every device of the
    # fleet: the whole fleet is down, then slow
    @example(case=_case([0.0, 0.25, 0.5, 0.5], [0.25, 0.0, 0.5, 0.5], 2,
                        [[(0.0, 0.5, math.inf), (0.5, 1.5, 2.0)]] * 2,
                        OverloadConfig(breaker=BreakerConfig(
                            failure_threshold=1, recovery_time=0.5)),
                        name="random"))
    # the fleet is down for the whole trace: every request drops
    @example(case=_case([0.0, 0.0, 1.0], [0.5, 0.5, 0.5], 3,
                        [[(0.0, 12.0, math.inf)]] * 3, OverloadConfig(),
                        name="round_robin"))
    def test_outcome_matches_replay(self, case):
        arrivals, demands, n, intervals, _, config, name, window, \
            max_queue = case
        want, trips = replay(arrivals, demands, n, intervals, config,
                             ReplayRouter(name, n, window, max_queue))
        got = route(case)
        assert got.assignments.dtype == np.int64
        assert got.arrivals is arrivals
        for key, values in want.items():
            assert np.array_equal(getattr(got, key), np.array(values),
                                  equal_nan=True), key
        assert got.n_breaker_trips == trips

    def test_refill_example_binds(self):
        """Each request of the refill example spends exactly one token:
        the first drains the full bucket, the second finds it refilled to
        its cap of one token after a quiet spell."""
        out = route(_case(*_REFILL))
        assert out.retries.tolist() == [1, 1]
        assert out.shed_reasons.tolist() == [SHED_BUDGET, SHED_BUDGET]

    def test_deadline_example_binds(self):
        """In the deadline example a retry reaches the deadline exactly
        and still lands, and a booked completion equals its deadline."""
        out = route(_case(*_AT_DEADLINE))
        assert out.assignments.tolist() == [0, 0, -2]
        assert out.dispatch_times[0] == out.deadlines[0]
        assert out.completions[1] == out.deadlines[1]
