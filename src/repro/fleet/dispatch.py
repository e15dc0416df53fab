"""Request dispatch: route one arrival stream across N device replicas.

The paper's DPM problem is posed per device; a fleet serves one
high-rate arrival :class:`~repro.workload.Trace` with N replicas of the
same power-managed device behind a dispatcher.  The dispatcher owns the
(virtual) global clock: it walks the arrival stream once, assigns every
request to a device, and hands each device its sub-trace — the devices
then run the ordinary single-device simulation (scalar event loop or
vectorized busy-period kernel) on their own streams.

Each router's semantics of record is :meth:`Router.decide_one`, one
routing decision against the per-device backlog; the scalar
:meth:`Router.route` loops it over a trace.  Two opt-in fast paths are
pinned bit-identical against that loop:

- **Stateless** routers (:class:`RoundRobinRouter`,
  :class:`RandomRouter`) are pure functions of the request index (plus a
  routing RNG stream), so :meth:`Router.route_batch` partitions the
  whole trace with NumPy ops.  ``random`` makes one stream draw per
  decision on every path; its per-decision form maps values from a
  pre-filled block with NumPy's own bounded-integer rule.
- **Queue-aware** routers (:class:`JoinShortestQueueRouter`,
  :class:`PowerAwareRouter`) depend on the evolving per-device backlog,
  so they cannot decide all requests at once — but they *can* advance
  the whole fleet one routing epoch (one arrival) per round.
  :meth:`Router.route_step_batch` is that path: each epoch's choice
  is an inlined scan of the backlog's Python lists.  ``jsq``'s needs no
  completion heap: its choice is the first idle device, and a device is
  idle exactly when its last booked completion is not after the
  arrival.

Under faults or overload protection every router goes through one
per-request loop, :func:`route_with_overload`: failover retries,
circuit breakers, a retry budget and deadline shedding, each a no-op
when its :class:`OverloadConfig` knob is off.  It runs over the
heap-settled per-device :class:`_Backlog` (amortized one
completion-heap pop per request), with its settle and assign inlined,
as ``power_aware``'s step loop does.  A request that lands at its first
attempt costs one :meth:`~Router.decide_one` call and one severity
read: the loop calls the breaker fleet only while a breaker is open or
a booking can change one, and writes only the results that differ from
a plain landing.

Per-request routing state is Python lists end to end (backlogs,
breaker and live masks): at fleet sizes of 1-64 a NumPy call costs
more than the scan it would replace.  NumPy stays at the whole-trace
boundary — the arrival and demand arrays, the severity sweep and the
:class:`OverloadOutcome` arrays.

Queue-aware routing uses the *dispatcher-level* service model: FIFO
per-device backlog from arrival times and service demands, ignoring DPM
wake-up delays (the dispatcher does not know each device's power state
ahead of simulation; a router that did would couple routing to policy
internals).  :class:`PowerAwareRouter` approximates power state from the
same backlog picture: a device that is busy, or idle for less than an
awake window, is presumed still awake.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from ..checks import check_count, check_nonnegative, check_positive
from ..device import PowerStateMachine
from ..runtime.executor import retry_backoff_seconds
from ..sim.simulator import resolve_demands
from ..workload.faults import FaultSchedule, no_faults, resolve_fault_schedule
from ..workload.trace import Trace


@dataclass(frozen=True)
class RouteContext:
    """Everything a router may consult while assigning one trace.

    Attributes
    ----------
    arrivals:
        Absolute request arrival times (sorted, one per request).
    demands:
        Resolved per-request service demands (same length), via
        :func:`~repro.sim.simulator.resolve_demands` — the service model
        queue-aware routers plan against.
    n_devices:
        Fleet size; assignments must land in ``[0, n_devices)``.
    device:
        The replicated device model (for break-even style constants).
    rng:
        Routing randomness stream, freshly seeded per dispatch so a
        dispatch is a pure function of ``(trace, seed)``.
    """

    arrivals: np.ndarray
    demands: np.ndarray
    n_devices: int
    device: PowerStateMachine
    rng: np.random.Generator


class Router(ABC):
    """Assignment policy of the dispatcher."""

    #: short name used in report tables and the CLI registry
    name: str = "router"

    def route(self, ctx: RouteContext) -> np.ndarray:
        """Reference semantics: one pass over the requests, one
        assignment per request (int64 array in ``[0, n_devices)``).

        The fault-aware loop :func:`route_with_overload` with nothing
        failing and every knob off: each request is one
        :meth:`decide_one` call at its arrival instant, booked right
        after the decision.
        """
        # no intervals, so the schedule's horizon is never consulted
        always_up = no_faults(ctx.n_devices, horizon=1.0)
        return route_with_overload(self, ctx, always_up).assignments

    def route_batch(self, ctx: RouteContext) -> Optional[np.ndarray]:
        """Vectorized assignments, or None.

        Opt-in fast path mirroring
        :meth:`~repro.sim.policy_api.EventPolicy.decide_batch`: only a
        router whose decisions are independent of the evolving queue
        state may implement it, and it must reproduce :meth:`route`
        bit-for-bit (pinned in tests/test_fleet_dispatch.py).
        """
        return None

    def route_step_batch(self, ctx: RouteContext) -> Optional[np.ndarray]:
        """Epoch-advance vectorized assignments, or None.

        Second opt-in fast path, mirroring
        :meth:`~repro.sim.policy_api.EventPolicy.decide_step_batch`: a
        queue-aware router advances its per-device backlog one epoch
        (one arrival) per round, with its decision scan inlined instead
        of a :meth:`decide_one` call.  It must reproduce :meth:`route`
        bit-for-bit (pinned in tests/test_fleet_dispatch.py).  Consulted
        by the dispatcher only after :meth:`route_batch` declined.
        """
        return None

    # ------------------------------------------------------------------ #
    # per-decision form: the semantics of record
    # ------------------------------------------------------------------ #

    def begin_route(self, ctx: RouteContext) -> dict:
        """Fresh per-trace decision state for :meth:`decide_one`.

        The routing loops own the backlog (the fault-aware loop books
        retried requests at their delayed dispatch instants), so this
        state carries only what the router itself threads between
        decisions — a round-robin cursor, a resolved awake window.
        """
        return {}

    @abstractmethod
    def decide_one(
        self,
        state: dict,
        queue_len: List[int],
        last_completion: List[float],
        now: float,
        ctx: RouteContext,
        alive: Optional[List[bool]] = None,
    ) -> int:
        """One routing decision at instant ``now``.

        This is the router's semantics factored to a single request:
        :meth:`route` loops it over a trace, and
        :func:`route_with_overload` interleaves it with retries.

        ``alive`` is the admissible-device mask at ``now``, one bool
        per device: when given (never all-False), the router must
        choose its best *admissible* device — the mask-aware ranking
        failover and breakers fall back on.  With ``alive=None`` the
        choice must not depend on the mask at all.  ``queue_len`` /
        ``last_completion`` are the backlog's live per-device lists at
        ``now`` (post-settle), read only.
        """


class RoundRobinRouter(Router):
    """Cycle through the devices in request order (the classic default)."""

    name = "round_robin"

    def route_batch(self, ctx: RouteContext) -> np.ndarray:
        return np.arange(ctx.arrivals.size, dtype=np.int64) % ctx.n_devices

    def begin_route(self, ctx: RouteContext) -> dict:
        return {"next": 0}

    def decide_one(self, state, queue_len, last_completion, now, ctx,
                   alive=None) -> int:
        choice = state["next"] % ctx.n_devices
        state["next"] += 1
        if alive is None or alive[choice]:
            return choice
        # first live device cyclically after the cursor's pick
        for off in range(1, ctx.n_devices):
            candidate = (choice + off) % ctx.n_devices
            if alive[candidate]:
                return candidate
        return choice  # unreachable: callers never pass an all-dead mask


class RandomRouter(Router):
    """Uniform-random assignment from the routing stream.

    One stream draw per decision: :meth:`route_batch` takes all of them
    in one ``integers(0, n_devices, size=T)`` call, and
    :meth:`decide_one` maps 32-bit values from a pre-filled block
    (:data:`_DRAW_BLOCK` at a time, held in the :meth:`begin_route`
    state) to ``[0, n)`` with NumPy's Lemire rule, its rejection loop
    included.  That is ``Generator.integers(0, n)`` one call at a time,
    bit for bit (pinned so), so every path picks the same devices.  How
    far a route leaves the generator advanced is not part of the
    contract: the block may hold values no decision used.
    """

    name = "random"

    def route_batch(self, ctx: RouteContext) -> np.ndarray:
        return ctx.rng.integers(0, ctx.n_devices, size=ctx.arrivals.size,
                                dtype=np.int64)

    def begin_route(self, ctx: RouteContext) -> dict:
        if ctx.n_devices > 1 << 32:
            # past 2**32 NumPy switches to a 64-bit draw rule
            raise ValueError(
                f"random routing draws 32-bit values; n_devices must be "
                f"<= 2**32, got {ctx.n_devices}"
            )
        return {"draws": []}

    def decide_one(self, state, queue_len, last_completion, now, ctx,
                   alive=None) -> int:
        # with every device alive the masked draw indexes the identity,
        # so a no-fault pass consumes the stream exactly like
        # route_batch()
        if alive is None:
            live = None
            n = ctx.n_devices
        else:
            live = [d for d, ok in enumerate(alive) if ok]
            n = len(live)
        if n == 1:
            pick = 0  # integers(0, 1) draws nothing
        else:
            # Lemire: the high word of value * n, redrawn while the low
            # word falls under 2**32 mod n; that threshold is below n,
            # so it is computed only for a low word below n
            draws = state["draws"]
            m = (draws.pop() if draws else _refill(draws, ctx.rng)) * n
            if (m & 0xFFFFFFFF) < n:
                threshold = (0x100000000 - n) % n
                while (m & 0xFFFFFFFF) < threshold:
                    m = (draws.pop() if draws else _refill(draws, ctx.rng)) * n
            pick = m >> 32
        return pick if live is None else live[pick]


#: 32-bit values a :class:`RandomRouter` route takes from its stream at once
_DRAW_BLOCK = 256


def _refill(draws: List[int], rng: np.random.Generator) -> int:
    """Refill the empty stack ``draws`` with the stream's next
    :data:`_DRAW_BLOCK` 32-bit values, and pop the first of them."""
    block = rng.integers(0, 1 << 32, size=_DRAW_BLOCK, dtype=np.uint32)
    draws.extend(block[::-1].tolist())
    return draws.pop()


class _Backlog:
    """Per-device FIFO backlog under the dispatcher-level service model.

    Exposes live ``queue_len: List[int]`` / ``last_completion:
    List[float]`` and the completion heap ``_heap``, all updated in
    place.  One completion min-heap shared by all devices settles the
    backlog: amortized one heap pop per request over a whole trace,
    instead of a walk over every device's pending list per request.
    :meth:`settle` and :meth:`assign` are the semantics of record
    (pinned against plain pending lists); the per-request loops bind
    the lists and heap once per trace and inline the two bodies, whose
    method calls would be a large share of a decision's cost.
    """

    def __init__(self, n_devices: int) -> None:
        self.last_completion: List[float] = [0.0] * n_devices
        self.queue_len: List[int] = [0] * n_devices
        self._heap: List[Tuple[float, int]] = []

    def settle(self, now: float) -> None:
        """Drop requests already completed by ``now`` (all devices)."""
        heap = self._heap
        queue_len = self.queue_len
        while heap and heap[0][0] <= now:
            queue_len[heappop(heap)[1]] -= 1

    def assign(self, d: int, now: float, demand: float) -> None:
        """Book one request on device ``d`` arriving at ``now``."""
        lc = self.last_completion[d]
        done = (lc if lc > now else now) + demand  # == max(now, lc)
        self.last_completion[d] = done
        self.queue_len[d] += 1
        heappush(self._heap, (done, d))


def _shortest_live(queue_len: List[int], live: List[bool]) -> int:
    """Index of the shortest queue among live devices, on Python ints.

    Strict ``<`` keeps the lowest index on ties, and an all-dead mask
    gives 0 — both as NumPy's argmin over queue lengths with dead
    devices set to a sentinel maximum.
    """
    choice = 0
    best = -1
    for d, (q, ok) in enumerate(zip(queue_len, live)):
        if ok and (best < 0 or q < best):
            choice = d
            best = q
    return choice


class JoinShortestQueueRouter(Router):
    """Send each request to the device with the fewest pending requests.

    The classic latency-oriented router: queue length is measured at the
    request's arrival instant under the dispatcher-level service model;
    ties break to the lowest device index (deterministic).
    """

    name = "jsq"

    def route_step_batch(self, ctx: RouteContext) -> np.ndarray:
        # An empty queue is the minimum, so the choice is the first idle
        # device, and a device is idle exactly when its last booked
        # completion is not after ``now`` (it serves FIFO).  So this
        # loop keeps no completion heap: each device's pending
        # completions sit in its own deque, emptied when it is found
        # idle, and settled and counted only when every device is busy
        # (strict < keeps the lowest-index tie, as argmin).  The bench
        # bar wants this loop >= 5x route()
        n_devices = ctx.n_devices
        pending = [deque() for _ in range(n_devices)]
        last = [-math.inf] * n_devices  # never booked: idle at any instant
        out = []
        book = out.append
        for now, demand in zip(ctx.arrivals.tolist(), ctx.demands.tolist()):
            for choice, lc in enumerate(last):
                if lc <= now:
                    pending[choice].clear()
                    start = now
                    break
            else:
                shortest = -1
                for d, queue in enumerate(pending):
                    # the device's last completion, still after ``now``,
                    # ends this loop before the deque runs dry
                    while queue[0] <= now:
                        queue.popleft()
                    if shortest < 0 or len(queue) < shortest:
                        choice = d
                        shortest = len(queue)
                start = last[choice]
            done = start + demand
            last[choice] = done
            pending[choice].append(done)
            book(choice)
        return np.asarray(out, dtype=np.int64)

    def decide_one(self, state, queue_len, last_completion, now, ctx,
                   alive=None) -> int:
        if alive is None:
            # first of the ties, as argmin
            return queue_len.index(min(queue_len))
        return _shortest_live(queue_len, alive)


class PowerAwareRouter(Router):
    """Prefer devices that are presumably still awake.

    A device counts as *awake* at an arrival when it is busy, or has
    been idle for less than ``awake_window`` seconds (the linger of a
    timeout policy; defaults to the break-even time of the device's
    deepest state, the 2-competitive timeout).  Among awake devices with
    queue room (fewer than ``max_queue`` pending requests) the shortest
    queue wins; when every awake device is full, the most recently used
    *sleeping* device is woken (bounding latency); when the whole fleet
    is asleep, the most recently used device is re-woken — consolidation
    that leaves the other devices' idle periods long enough to amortize
    deep sleeps.  Ties break to the lowest device index.
    """

    name = "power_aware"

    def __init__(
        self,
        awake_window: Optional[float] = None,
        max_queue: int = 4,
    ) -> None:
        # the step path relies on ``window >= 0``, which NaN fails
        if awake_window is not None and not awake_window >= 0:
            raise ValueError(f"awake_window must be >= 0, got {awake_window}")
        self._awake_window = awake_window
        self._max_queue = check_count("max_queue", max_queue)

    def resolve_window(self, device: PowerStateMachine) -> float:
        """The configured awake window, or the device's default."""
        if self._awake_window is not None:
            return float(self._awake_window)
        return device.break_even_time(
            device.deepest_state(), device.initial_state
        )

    def route_step_batch(self, ctx: RouteContext) -> np.ndarray:
        # the decide_one tree inlined as one scan per branch: strict
        # < / > keep the lowest index on ties, as NumPy's argmin /
        # argmax do; _Backlog's settle and assign are inlined as in
        # jsq's loop
        window = self.resolve_window(ctx.device)
        max_queue = self._max_queue
        devices = range(ctx.n_devices)
        heap: List[Tuple[float, int]] = []
        qlen = [0] * ctx.n_devices
        last = [0.0] * ctx.n_devices
        out = []
        book = out.append
        for now, demand in zip(ctx.arrivals.tolist(), ctx.demands.tolist()):
            while heap and heap[0][0] <= now:
                qlen[heappop(heap)[1]] -= 1
            # shortest awake queue with room; ``q < best`` from
            # max_queue is the room test and the argmin in one.  Awake
            # is ``now - last < window`` alone, provably equal to
            # decide_one's ``q > 0 or now - lc < window``: q > 0 implies
            # an unsettled completion strictly past ``now``, hence
            # last > now, hence (IEEE: x - y == 0 iff x == y)
            # now - last < 0 <= window already (NaN windows are rejected)
            choice = -1
            best = max_queue
            for d in devices:
                q = qlen[d]
                if q < best and now - last[d] < window:
                    choice = d
                    best = q
            if choice < 0:
                # wake the most recently used sleeping device
                recent = -math.inf
                for d in devices:
                    lc = last[d]
                    if lc > recent and not now - lc < window:
                        choice = d
                        recent = lc
                if choice < 0:
                    # every device awake and full: shortest queue
                    choice = qlen.index(min(qlen))
            lc = last[choice]
            done = (lc if lc > now else now) + demand
            last[choice] = done
            qlen[choice] += 1
            heappush(heap, (done, choice))
            book(choice)
        return np.asarray(out, dtype=np.int64)

    def begin_route(self, ctx: RouteContext) -> dict:
        return {"window": self.resolve_window(ctx.device)}

    def decide_one(self, state, queue_len, last_completion, now, ctx,
                   alive=None) -> int:
        # the class docstring's decision tree with every eligibility
        # test ANDed against the mask, on Python values, scanning the
        # lists in place; with alive=None (or all-True) each branch
        # reduces to the unmasked tree route_step_batch inlines, so
        # choices — and tie-breaks — match it exactly.  Awake keeps the
        # ``q > 0`` half: callers may pass lists no backlog produced
        window = state["window"]
        choice = -1
        best = self._max_queue  # room test and argmin in one compare
        for d, q in enumerate(queue_len):
            if (q < best and (q > 0 or now - last_completion[d] < window)
                    and (alive is None or alive[d])):
                choice = d
                best = q
        if choice >= 0:
            return choice
        # wake the most recently used sleeping (live) device
        recent = -math.inf
        for d, lc in enumerate(last_completion):
            if (lc > recent and not (queue_len[d] > 0 or now - lc < window)
                    and (alive is None or alive[d])):
                choice = d
                recent = lc
        if choice >= 0:
            return choice
        # every live device awake and full: plain shortest live queue
        if alive is None:
            return queue_len.index(min(queue_len))
        return _shortest_live(queue_len, alive)


#: registry used by the sweep layer and the CLI ``--router`` flag
ROUTERS: Dict[str, Type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    RandomRouter.name: RandomRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    PowerAwareRouter.name: PowerAwareRouter,
}


def make_router(name: str) -> Router:
    """Instantiate a registered router by name (CLI / sweep entry)."""
    try:
        return ROUTERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
        ) from None


#: failover policies accepted by :class:`FailoverConfig`
FAILOVER_POLICIES = ("next_best", "resubmit")


@dataclass(frozen=True)
class FailoverConfig:
    """How the dispatcher absorbs a request routed to a down device.

    The first attempt is always the router's natural, fault-oblivious
    choice (so a no-fault run is bit-identical to plain routing).  When
    that device is down at the dispatch instant, the request backs off
    — capped exponential, delay ``min(base * 2**(k-1), cap)`` before
    retry ``k`` — and is re-decided:

    - ``"next_best"`` (default): the retry decision sees the live/dead
      mask and lands on the router's best *surviving* device —
      health-checked failover.  Requests drop only while the whole
      fleet is down.
    - ``"resubmit"``: the retry goes back to the fault-oblivious router
      (a stale health view): the router may well re-pick the dead
      device, so a long outage can exhaust ``max_retries`` and drop the
      request — the cost of health-blind dispatch, measurable in the
      report's dropped/retry metrics.

    After ``max_retries`` backoffs the request is dropped (assignment
    ``-1``) rather than waiting forever.  ``max_retries=0`` means
    first-failure drop: no backoff ever fires, so the backoff shape is
    not validated in that case (``backoff_cap >= backoff_base`` is only
    meaningful when a retry can actually take a delay).
    """

    policy: str = "next_best"
    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0

    def __post_init__(self) -> None:
        if self.policy not in FAILOVER_POLICIES:
            raise ValueError(
                f"unknown failover policy {self.policy!r}; "
                f"choose from {FAILOVER_POLICIES}"
            )
        check_count("max_retries", self.max_retries, 0)
        # ``not x < y`` also rejects NaN
        if not 0 < self.backoff_base < math.inf:
            raise ValueError(
                f"backoff_base must be finite and > 0, "
                f"got {self.backoff_base}"
            )
        if self.max_retries > 0 and not self.backoff_cap >= self.backoff_base:
            raise ValueError(
                f"backoff_cap must be >= backoff_base, got "
                f"{self.backoff_cap} < {self.backoff_base}"
            )


def _backoff_delay(k: int, config: FailoverConfig) -> float:
    """Delay before retry ``k`` (1-based): capped exponential."""
    return retry_backoff_seconds(k, config.backoff_base, config.backoff_cap)


# ---------------------------------------------------------------------- #
# overload resilience: circuit breakers, retry budget, deadline shedding
# ---------------------------------------------------------------------- #

#: assignment sentinel — retries exhausted, request dropped
DROPPED_ASSIGNMENT = -1
#: assignment sentinel — request proactively shed (deadline or budget)
SHED_ASSIGNMENT = -2

#: ``OverloadOutcome.shed_reasons`` codes
SHED_NONE = 0
SHED_DEADLINE = 1
SHED_BUDGET = 2


@dataclass(frozen=True)
class BreakerConfig:
    """Per-device circuit breaker driven by observed dispatch outcomes.

    The breaker watches what the dispatcher actually observes — a chosen
    device dead at the attempt instant, or a booked queue wait past
    ``latency_threshold`` — rather than the fault schedule itself, so a
    sick device is routed around *before* its fault interval is known.
    Classic three-state machine, per device:

    - **closed** (healthy): failures count; ``failure_threshold``
      consecutive failures trip the breaker open (a success resets the
      run).
    - **open**: the device is masked out of routing decisions for
      ``recovery_time`` seconds after the trip.
    - **half-open**: after the recovery window the device takes probe
      traffic again; ``half_open_successes`` consecutive successes
      close the breaker, any failure re-trips it immediately.

    When every device is breaker-open the mask is dropped entirely —
    breakers bound blast radius, they never black-hole the whole fleet.
    """

    failure_threshold: int = 3
    recovery_time: float = 30.0
    half_open_successes: int = 1
    latency_threshold: float = math.inf

    def __post_init__(self) -> None:
        check_count("failure_threshold", self.failure_threshold)
        if not self.recovery_time > 0:
            raise ValueError(
                f"recovery_time must be > 0, got {self.recovery_time}"
            )
        check_count("half_open_successes", self.half_open_successes)
        if math.isnan(self.latency_threshold) or self.latency_threshold <= 0:
            raise ValueError(
                f"latency_threshold must be > 0 (inf = latency-blind), "
                f"got {self.latency_threshold}"
            )


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Fleet-wide retry token bucket.

    Every backoff retry (across *all* requests) consumes one token;
    tokens refill continuously at ``refill_rate`` per second up to
    ``capacity``.  An empty bucket sheds the request instead of retrying
    — bounding total retry amplification so an outage degrades into
    load shedding rather than a retry storm.
    """

    capacity: float = 32.0
    refill_rate: float = 1.0

    def __post_init__(self) -> None:
        if math.isnan(self.capacity) or self.capacity < 0:
            raise ValueError(
                f"capacity must be >= 0, got {self.capacity}"
            )
        check_nonnegative("refill_rate", self.refill_rate)


@dataclass(frozen=True)
class OverloadConfig:
    """Settings of the fault-aware routing loop.

    Composes the backoff/failover shape with three independent
    protections, each disabled by default: per-device circuit breakers
    (``breaker``), a fleet-wide retry budget (``retry_budget``), and
    deadline-aware admission control (``slo`` seconds per request; a
    request whose predicted completion — backlog plus brownout-inflated
    demand — misses ``arrival + slo`` is shed instead of dispatched).
    With all three left ``None`` — ``OverloadConfig(failover=...)`` —
    the loop is plain failover routing: retries and drops only.
    """

    failover: FailoverConfig = FailoverConfig()
    breaker: Optional[BreakerConfig] = None
    retry_budget: Optional[RetryBudgetConfig] = None
    slo: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.failover, FailoverConfig):
            raise TypeError(
                f"failover must be a FailoverConfig, got {self.failover!r}"
            )
        if self.breaker is not None and not isinstance(
            self.breaker, BreakerConfig
        ):
            raise TypeError(
                f"breaker must be a BreakerConfig or None, "
                f"got {self.breaker!r}"
            )
        if self.retry_budget is not None and not isinstance(
            self.retry_budget, RetryBudgetConfig
        ):
            raise TypeError(
                f"retry_budget must be a RetryBudgetConfig or None, "
                f"got {self.retry_budget!r}"
            )
        if self.slo is not None and not (
            0 < float(self.slo) < math.inf
        ):
            raise ValueError(
                f"slo must be finite and > 0 (None disables deadlines), "
                f"got {self.slo}"
            )


#: breaker states (per-device codes in :class:`_BreakerFleet`)
_BRK_CLOSED, _BRK_OPEN, _BRK_HALF_OPEN = 0, 1, 2


class _BreakerFleet:
    """Per-device breaker state of the fault-aware routing loop.

    Fed the (choice, instant, wait) sequence of every dispatch attempt.
    With ``config=None`` every method is a no-op and
    :meth:`routing_mask` returns None — the disabled path adds nothing
    to the failover semantics.  Per-device state lives in Python lists:
    the loop touches one device per call, and a mask list is built only
    while some breaker is open.  ``n_open``, ``state`` and ``failures``
    exist whatever the config (a disabled fleet stays all-closed with
    no failures), so the routing loop can skip the calls that provably
    change nothing: :meth:`routing_mask` while ``n_open`` is 0, and
    :meth:`record_outcome` for a timely booking on a closed breaker
    with no failure run.
    """

    def __init__(self, n_devices: int, config: Optional[BreakerConfig]):
        self.config = config
        self.trips = 0
        self.n_open = 0  # breakers in state open
        self.state = [_BRK_CLOSED] * n_devices
        self.failures = [0] * n_devices
        if config is None:
            return
        self.successes = [0] * n_devices
        self.opened_at = [0.0] * n_devices

    def routing_mask(self, now: float) -> Optional[List[bool]]:
        """Mask of breaker-admissible devices at ``now`` (True = route
        here), after promoting recovered breakers to half-open.  None
        when breakers are disabled or none is open — an all-True mask
        would mean the same to every router, decisions *and* RNG stream
        consumption alike, so trips alone perturb routing."""
        if self.config is None or not self.n_open:
            return None
        state = self.state
        recovery = self.config.recovery_time
        for d, opened in enumerate(self.opened_at):
            if state[d] == _BRK_OPEN and now - opened >= recovery:
                state[d] = _BRK_HALF_OPEN
                self.successes[d] = 0
                self.n_open -= 1
        if not self.n_open or self.n_open == len(state):
            # none open any more, or the whole fleet tripped: never
            # black-hole it
            return None
        return [st != _BRK_OPEN for st in state]

    def record_failure(self, d: int, now: float) -> None:
        """A dispatch attempt on ``d`` failed (dead pick or timeout)."""
        if self.config is None:
            return
        st = self.state[d]
        if st == _BRK_HALF_OPEN:
            # failed reprobe: straight back to open
            self.state[d] = _BRK_OPEN
            self.n_open += 1
            self.opened_at[d] = now
            self.trips += 1
        elif st == _BRK_CLOSED:
            self.failures[d] += 1
            if self.failures[d] >= self.config.failure_threshold:
                self.state[d] = _BRK_OPEN
                self.n_open += 1
                self.opened_at[d] = now
                self.failures[d] = 0
                self.trips += 1
        # already open (all-tripped fallback routed here): stay open

    def record_success(self, d: int) -> None:
        """A dispatch attempt on ``d`` booked within the threshold."""
        if self.config is None:
            return
        st = self.state[d]
        if st == _BRK_HALF_OPEN:
            self.successes[d] += 1
            if self.successes[d] >= self.config.half_open_successes:
                self.state[d] = _BRK_CLOSED
                self.failures[d] = 0
        elif st == _BRK_CLOSED:
            self.failures[d] = 0  # a success breaks the consecutive run

    def record_outcome(self, d: int, now: float, wait: float) -> None:
        """Classify a booked dispatch: queue wait past the latency
        threshold counts as a failure (timeout), anything else as a
        success."""
        if self.config is None:
            return
        if wait > self.config.latency_threshold:
            self.record_failure(d, now)
        else:
            self.record_success(d)


class _RetryBudget:
    """Fleet-wide retry token bucket of the fault-aware routing loop.

    Refill happens lazily at consumption instants with plain
    Python-float arithmetic; attempt instants are not globally monotone
    (a backed-off retry can pass a later arrival), so refill only ever
    advances the clock.
    """

    def __init__(self, config: Optional[RetryBudgetConfig]):
        self.config = config
        if config is not None:
            self.level = float(config.capacity)
            self._last = 0.0

    def take(self, now: float) -> bool:
        """Consume one retry token at ``now``; False means exhausted
        (the caller sheds instead of retrying).  Always True when the
        budget is disabled."""
        if self.config is None:
            return True
        if now > self._last:
            self.level = min(
                self.config.capacity,
                self.level + (now - self._last) * self.config.refill_rate,
            )
            self._last = now
        if self.level < 1.0:
            return False
        self.level -= 1.0
        return True


def _routable(
    alive: List[bool], breaker_mask: Optional[List[bool]]
) -> List[bool]:
    """Live devices, narrowed to breaker-admissible ones when any such
    device survives — breakers refine failover, they never turn a
    reachable fleet into a black hole."""
    if breaker_mask is None:
        return alive
    both = [a and b for a, b in zip(alive, breaker_mask)]
    return both if any(both) else alive


@dataclass
class OverloadOutcome:
    """Per-request result of one fault-aware routing pass.

    ``assignments[i]`` is the landing device, ``-1`` for a dropped
    request (retries exhausted, fleet down) or ``-2`` for a *shed*
    request (deadline or retry-budget admission control — see
    ``shed_reasons``).  ``dispatch_times[i]`` is the instant the request
    finally dispatched (its arrival plus any backoff delays; for a
    dropped or shed request, the instant the dispatcher gave up) and
    ``retries[i]`` the number of backoff delays taken.  ``completions[i]`` is
    the dispatcher-model booked completion instant for landed requests
    (NaN otherwise) and ``deadlines[i]`` the admission deadline
    (``arrival + slo``; +inf with deadlines disabled) — together they
    define goodput: a request is *good* when it landed and its booked
    completion made its deadline.  ``effective_demands[i]`` is the
    service demand actually booked (brownout-inflated for landed
    requests; the nominal demand otherwise).
    """

    arrivals: np.ndarray
    assignments: np.ndarray
    dispatch_times: np.ndarray
    retries: np.ndarray
    shed_reasons: np.ndarray
    deadlines: np.ndarray
    completions: np.ndarray
    effective_demands: np.ndarray
    n_breaker_trips: int = 0

    @property
    def landed(self) -> np.ndarray:
        """Boolean mask of requests that reached a device."""
        return self.assignments >= 0

    @property
    def shed(self) -> np.ndarray:
        """Boolean mask of proactively shed requests."""
        return self.assignments == SHED_ASSIGNMENT

    @property
    def n_shed(self) -> int:
        """Requests shed by deadline or retry-budget admission control."""
        return int(self.shed.sum())

    @property
    def n_budget_shed(self) -> int:
        """Requests shed specifically by retry-budget exhaustion."""
        return int((self.shed_reasons == SHED_BUDGET).sum())

    @property
    def n_dropped(self) -> int:
        """Requests that exhausted their retries (fleet unreachable)."""
        return int((self.assignments == DROPPED_ASSIGNMENT).sum())

    @property
    def n_retries(self) -> int:
        """Total backoff retries across all requests."""
        return int(self.retries.sum())

    @property
    def good(self) -> np.ndarray:
        """Landed requests whose booked completion made the deadline."""
        with np.errstate(invalid="ignore"):
            return self.landed & (self.completions <= self.deadlines)

    @property
    def goodput(self) -> float:
        """Fraction of *offered* requests served within their deadline
        (1.0 for an empty trace).  Never exceeds throughput — shed and
        dropped requests count against it."""
        n = int(self.arrivals.size)
        return float(self.good.sum()) / n if n else 1.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of *landed* requests that made their deadline
        (1.0 when nothing landed — there is nothing to attain)."""
        n_landed = int(self.landed.sum())
        return float(self.good.sum()) / n_landed if n_landed else 1.0

    @property
    def latency_inflation(self) -> float:
        """Mean added dispatch delay (seconds) over landed requests."""
        landed = self.landed
        if not landed.any():
            return 0.0
        extra = self.dispatch_times[landed] - self.arrivals[landed]
        return float(extra.mean())


def route_with_overload(
    router: Router,
    ctx: RouteContext,
    faults: FaultSchedule,
    config: OverloadConfig = OverloadConfig(),
) -> OverloadOutcome:
    """The fault-aware routing loop: failover plus overload protection.

    Walks the requests once; each request is resolved fully — natural
    choice, backoff retries, landing, drop or shed — before the next
    arrival is considered (retried requests book at their *delayed*
    dispatch instants, so a later arrival can observe their bookings).
    The first attempt is the router's natural choice, masked only by
    open breakers.  While the chosen device is down:

    - the failure is recorded against that device's breaker;
    - after ``max_retries`` backoffs the request drops;
    - every backoff retry must first win a token from the fleet-wide
      retry budget, else the request is shed (``shed_reasons`` =
      budget);
    - a retry instant past the request's deadline sheds it
      (``shed_reasons`` = deadline);
    - otherwise the retry is re-decided: ``resubmit`` asks the router
      again with only the breaker mask, ``next_best`` with the live
      mask narrowed by the breakers (held while the whole fleet is
      down).

    A landed request books ``demand × severity_at(device, t)`` — a
    browned-out device serves, but slowly — unless that booked
    completion misses the deadline, which sheds it instead.  Each knob
    of :class:`OverloadConfig` left at None is a no-op, so
    ``OverloadConfig(failover=...)`` is plain failover routing.

    A device is down exactly where its severity is infinite.
    Arrival-instant severities come from one whole-trace
    :meth:`~repro.workload.FaultSchedule.severity_rows` sweep; a retry
    reads its choice's severity from the exact
    :meth:`~repro.workload.FaultSchedule.severity_at` point query, and
    ``next_best`` its live mask from
    :meth:`~repro.workload.FaultSchedule.alive_mask`.  The loop runs
    over :class:`_Backlog`.
    """
    if faults.n_devices != ctx.n_devices:
        raise ValueError(
            f"fault schedule covers {faults.n_devices} devices, "
            f"context has {ctx.n_devices}"
        )
    failover = config.failover
    max_retries = failover.max_retries
    resubmit = failover.policy == "resubmit"
    n = int(ctx.arrivals.size)
    # the backlog's settle and assign are inlined below (retries still
    # call settle): with nothing failing, the per-request cost is the
    # router's decision plus these few list operations
    backlog = _Backlog(ctx.n_devices)
    queue_len = backlog.queue_len
    last_completion = backlog.last_completion
    heap = backlog._heap
    settle = backlog.settle
    state = router.begin_route(ctx)
    breaker = _BreakerFleet(ctx.n_devices, config.breaker)
    routing_mask = breaker.routing_mask
    record_failure = breaker.record_failure
    record_outcome = breaker.record_outcome
    # a booking changes a breaker only when it is late, lands on a
    # breaker that is not closed, or ends a failure run; anything else
    # would reset a failure count that is already 0
    breaker_state = breaker.state
    breaker_failures = breaker.failures
    latency_threshold = (
        math.inf if config.breaker is None
        else config.breaker.latency_threshold
    )
    take_token = _RetryBudget(config.retry_budget).take
    deadlines = (
        np.full(n, math.inf)
        if config.slo is None
        else ctx.arrivals + float(config.slo)
    )
    # first-attempt severities (inf = down) for the whole trace in one
    # vectorized interval lookup, read as one Python float per request
    # (kept as a (T, N) array: no T x N Python objects); retries use the
    # point queries
    first_severity = faults.severity_rows(ctx.arrivals).item
    arrivals = ctx.arrivals.tolist()
    # per-request results pre-filled with what a first-attempt landing
    # leaves, so only a retried or shed request writes more than its
    # assignment
    assignments = [0] * n
    dispatch_times = list(arrivals)
    retries = [0] * n
    shed_reasons = [SHED_NONE] * n
    completions = [math.nan] * n
    demands = ctx.demands.tolist()
    effective_demands = list(demands)
    deadline_list = deadlines.tolist()
    decide = router.decide_one
    severity_at = faults.severity_at
    alive_mask = faults.alive_mask
    inf = math.inf
    for i, now in enumerate(arrivals):
        while heap and heap[0][0] <= now:
            queue_len[heappop(heap)[1]] -= 1
        # routing_mask only promotes open breakers, and with none open
        # its mask is None
        mask = routing_mask(now) if breaker.n_open else None
        choice = decide(state, queue_len, last_completion, now, ctx, mask)
        severity = first_severity(i, choice)
        t = now
        k = 0
        reason = SHED_NONE
        deadline = deadline_list[i]
        while severity == inf:  # the chosen device is down
            record_failure(choice, t)
            if k == max_retries:
                choice = DROPPED_ASSIGNMENT
                break
            if not take_token(t):
                choice = SHED_ASSIGNMENT
                reason = SHED_BUDGET
                break
            k += 1
            t = t + _backoff_delay(k, failover)
            if t > deadline:
                choice = SHED_ASSIGNMENT
                reason = SHED_DEADLINE
                break
            settle(t)
            if resubmit:
                choice = decide(
                    state, queue_len, last_completion, t, ctx,
                    alive=routing_mask(t),
                )
            else:
                alive = alive_mask(t).tolist()
                if any(alive):
                    choice = decide(
                        state, queue_len, last_completion, t, ctx,
                        alive=_routable(alive, routing_mask(t)),
                    )
                # whole fleet down: hold the choice, back off
            severity = severity_at(choice, t)
        if choice >= 0:
            demand = demands[i] * severity
            lc = last_completion[choice]
            start = lc if lc > t else t  # == max(t, lc)
            done = start + demand
            if done > deadline:
                choice = SHED_ASSIGNMENT
                reason = SHED_DEADLINE
            else:
                last_completion[choice] = done
                queue_len[choice] += 1
                heappush(heap, (done, choice))
                completions[i] = done
                effective_demands[i] = demand
                wait = start - t
                if (wait > latency_threshold
                        or breaker_state[choice] != _BRK_CLOSED
                        or breaker_failures[choice]):
                    record_outcome(choice, t, wait)
        assignments[i] = choice
        if k:  # t moves only with a backoff
            dispatch_times[i] = t
            retries[i] = k
        if reason != SHED_NONE:
            shed_reasons[i] = reason
    return OverloadOutcome(
        arrivals=ctx.arrivals,
        assignments=np.array(assignments, dtype=np.int64),
        dispatch_times=np.array(dispatch_times, dtype=np.float64),
        retries=np.array(retries, dtype=np.int64),
        shed_reasons=np.array(shed_reasons, dtype=np.int8),
        deadlines=deadlines,
        completions=np.array(completions, dtype=np.float64),
        effective_demands=np.array(effective_demands, dtype=np.float64),
        n_breaker_trips=breaker.trips,
    )


class Dispatcher:
    """Split one arrival trace into per-device sub-traces.

    Parameters
    ----------
    router:
        Assignment policy (a :class:`Router` instance or registry name).
    n_devices:
        Fleet size (>= 1).
    device:
        The replicated device model (routers may consult its constants).
    service_time:
        Default per-request demand for the dispatcher-level service
        model, matching the simulator's default rule.
    seed:
        Routing-stream seed; a dispatch is a pure function of
        ``(trace, seed)``, so repeated dispatches are identical.
    """

    def __init__(
        self,
        router,
        n_devices: int,
        device: PowerStateMachine,
        service_time: float = 0.5,
        seed: int = 0,
    ) -> None:
        if isinstance(router, str):
            router = make_router(router)
        if not isinstance(router, Router):
            raise TypeError(f"router must be a Router or name, got {router!r}")
        self.router = router
        self.n_devices = check_count("n_devices", n_devices)
        self.device = device
        self.service_time = check_positive("service_time", service_time)
        self.seed = int(seed)

    def _context(self, trace: Trace) -> RouteContext:
        return RouteContext(
            arrivals=trace.arrival_times,
            demands=resolve_demands(trace, self.service_time),
            n_devices=self.n_devices,
            device=self.device,
            rng=np.random.default_rng(self.seed),
        )

    def assignments(self, trace: Trace, vectorized: bool = True) -> np.ndarray:
        """Per-request device assignments.

        ``vectorized=True`` uses :meth:`Router.route_batch` when the
        router offers it (closed form, stateless routers), else
        :meth:`Router.route_step_batch` (epoch-advance, queue-aware
        routers), else the scalar loop — each fast path bit-identical to
        :meth:`Router.route`; ``vectorized=False`` forces the scalar
        reference loop.
        """
        ctx = self._context(trace)
        if vectorized:
            batch = self.router.route_batch(ctx)
            if batch is not None:
                return np.asarray(batch, dtype=np.int64)
            # fresh rng per stage keeps each path a pure function of
            # (trace, seed); arrays are reused as-is
            ctx = dataclasses.replace(
                ctx, rng=np.random.default_rng(self.seed)
            )
            stepped = self.router.route_step_batch(ctx)
            if stepped is not None:
                return np.asarray(stepped, dtype=np.int64)
            ctx = dataclasses.replace(
                ctx, rng=np.random.default_rng(self.seed)
            )
        return np.asarray(self.router.route(ctx), dtype=np.int64)

    def dispatch(self, trace: Trace, vectorized: bool = True) -> List[Trace]:
        """Route and split: one sub-trace per device, full shared window."""
        return trace.split(
            self.assignments(trace, vectorized=vectorized),
            n_parts=self.n_devices,
        )

    def dispatch_with_faults(
        self,
        trace: Trace,
        faults,
        failover: FailoverConfig = FailoverConfig(),
        fault_seed: Optional[int] = None,
    ) -> Tuple[List[Trace], OverloadOutcome]:
        """Failover-only routing: :meth:`dispatch_with_overload` under
        ``OverloadConfig(failover=failover)``, for a required fault
        schedule."""
        if faults is None:
            raise ValueError(
                "dispatch_with_faults needs a fault schedule; "
                "use dispatch() for the fault-free path"
            )
        return self.dispatch_with_overload(
            trace, faults, OverloadConfig(failover=failover),
            fault_seed=fault_seed,
        )

    def dispatch_with_overload(
        self,
        trace: Trace,
        faults,
        overload: OverloadConfig = OverloadConfig(),
        fault_seed: Optional[int] = None,
    ) -> Tuple[List[Trace], OverloadOutcome]:
        """Route through :func:`route_with_overload` and split into
        per-device traces.

        ``faults`` is a :class:`~repro.workload.FaultSchedule`, a
        :class:`~repro.workload.FaultProcess` (realized over the trace
        window with ``fault_seed``, defaulting to the routing seed), or
        None — an always-up schedule, so pure admission control can run
        without fault injection.  Dropped and shed requests appear in
        the returned :class:`OverloadOutcome` but in no sub-trace.
        Landed requests enter their device's stream at their *delayed*
        dispatch instant with their brownout-inflated demand (a retried
        request can dispatch after a later arrival, so each sub-trace is
        stable-sorted by dispatch time), and the shared window is
        stretched to cover the latest landing.
        """
        schedule = resolve_fault_schedule(
            faults,
            self.n_devices,
            trace.duration,
            seed=self.seed if fault_seed is None else int(fault_seed),
        )
        if schedule is None:
            schedule = no_faults(self.n_devices, trace.duration)
        outcome = route_with_overload(
            self.router, self._context(trace), schedule, overload,
        )
        duration = float(trace.duration)
        landed = outcome.landed
        if landed.any():
            duration = max(
                duration, float(outcome.dispatch_times[landed].max())
            )
        subs: List[Trace] = []
        for d in range(self.n_devices):
            mask = outcome.assignments == d
            times = outcome.dispatch_times[mask]
            demands = outcome.effective_demands[mask]
            order = np.argsort(times, kind="stable")
            subs.append(
                Trace(times[order], duration=duration,
                      service_demands=demands[order])
            )
        return subs, outcome
