"""Event-driven continuous-time DPM simulator.

Simulates one power-managed device serving a FIFO request stream under an
idle-period policy (:mod:`repro.sim.policy_api`).  This is the realistic
substrate of the repository — transition latencies, wake-on-arrival,
break-even accounting — used by the cross-policy comparison experiment
(EXT-POLICY) and the device examples, complementing the slotted DTMDP
used for the exact-optimality figures.

Semantics
---------
- Requests are served one at a time, in the device's *home* (initial,
  servicing) state, each taking its trace demand or ``service_time``.
- When the queue drains, the device parks in its wait state
  (:func:`default_wait_state`: the cheapest state with a free, instant
  round trip to home, typically "idle", else home itself) and the
  policy's :meth:`~repro.sim.policy_api.EventPolicy.on_idle` decides
  whether/when to fall to a deeper state.
- Arrivals always trigger a wake-up.  A down transition in flight cannot
  be preempted: the device completes it, then immediately transitions up
  (the standard non-preemptable assumption).
- Energy = state residency x power + transition energies; transitions
  with latency integrate at their mean power.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from ..checks import check_positive
from ..device import PowerStateMachine
from ..workload.trace import Trace
from .events import ARRIVAL, SERVICE_DONE, TIMEOUT, TRANSITION_DONE, Event, EventQueue
from .policy_api import NEVER, EventPolicy, IdleContext, IdleDecision
from .stats import (EnergyMeter, IdleTracker, LatencyTracker, RunTotals,
                    SimReport, compile_report)


def resolve_demands(trace: Trace, service_time: float) -> np.ndarray:
    """Per-request service demands with the simulator's default rule.

    A trace without demands (or with non-positive entries) falls back to
    ``service_time``.  Shared by the scalar event loop and the vectorized
    kernel so both paths serve identical workloads.
    """
    demands = trace.service_demands
    if demands is None:
        return np.full(len(trace), float(service_time))
    demands = demands.astype(float)
    return np.where(demands > 0, demands, float(service_time))


def default_wait_state(device: PowerStateMachine) -> str:
    """Cheapest state with a free, instant round trip to the home state."""
    home = device.initial_state
    best = home
    best_power = device.state(home).power
    for name in device.state_names:
        if name == home:
            continue
        if not (device.can_transition(home, name) and device.can_transition(name, home)):
            continue
        down = device.transition(home, name)
        up = device.transition(name, home)
        if down.energy == 0 and up.energy == 0 and down.latency == 0 and up.latency == 0:
            power = device.state(name).power
            if power < best_power:
                best = name
                best_power = power
    return best


@dataclass
class _Request:
    arrival: float
    demand: float


class DPMSimulator:
    """One device + one trace + one policy -> a :class:`SimReport`.

    Parameters
    ----------
    device:
        Power model; its ``initial_state`` is the serving (home) state.
    policy:
        Idle-period policy under test.
    service_time:
        Default per-request service demand, used when the trace carries
        no demands.
    oracle:
        If True the policy is shown the true next arrival time in its
        :class:`~repro.sim.policy_api.IdleContext` (for oracle baselines).
    keep_latencies:
        If False the report drops the raw per-request latency array
        after the summary percentiles are computed (sweep workers use
        this to keep pickled results small).
    """

    def __init__(
        self,
        device: PowerStateMachine,
        policy: EventPolicy,
        service_time: float = 0.5,
        oracle: bool = False,
        keep_latencies: bool = True,
    ) -> None:
        self.device = device
        self.policy = policy
        self.service_time = check_positive("service_time", service_time)
        self.home = device.initial_state
        #: where the device lingers before a (possible) shutdown
        self.wait_state = default_wait_state(device)
        self.oracle = oracle
        self.keep_latencies = keep_latencies

    # ------------------------------------------------------------------ #

    def run(self, trace: Trace) -> SimReport:
        """Simulate the full trace; returns the final report."""
        return compile_report(self.device.state(self.home).power,
                              self.totals(trace), self.keep_latencies)

    def totals(self, trace: Trace) -> RunTotals:
        """Simulate the full trace; returns its raw totals."""
        self.policy.reset()
        queue: Deque[_Request] = deque()
        events = EventQueue()
        meter = EnergyMeter()
        latency = LatencyTracker()
        idle_stats = IdleTracker()

        arrivals = trace.arrival_times
        demands = resolve_demands(trace, self.service_time)
        for i, t in enumerate(arrivals):
            events.push(Event(float(t), ARRIVAL, _Request(float(t), float(demands[i]))))

        # --- device condition -------------------------------------------------
        state = self.home               # steady state name when not in flight
        in_flight: Optional[Tuple[str, str]] = None  # (source, target)
        wake_pending = False
        serving: Optional[_Request] = None
        idle_since: Optional[float] = None   # time the current idle period began
        timeout_ticket: Optional[int] = None
        pending_target: Optional[str] = None  # decision target awaiting timeout

        meter.set_condition(0.0, self.device.state(state).power, state)

        def begin_transition(now: float, source: str, target: str) -> None:
            nonlocal state, in_flight
            tr = self.device.transition(source, target)
            if tr.latency == 0:
                meter.add_lump(tr.energy)
                state = target
                in_flight = None
                meter.set_condition(now, self.device.state(target).power, target)
                on_transition_done(now, source, target, instant=True)
            else:
                in_flight = (source, target)
                meter.set_condition(
                    now, tr.mean_power, f"{source}->{target}"
                )
                events.push(Event(now + tr.latency, TRANSITION_DONE, (source, target)))

        def start_service(now: float) -> None:
            nonlocal serving
            serving = queue.popleft()
            events.push(Event(now + serving.demand, SERVICE_DONE, serving))

        def end_idle(now: float) -> None:
            """Close the idle period (an arrival ended it)."""
            nonlocal idle_since, timeout_ticket
            if idle_since is None:
                return
            length = now - idle_since
            idle_stats.record_idle(length)
            self.policy.on_idle_end(length)
            idle_since = None
            if timeout_ticket is not None:
                events.cancel(timeout_ticket)
                timeout_ticket = None

        def on_transition_done(
            now: float, source: str, target: str, instant: bool = False
        ) -> None:
            nonlocal state, in_flight, wake_pending
            state = target
            in_flight = None
            if not instant:
                meter.set_condition(now, self.device.state(target).power, target)
            if (wake_pending or queue) and target != self.home:
                wake_pending = False
                begin_transition(now, target, self.home)
            elif target == self.home and queue and serving is None:
                wake_pending = False
                start_service(now)

        def begin_idle(now: float) -> None:
            """Queue drained: park, consult the policy, arm the timeout."""
            nonlocal idle_since, timeout_ticket, pending_target
            idle_since = now
            if state != self.wait_state and self.wait_state != self.home:
                begin_transition(now, state, self.wait_state)
            ctx = IdleContext(
                now=now,
                device=self.device,
                wait_state=self.wait_state,
                next_arrival=self._peek_next_arrival(events) if self.oracle else None,
            )
            decision = self.policy.on_idle(ctx)
            pending_target = None
            if decision.target_state is None or math.isinf(decision.timeout):
                return
            if not self.device.has_state(decision.target_state):
                raise KeyError(
                    f"policy chose unknown state {decision.target_state!r}"
                )
            if decision.timeout == 0:
                self._note_shutdown(idle_stats, events, now, decision.target_state)
                begin_transition(now, state, decision.target_state)
            else:
                pending_target = decision.target_state
                timeout_ticket = events.push(
                    Event(now + decision.timeout, TIMEOUT, decision.target_state)
                )

        # --- main loop --------------------------------------------------------
        begin_idle(0.0)
        now = 0.0
        while True:
            event = events.pop()
            if event is None:
                break
            if event.kind == TIMEOUT and event.time >= trace.duration:
                # the observation window ended before this timeout fired;
                # the would-be shutdown is outside the experiment
                continue
            now = event.time
            if event.kind == ARRIVAL:
                req: _Request = event.payload
                queue.append(req)
                end_idle(now)
                if serving is None and in_flight is None:
                    if state == self.home:
                        start_service(now)
                    else:
                        begin_transition(now, state, self.home)
                elif in_flight is not None and in_flight[1] != self.home:
                    wake_pending = True
            elif event.kind == SERVICE_DONE:
                req = event.payload
                latency.record(req.arrival, now)
                serving = None
                if queue:
                    start_service(now)
                else:
                    begin_idle(now)
            elif event.kind == TRANSITION_DONE:
                source, target = event.payload
                on_transition_done(now, source, target)
            elif event.kind == TIMEOUT:
                timeout_ticket = None
                if idle_since is not None and in_flight is None and serving is None:
                    target = event.payload
                    self._note_shutdown(idle_stats, events, now, target)
                    begin_transition(now, state, target)

        # close the final idle period at the trace end
        end_time = max(now, trace.duration)
        if idle_since is not None:
            idle_stats.record_idle(end_time - idle_since)
            self.policy.on_idle_end(end_time - idle_since)
        meter.finish(end_time)

        return RunTotals(
            duration=end_time, total_energy=meter.total_energy,
            latencies=latency.values, idle_lengths=idle_stats.idle_lengths,
            n_shutdowns=idle_stats.n_shutdowns,
            n_wrong_shutdowns=idle_stats.n_wrong_shutdowns,
            state_residency=meter.residency, n_requests=latency.count,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _peek_next_arrival(self, events: EventQueue) -> Optional[float]:
        """Earliest pending ARRIVAL time (oracle support)."""
        best = None
        for time_, _, ticket, event in events._heap:  # noqa: SLF001 - same module family
            if ticket in events._cancelled:
                continue
            if event.kind == ARRIVAL and (best is None or time_ < best):
                best = time_
        return best

    def _note_shutdown(
        self,
        idle_stats: IdleTracker,
        events: EventQueue,
        now: float,
        target: str,
    ) -> None:
        """Record the shutdown and judge it against the break-even time."""
        try:
            break_even = self.device.break_even_time(target, self.home)
        except (ValueError, KeyError):
            break_even = 0.0
        next_arrival = self._peek_next_arrival(events)
        remaining_idle = None if next_arrival is None else next_arrival - now
        idle_stats.record_shutdown(remaining_idle, break_even)
