"""One fleet cell end to end: dispatch, simulate each device, aggregate.

:func:`run_fleet` is the fleet counterpart of
:func:`~repro.runtime.eventsim.simulate_trace`: route the shared arrival
stream across N device replicas, evaluate every sub-trace on the
single-device engine, and fold the per-device reports into a
:class:`~repro.fleet.report.FleetReport` (the fleet aggregate; the
per-device reports are dropped after the fold).

Routing makes one two-way decision per trace (:func:`_route`).  With
no ``faults`` and no ``overload`` the dispatcher's plain path runs
(closed-form ``route_batch`` for stateless routers, epoch-advance
``route_step_batch`` for queue-aware ones); otherwise the trace goes
through the fault-aware loop
:func:`~repro.fleet.dispatch.route_with_overload` under ``overload``,
or ``OverloadConfig()`` when only ``faults`` is given.  The
:class:`~repro.fleet.dispatch.OverloadConfig` is the one fault-routing
setting: the failover shape is its ``failover`` field.

Two engines, mirroring the repo's batched/scalar split:

- ``engine="auto"`` — :func:`run_fleet_batch` on the one trace: the
  vectorized routing paths (:func:`route_fleet_batch`), then one
  :func:`~repro.runtime.eventsim.simulate_runs_batch` call on the
  per-device sub-traces (:func:`evaluate_fleet_batch`) — the
  busy-period kernel over all gaps of all sub-traces for stateless
  policies, the lock-step engine over all sub-traces at once for stateful
  batchable policies (adaptive, predictive), and the scalar loop for
  everything else.  Routing never sees the policy, so a fleet sweep
  chunk routes its traces once and evaluates every policy on them.
- ``engine="scalar"`` — the reference dispatcher: the router's scalar
  assignment loop (or the fault-aware loop) plus the scalar
  :class:`~repro.sim.DPMSimulator` event loop per device.
  tests/test_fleet_sweep.py pins the fast engine against it
  field-for-field (rel tol <= 1e-9) on the fleet aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..device import PowerStateMachine
from ..runtime.eventsim import simulate_runs_batch
from ..runtime.telemetry import TELEMETRY
from ..sim.policy_api import EventPolicy
from ..sim.simulator import DPMSimulator
from ..workload.faults import resolve_fault_schedule
from ..workload.trace import Trace
from .dispatch import Dispatcher, OverloadConfig, Router
from .report import FleetReport, build_fleet_report

#: engines accepted by :func:`run_fleet`
ENGINES = ("auto", "scalar")


def _route(
    dispatcher: Dispatcher,
    trace: Trace,
    faults,
    fault_seed: int,
    overload: Optional[OverloadConfig],
    vectorized: bool = True,
) -> Tuple[List[Trace], dict]:
    """Route one trace: ``(sub-traces, fault/overload report fields)``.

    The one routing decision: with no ``faults`` and no ``overload``
    the trace takes the plain dispatch (its fast paths unless
    ``vectorized=False`` forces the scalar loop); otherwise it runs the
    fault-aware loop under ``overload or OverloadConfig()``.
    """
    n_offered = int(trace.arrival_times.size)
    if faults is None and overload is None:
        return (dispatcher.dispatch(trace, vectorized=vectorized),
                {"n_offered": n_offered})
    schedule = None
    if faults is not None:
        schedule = resolve_fault_schedule(
            faults, dispatcher.n_devices, trace.duration, seed=fault_seed,
        )
    subs, outcome = dispatcher.dispatch_with_overload(
        trace, schedule, overload or OverloadConfig(),
    )
    return subs, {
        "availability": 1.0 if schedule is None
        else float(schedule.availability().mean()),
        "n_retries": outcome.n_retries,
        "n_dropped": outcome.n_dropped,
        "failover_latency_inflation": outcome.latency_inflation,
        "n_shed": outcome.n_shed,
        "n_budget_shed": outcome.n_budget_shed,
        "goodput": outcome.goodput,
        "slo_attainment": outcome.slo_attainment,
        "n_breaker_trips": outcome.n_breaker_trips,
        "n_offered": n_offered,
    }


def run_fleet(
    device: PowerStateMachine,
    policy: EventPolicy,
    trace: Trace,
    router: Router,
    n_devices: int,
    service_time: float = 0.5,
    oracle: bool = False,
    route_seed: int = 0,
    engine: str = "auto",
    faults=None,
    fault_seed: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> FleetReport:
    """Simulate ``n_devices`` replicas of ``device`` sharing ``trace``.

    Each replica runs ``policy`` independently (the policy object is
    reused sequentially; every engine resets it per run, identical to
    how sweep cells share policy instances).  Deterministic given
    ``(trace, route_seed)`` for either engine.

    ``faults`` injects device failures: a
    :class:`~repro.workload.FaultSchedule` or a
    :class:`~repro.workload.FaultProcess` (realized over the trace
    window with ``fault_seed``, defaulting to ``route_seed``).
    ``overload`` (an :class:`~repro.fleet.dispatch.OverloadConfig`)
    sets the failover shape and the optional circuit breakers,
    fleet-wide retry budget and deadline shedding; faults without it
    run under ``OverloadConfig()``.  With either, routing goes through
    the fault-aware loop, and the report carries availability, retry,
    drop, inflation, shed, goodput, SLO-attainment and breaker-trip
    metrics.  Brownout (finite-severity) intervals inflate the booked
    demands.

    The fleet quantiles merge the exact per-device completion streams;
    the per-device reports are local to the call and are not returned.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "auto":
        return run_fleet_batch(
            device, policy, [trace], router, n_devices,
            service_time=service_time, oracle=oracle,
            route_seeds=[route_seed], faults=faults,
            fault_seeds=None if fault_seed is None else [fault_seed],
            overload=overload,
        )[0]
    dispatcher = Dispatcher(
        router, n_devices, device, service_time=service_time, seed=route_seed,
    )
    with TELEMETRY.span("route", cat="fleet", engine=engine,
                        n_devices=n_devices):
        sub_traces, fault_kwargs = _route(
            dispatcher, trace, faults,
            route_seed if fault_seed is None else int(fault_seed),
            overload, vectorized=False,
        )
    with TELEMETRY.span("kernel", cat="fleet", engine=engine,
                        n_traces=len(sub_traces)):
        reports = [
            DPMSimulator(device, policy,
                         service_time=service_time, oracle=oracle).run(sub)
            for sub in sub_traces
        ]
    with TELEMETRY.span("report", cat="fleet", n_devices=n_devices):
        return build_fleet_report(
            router=dispatcher.router.name,
            policy=policy.name,
            home_power=device.state(device.initial_state).power,
            reports=reports,
            **fault_kwargs,
        )


def run_fleet_batch(
    device: PowerStateMachine,
    policy: EventPolicy,
    traces: Sequence[Trace],
    router: Router,
    n_devices: int,
    service_time: float = 0.5,
    oracle: bool = False,
    route_seeds: Optional[Sequence[int]] = None,
    faults=None,
    fault_seeds: Optional[Sequence[int]] = None,
    overload: Optional[OverloadConfig] = None,
) -> List[FleetReport]:
    """R seeded fleet runs of one cell: route each trace, then evaluate
    every sub-trace in one call.

    The fast engine behind ``run_fleet(engine="auto")``: the composition
    of :func:`route_fleet_batch` and :func:`evaluate_fleet_batch`.  Each
    trace is routed once (the two-way decision of :func:`run_fleet`),
    and the R x N per-device sub-traces go to one
    :func:`~repro.runtime.eventsim.simulate_runs_batch` call — one
    lock-step call across all of them for step-mode policies, one
    busy-period kernel call for gap-mode policies, the scalar loop
    otherwise.  Each sub-trace's report is a pure function of its own
    trace, so per-seed fleet reports are exactly those of per-seed
    :func:`run_fleet` whichever seeds share the batch — the
    chunking-invariance guarantee the sweep runner relies on.

    ``route_seeds`` defaults to 0 for every trace, matching
    :func:`run_fleet`'s default; with ``faults`` given, ``fault_seeds``
    (defaulting to the route seeds) realize a
    :class:`~repro.workload.FaultProcess` independently per trace, and
    each sub-trace carries its failover-delayed dispatch instants.
    """
    routed = route_fleet_batch(
        device, traces, router, n_devices, service_time=service_time,
        route_seeds=route_seeds, faults=faults, fault_seeds=fault_seeds,
        overload=overload,
    )
    return evaluate_fleet_batch(
        device, policy, routed, service_time=service_time, oracle=oracle,
    )


@dataclass(frozen=True)
class RoutedBatch:
    """R traces routed across one fleet, ready for any DPM policy:
    routing never sees the policy, so one routed batch serves them all."""

    router: Optional[str]
    n_devices: int
    #: R x N per-device sub-traces, trace-major
    sub_traces: List[Trace]
    #: per trace, the fault / overload fields of its fleet report
    fields: List[dict]


def route_fleet_batch(
    device: PowerStateMachine,
    traces: Sequence[Trace],
    router: Router,
    n_devices: int,
    service_time: float = 0.5,
    route_seeds: Optional[Sequence[int]] = None,
    faults=None,
    fault_seeds: Optional[Sequence[int]] = None,
    overload: Optional[OverloadConfig] = None,
) -> RoutedBatch:
    """The routing half of :func:`run_fleet_batch` (same arguments)."""
    traces = list(traces)
    if route_seeds is None:
        route_seeds = [0] * len(traces)
    route_seeds = [int(s) for s in route_seeds]
    if len(route_seeds) != len(traces):
        raise ValueError(
            f"route_seeds length {len(route_seeds)} != "
            f"traces length {len(traces)}"
        )
    if fault_seeds is None:
        fault_seeds = route_seeds
    fault_seeds = [int(s) for s in fault_seeds]
    if len(fault_seeds) != len(traces):
        raise ValueError(
            f"fault_seeds length {len(fault_seeds)} != "
            f"traces length {len(traces)}"
        )
    router_name = None
    sub_traces: List[Trace] = []
    fault_kwargs: List[dict] = []
    if traces:
        with TELEMETRY.span("route", cat="fleet", engine="auto",
                            n_devices=n_devices, n_traces=len(traces)):
            for trace, seed, fseed in zip(traces, route_seeds, fault_seeds):
                dispatcher = Dispatcher(
                    router, n_devices, device,
                    service_time=service_time, seed=seed,
                )
                router_name = dispatcher.router.name
                subs, fields = _route(dispatcher, trace, faults, fseed,
                                      overload)
                sub_traces.extend(subs)
                fault_kwargs.append(fields)
    return RoutedBatch(router_name, int(n_devices), sub_traces, fault_kwargs)


def evaluate_fleet_batch(
    device: PowerStateMachine,
    policy: EventPolicy,
    routed: RoutedBatch,
    service_time: float = 0.5,
    oracle: bool = False,
) -> List[FleetReport]:
    """The evaluation half of :func:`run_fleet_batch`: every sub-trace
    of ``routed`` under ``policy``, folded into one fleet report per
    trace (the sub-traces are only read, so the batch can be reused)."""
    if not routed.fields:
        return []
    with TELEMETRY.span("kernel", cat="fleet", engine="auto",
                        n_traces=len(routed.sub_traces)):
        runs = simulate_runs_batch(
            device, policy, routed.sub_traces,
            service_time=service_time, oracle=oracle,
        )
    home_power = device.state(device.initial_state).power
    n = routed.n_devices
    with TELEMETRY.span("report", cat="fleet", n_devices=n,
                        n_reports=len(routed.fields)):
        return [
            build_fleet_report(
                router=routed.router,
                policy=policy.name,
                home_power=home_power,
                reports=runs[r * n:(r + 1) * n],
                **fields,
            )
            for r, fields in enumerate(routed.fields)
        ]
