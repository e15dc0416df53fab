"""Fleet-scale multi-device simulation with request dispatch.

The single-device reproduction answers "how should one device sleep?";
this subsystem answers it for a cluster: N replicas of one device model
share a high-rate arrival stream behind a :class:`Dispatcher`, whose
:class:`Router` decides which replica serves each request.  The
resulting per-device sub-traces run on the existing single-device
engines (the vectorized busy-period kernel of
:mod:`repro.runtime.eventsim`, scalar event-loop fallback), and
:func:`build_fleet_report` folds the per-device results into one
:class:`FleetReport` — fleet energy, per-device residency, and exact
tail latency over the merged completion stream — and drops them: the
report is the aggregate alone.  :class:`FleetSweepRunner` fans
(fleet size x router x policy x trace seed) grids across the executor
layer with bootstrap-CI aggregation — the `fleet-sweep` CLI entry.

Layering mirrors the rest of the repo: each router's semantics of
record is its per-request ``decide_one``, which the scalar ``route``
loops; the fast paths are pinned bit-identical to it — stateless
routers via closed-form ``route_batch``, queue-aware routers via the
epoch-advance ``route_step_batch`` (one arrival per round over the
heap-settled backlog's per-device Python lists).  Per-request routing
state — backlogs, breaker and live masks — is Python lists throughout;
NumPy stays at the whole-trace boundary.  Under faults or overload protection
every router runs one fault-aware loop, :func:`route_with_overload`,
configured by one :class:`OverloadConfig` (the failover shape is its
``failover`` field; the fleet entry points and :class:`FleetSweepSpec`
take it as ``overload=``).  Each
sweep chunk routes its seeds' traces and evaluates all (seed x device)
sub-traces in one engine call (:func:`run_fleet_batch`).
"""

from .dispatch import (
    FAILOVER_POLICIES,
    ROUTERS,
    SHED_BUDGET,
    SHED_DEADLINE,
    SHED_NONE,
    BreakerConfig,
    Dispatcher,
    FailoverConfig,
    JoinShortestQueueRouter,
    OverloadConfig,
    OverloadOutcome,
    PowerAwareRouter,
    RandomRouter,
    RetryBudgetConfig,
    RouteContext,
    Router,
    RoundRobinRouter,
    make_router,
    route_with_overload,
)
from .evaluate import ENGINES, run_fleet, run_fleet_batch
from .report import FleetReport, build_fleet_report
from .sweep import (
    FAULT_SEED_OFFSET,
    ROUTE_SEED_OFFSET,
    FleetCellResult,
    FleetSweepResult,
    FleetSweepRunner,
    FleetSweepSpec,
    run_fleet_chunk,
)

__all__ = [
    "Router",
    "RouteContext",
    "RoundRobinRouter",
    "RandomRouter",
    "JoinShortestQueueRouter",
    "PowerAwareRouter",
    "ROUTERS",
    "make_router",
    "Dispatcher",
    "FailoverConfig",
    "FAILOVER_POLICIES",
    "BreakerConfig",
    "RetryBudgetConfig",
    "OverloadConfig",
    "OverloadOutcome",
    "SHED_NONE",
    "SHED_DEADLINE",
    "SHED_BUDGET",
    "route_with_overload",
    "ENGINES",
    "run_fleet",
    "run_fleet_batch",
    "FleetReport",
    "build_fleet_report",
    "FleetSweepSpec",
    "FleetCellResult",
    "FleetSweepResult",
    "FleetSweepRunner",
    "run_fleet_chunk",
    "ROUTE_SEED_OFFSET",
    "FAULT_SEED_OFFSET",
]
