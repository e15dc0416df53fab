"""Fleet scenario sweeps: (fleet size x router x policy) cell grids.

:class:`FleetSweepRunner` is the fleet counterpart of
:class:`~repro.runtime.SimSweepRunner`: it fans the full
(fleet size x router x DPM policy) grid, with ``n_traces`` seeded
replications of the shared arrival stream per cell, through the shared
sweep core (:mod:`repro.runtime.chunked`) and aggregates each cell into
mean +- bootstrap CI.  Fault routing has one setting,
:attr:`FleetSweepSpec.overload`; the failover shape is its ``failover``
field.  A work unit is one ``(cell, seed-chunk)`` pair.
Its chunk function, :func:`run_fleet_chunk`, takes a list of policies:
routers never see the DPM policy, so it realizes, fault-resolves and
routes each seed's trace once and evaluates every listed policy on the
same sub-traces.  Work units are built from picklable values only —
traces regenerate inside the worker from
:class:`~repro.runtime.simsweep.TraceSpec` recipes and routers
reinstantiate from registry names — so per-seed fleet reports are
identical for every ``(chunk_size, n_jobs)`` combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..analysis.ascii_plot import format_table
from ..analysis.bootstrap import CI
from ..checks import check_count, check_positive
from ..device import get_preset
from ..runtime.chunked import ChunkedRunner, SweepPlan
from ..runtime.simsweep import (
    PolicySpec,
    ReplicatedCell,
    TraceSpec,
    estimate_request_seconds,
)
from ..runtime.telemetry import TELEMETRY
from ..runtime.verify import check_fleet_report
from ..workload.faults import FaultProcess, FaultSchedule
from .dispatch import ROUTERS, OverloadConfig, Router, make_router
from .evaluate import evaluate_fleet_batch, route_fleet_batch, run_fleet
from .report import FleetReport

#: rough wall seconds to route one request through a router that only
#: offers the scalar reference loop (per-request Python with a full
#: per-device queue scan)
SCALAR_ROUTE_SECONDS_PER_REQUEST = 2e-5

#: rough wall seconds per request for queue-aware routers on the
#: epoch-advance ``route_step_batch`` path (a shared completion heap and
#: a scan over per-device Python lists; still one Python round per
#: arrival, hence not free like the closed-form ``route_batch`` routers)
STEP_ROUTE_SECONDS_PER_REQUEST = 5e-6


def route_seconds_per_request(router_cls: Type[Router]) -> float:
    """Estimated routing cost of one request on the fastest route path.

    Closed-form ``route_batch`` routers cost ~nothing,
    ``route_step_batch`` routers pay the epoch-advance rate (one Python
    round per arrival), everything else the scalar reference-loop rate —
    so :func:`~repro.runtime.executor.resolve_n_jobs` does not force
    in-process execution on cells whose routing is actually fast.
    """
    if router_cls.route_batch is not Router.route_batch:
        return 0.0
    if router_cls.route_step_batch is not Router.route_step_batch:
        return STEP_ROUTE_SECONDS_PER_REQUEST
    return SCALAR_ROUTE_SECONDS_PER_REQUEST

#: offset decorrelating the routing stream from the trace-generation
#: stream (both are realized from the replication seed)
ROUTE_SEED_OFFSET = 1_000_003

#: offset decorrelating the fault-injection stream from both the
#: trace-generation and routing streams — all three realize from the
#: replication seed, so injected nondeterminism stays deterministic
#: per replication yet statistically independent of the workload
FAULT_SEED_OFFSET = 2_000_003


@dataclass(frozen=True)
class FleetSweepSpec:
    """The full (fleet size x router x policy) grid of one fleet sweep.

    One device preset is replicated at every fleet size; one
    :class:`~repro.runtime.simsweep.TraceSpec` describes the shared
    arrival stream (its rate is *fleet-wide* — per-device load shrinks
    as the fleet grows, which is exactly the axis the sweep explores).
    """

    device: str
    fleet_sizes: Tuple[int, ...]
    routers: Tuple[str, ...]
    policies: Tuple[PolicySpec, ...]
    trace: TraceSpec
    n_traces: int = 8
    seed: int = 0
    seed_stride: int = 101
    service_time: float = 0.5
    #: optional fault injection: a :class:`~repro.workload.FaultProcess`
    #: recipe (realized per fleet size and replication), or — for
    #: single-fleet-size sweeps — a concrete
    #: :class:`~repro.workload.FaultSchedule`
    faults: Any = None
    #: the fault-aware routing loop's settings: the failover shape and
    #: the optional circuit breakers, retry budget and deadline
    #: shedding.  ``None`` with ``faults`` set routes under
    #: ``OverloadConfig()``; ``None`` without faults routes plainly.
    overload: Optional[OverloadConfig] = None

    @property
    def uses_overload(self) -> bool:
        """True when cells can shed or book brownout-inflated demands (a
        breaker, retry budget or SLO set, or brownout faults): the
        rendered table then gains the shed / goodput columns.  With
        every protection off nothing is shed and goodput is just
        1 - dropped/offered, so a failover-only table omits them."""
        overload = self.overload
        if overload is not None and (
            overload.breaker is not None
            or overload.retry_budget is not None
            or overload.slo is not None
        ):
            return True
        if isinstance(self.faults, FaultProcess):
            return math.isfinite(self.faults.severity)
        if isinstance(self.faults, FaultSchedule):
            return self.faults.has_brownouts
        return False

    def __post_init__(self) -> None:
        if not (self.fleet_sizes and self.routers and self.policies):
            raise ValueError("need at least one fleet size, router, and policy")
        object.__setattr__(self, "fleet_sizes", tuple(
            check_count("fleet size", n) for n in self.fleet_sizes
        ))
        for name in self.routers:
            if name not in ROUTERS:
                raise ValueError(
                    f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
                )
        for name, minimum in (("n_traces", 1), ("seed", 0), ("seed_stride", 1)):
            object.__setattr__(
                self, name, check_count(name, getattr(self, name), minimum)
            )
        check_positive("service_time", self.service_time)
        if self.overload is not None and not isinstance(
            self.overload, OverloadConfig
        ):
            raise ValueError(
                f"overload must be an OverloadConfig or None, "
                f"got {self.overload!r}"
            )
        self._validate_faults()

    def _validate_faults(self) -> None:
        """Reject degenerate fault configs before they cost a sweep.

        ``FaultProcess`` already refuses nonsensical parameters
        (MTBF/MTTR not > 0, a whole-fleet ``start_down`` cohort); the spec
        layer adds the checks that need sweep context — a fleet that
        churns faster than it serves, or a concrete schedule that
        starts with every device dead.
        """
        faults = self.faults
        if faults is None:
            return
        if isinstance(faults, FaultProcess):
            if faults.mtbf < self.service_time:
                raise ValueError(
                    f"MTBF {faults.mtbf} is shorter than a single request's "
                    f"service demand {self.service_time}: every device would "
                    f"fail mid-request — not a meaningful fault scenario"
                )
            return
        if isinstance(faults, FaultSchedule):
            sizes = set(int(n) for n in self.fleet_sizes)
            if sizes != {faults.n_devices}:
                raise ValueError(
                    f"a concrete FaultSchedule ({faults.n_devices} devices) "
                    f"only fits a single-fleet-size sweep of that size, got "
                    f"fleet_sizes={self.fleet_sizes}; pass a FaultProcess "
                    f"recipe to sweep fleet sizes"
                )
            if faults.all_down_at(0.0):
                raise ValueError(
                    "fault schedule has all devices down at t=0 — no "
                    "surviving device to fail over to; stagger the outage"
                )
            return
        raise ValueError(
            f"faults must be a FaultProcess, FaultSchedule, or None, "
            f"got {faults!r}"
        )

    def seeds(self) -> List[int]:
        """Replication seeds, shared across cells so comparisons pair."""
        return [self.seed + k * self.seed_stride for k in range(self.n_traces)]


@dataclass
class FleetCellResult(ReplicatedCell):
    """One (fleet size, router, policy) cell over its trace replications
    (power and saving are fleet-wide: vs. an all-always-on fleet)."""

    n_devices: int
    router: str
    policy: str
    reports: List[FleetReport]

    def p99_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication p99 latency of the merged stream."""
        return self._ci("p99_latency", confidence)

    @property
    def mean_imbalance(self) -> float:
        """Across-replication mean of the max/mean request imbalance."""
        return float(np.mean([r.load_imbalance for r in self.reports]))


@dataclass
class FleetSweepResult:
    """All cells of one sweep, in (fleet size, router, policy) grid order."""

    spec: FleetSweepSpec
    cells: List[FleetCellResult] = field(default_factory=list)
    #: how the runner executed the grid: requested vs effective job
    #: count, the degrade decision, and the per-chunk work estimate
    execution: Dict[str, Any] = field(default_factory=dict)

    def cell(self, n_devices: int, router: str, policy: str) -> FleetCellResult:
        """Look up one cell by its coordinates."""
        for c in self.cells:
            if (c.n_devices, c.router, c.policy) == (n_devices, router, policy):
                return c
        raise KeyError(f"no cell ({n_devices!r}, {router!r}, {policy!r})")

    def render(self) -> str:
        headers = [
            "fleet", "router", "policy", "power (W)", "+-", "saving",
            "p50 lat", "p99 lat", "shutdowns", "imbalance",
        ]
        faulty = self.spec.faults is not None
        if faulty:
            headers += ["avail", "retries", "dropped"]
        overloaded = self.spec.uses_overload
        if overloaded:
            headers += ["shed", "goodput"]
        rows = []
        for c in self.cells:
            power = c.power_ci()
            p50 = float(np.mean([r.p50_latency for r in c.reports]))
            p99 = c.p99_ci()
            row = [
                c.n_devices, c.router, c.policy,
                round(power.estimate, 4), round(power.half_width, 4),
                round(c.saving_ci().estimate, 4),
                round(p50, 3), round(p99.estimate, 3),
                round(c.mean_shutdowns, 1), round(c.mean_imbalance, 2),
            ]
            if faulty:
                row += [
                    round(float(np.mean(
                        [r.availability for r in c.reports])), 4),
                    round(float(np.mean(
                        [r.n_retries for r in c.reports])), 1),
                    round(float(np.mean(
                        [r.n_dropped for r in c.reports])), 1),
                ]
            if overloaded:
                row += [
                    round(float(np.mean(
                        [r.n_shed for r in c.reports])), 1),
                    round(float(np.mean(
                        [r.goodput for r in c.reports])), 4),
                ]
            rows.append(row)
        return format_table(
            headers, rows,
            title=f"FLEET-SWEEP: {self.spec.device} fleet scenario grid "
                  f"({self.spec.n_traces} traces/cell, "
                  f"trace={self.spec.trace.name})",
        )


def run_fleet_chunk(
    device_name: str,
    n_devices: int,
    router_name: str,
    policy_specs: Sequence[PolicySpec],
    trace_spec: TraceSpec,
    service_time: float,
    seeds: Sequence[int],
    faults: Any = None,
    overload: Optional[OverloadConfig] = None,
) -> List[List[FleetReport]]:
    """One work unit, built from picklable values: a (fleet size,
    router, seed-chunk) triple and its policies, one report list per
    policy.  :class:`FleetSweepRunner` gives each unit one policy (one
    cell per task).

    The chunk's seeds are realized, fault-resolved and routed once
    (:func:`~repro.fleet.evaluate.route_fleet_batch`), then every policy
    evaluates the same sub-traces
    (:func:`~repro.fleet.evaluate.evaluate_fleet_batch`) — per policy,
    exactly :func:`~repro.fleet.evaluate.run_fleet_batch`.  Each seed's
    report is still a pure function of the arguments, so results are
    identical for every ``(chunk_size, n_jobs)``.  The reports carry
    only the fleet aggregate, so the pickled results stay small.  Each
    replication's fault stream realizes from ``seed + FAULT_SEED_OFFSET``,
    decorrelated from its trace and routing streams; ``faults`` and
    ``overload`` route as in :func:`~repro.fleet.evaluate.run_fleet`."""
    with TELEMETRY.span("chunk", cat="sweep", kind="fleet",
                        device=device_name, n_devices=n_devices,
                        router=router_name,
                        policies=[p.label for p in policy_specs],
                        seeds=list(seeds)):
        device = get_preset(device_name)
        routed = route_fleet_batch(
            device, [trace_spec.realize(seed) for seed in seeds],
            make_router(router_name), n_devices,
            service_time=service_time,
            route_seeds=[seed + ROUTE_SEED_OFFSET for seed in seeds],
            faults=faults,
            fault_seeds=[seed + FAULT_SEED_OFFSET for seed in seeds],
            overload=overload,
        )
        return [
            evaluate_fleet_batch(device, p.policy, routed,
                                 service_time=service_time, oracle=p.oracle)
            for p in policy_specs
        ]


def reference_fleet_chunk(
    device_name: str,
    n_devices: int,
    router_name: str,
    policy_specs: Sequence[PolicySpec],
    trace_spec: TraceSpec,
    service_time: float,
    seeds: Sequence[int],
    faults: Any = None,
    overload: Optional[OverloadConfig] = None,
) -> List[List[FleetReport]]:
    """Scalar reference path for one :func:`run_fleet_chunk` work unit:
    per-policy, per-seed ``engine="scalar"`` fleet runs (the dispatcher
    loop every vectorized fleet path is pinned against, routing again
    for every policy) with the same per-seed route/fault stream
    derivation as the fast chunk."""
    device = get_preset(device_name)
    return [
        [
            run_fleet(
                device, p.policy, trace_spec.realize(seed),
                make_router(router_name), n_devices,
                service_time=service_time, oracle=p.oracle,
                route_seed=seed + ROUTE_SEED_OFFSET, engine="scalar",
                faults=faults, fault_seed=seed + FAULT_SEED_OFFSET,
                overload=overload,
            )
            for seed in seeds
        ]
        for p in policy_specs
    ]


class FleetSweepRunner(ChunkedRunner):
    """Chunked executor fan-out over the fleet cell grid.

    ``chunk_size`` is the trace replications per work unit.  The other
    settings are the shared ones of
    :class:`~repro.runtime.chunked.ChunkedRunner`; ``verify_fraction``
    re-runs each sampled chunk per seed through the ``engine="scalar"``
    reference dispatcher (rel <= 1e-9), and ``n_jobs`` degrades to
    in-process when :meth:`estimate_chunk_seconds` says a pool cannot
    pay for itself.
    """

    def __init__(self, chunk_size: int = 4, n_jobs: int = 1,
                 timeout: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.5,
                 checkpoint: Optional[str] = None,
                 verify_fraction: float = 0.0,
                 diagnostics_dir: Optional[str] = None) -> None:
        self._configure("chunk_size", chunk_size, n_jobs, timeout,
                        max_retries, retry_backoff, checkpoint,
                        verify_fraction, diagnostics_dir)

    def estimate_chunk_seconds(self, spec: FleetSweepSpec) -> float:
        """Mean estimated wall seconds of one (cell, seed-chunk) unit.

        :meth:`~repro.runtime.SimSweepRunner.estimate_chunk_seconds`'s
        request-count x engine-cost heuristic plus the routing cost
        (:func:`route_seconds_per_request`).  The arrival stream's
        request count is fleet-wide, so the per-chunk work does not grow
        with the fleet-size axis.
        """
        chunk = min(self.chunk_size, spec.n_traces)
        requests = spec.trace.dist.rate() * spec.trace.duration
        per_request_rates = [
            route_seconds_per_request(ROUTERS[name]) for name in spec.routers
        ]
        if spec.faults is not None or spec.overload is not None:
            # faults and overload knobs run every router through the
            # fault-aware per-arrival loop — closed-form routers lose
            # their free path and pay at least the per-arrival Python
            # round
            per_request_rates = [
                max(rate, STEP_ROUTE_SECONDS_PER_REQUEST)
                for rate in per_request_rates
            ]
        per_route = [chunk * requests * rate for rate in per_request_rates]
        per_policy = [
            estimate_request_seconds(p.policy, chunk * requests)
            for p in spec.policies
        ]
        return float(np.mean(per_route) + np.mean(per_policy))

    def run(self, spec: FleetSweepSpec) -> FleetSweepResult:
        """Run the full grid; deterministic for any (chunk_size, n_jobs)."""
        cells = [(int(n), router, policy) for n, router, policy in product(
            spec.fleet_sizes, spec.routers, spec.policies)]
        plan = SweepPlan(
            spec=spec, cells=cells, seeds=spec.seeds(),
            chunk_size=self.chunk_size, fn=run_fleet_chunk, seeds_at=6,
            task=lambda group, c: (
                spec.device, *group[0][:2], [p for *_, p in group],
                spec.trace, spec.service_time, c, spec.faults,
                spec.overload),
            check=partial(_check_fleet_report, spec.trace.name),
            reference=reference_fleet_chunk,
            reference_name="run_fleet scalar dispatcher",
            estimate=self.estimate_chunk_seconds(spec),
        )
        per_cell, execution = self._sweep(
            "fleet", plan, n_traces=spec.n_traces, chunk_size=self.chunk_size,
        )
        return FleetSweepResult(spec=spec, execution=execution, cells=[
            FleetCellResult(n_devices=n, router=router, policy=policy.label,
                            reports=reports)
            for (n, router, policy), reports in zip(cells, per_cell)
        ])


def _check_fleet_report(trace_name: str, report: FleetReport, cell: Tuple,
                        seed: int, chunk: int, spec_key: str) -> None:
    """Invariant check of one fleet report, plus its domain counters."""
    n_devices, router_name, policy_spec = cell
    TELEMETRY.inc("fleet.requests", int(report.n_requests))
    TELEMETRY.inc("fleet.requests_dropped", int(report.n_dropped))
    TELEMETRY.inc("fleet.requests_retried", int(report.n_retries))
    TELEMETRY.inc("fleet.requests_shed", int(report.n_shed))
    TELEMETRY.inc("breaker.trips", int(report.n_breaker_trips))
    # looked up at call time, so a wrapper installed on this module's
    # ``check_fleet_report`` sees every check
    check_fleet_report(
        report, spec_key=spec_key, seed=seed,
        context={"chunk": chunk, "n_devices": n_devices,
                 "router": router_name, "trace": trace_name,
                 "policy": policy_spec.label},
    )
