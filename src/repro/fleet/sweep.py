"""Fleet scenario sweeps: (fleet size x router x policy) cell grids.

:class:`FleetSweepRunner` is the fleet counterpart of
:class:`~repro.runtime.SimSweepRunner`: it fans the full
(fleet size x router x DPM policy) grid, with ``n_traces`` seeded
replications of the shared arrival stream per cell, across the executor
layer (:mod:`repro.runtime.executor`) and aggregates each cell into
mean +- bootstrap CI.  Work units are ``(cell, seed-chunk)`` pairs built
from picklable values only — traces regenerate inside the worker from
:class:`~repro.runtime.simsweep.TraceSpec` recipes and routers
reinstantiate from registry names — so per-seed fleet reports are
identical for every ``(chunk_size, n_jobs)`` combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..analysis.ascii_plot import format_table
from ..analysis.bootstrap import CI, bootstrap_ci
from ..device import get_preset
from ..runtime.checkpoint import run_chunks_checkpointed, spec_hash
from ..runtime.executor import get_executor, resolve_n_jobs
from ..runtime.simsweep import PolicySpec, TraceSpec, estimate_request_seconds
from ..runtime.telemetry import TELEMETRY
from ..runtime.verify import (
    InvariantViolation,
    check_fleet_report,
    shadow_verify_chunks,
    write_diagnostics_bundle,
)
from ..workload.faults import FaultProcess, FaultSchedule
from .dispatch import (
    ROUTERS,
    FailoverConfig,
    OverloadConfig,
    Router,
    make_router,
)
from .evaluate import run_fleet, run_fleet_batch
from .report import FleetReport

#: rough wall seconds to route one request through a router that only
#: offers the scalar reference loop (per-request Python with a full
#: per-device queue scan)
SCALAR_ROUTE_SECONDS_PER_REQUEST = 2e-5

#: rough wall seconds per request for queue-aware routers on the
#: epoch-advance ``route_step_batch`` path (dense backlog arrays + a
#: shared completion heap; still one Python round per arrival, hence
#: not free like the closed-form ``route_batch`` routers)
STEP_ROUTE_SECONDS_PER_REQUEST = 5e-6


def route_seconds_per_request(router_cls: Type[Router]) -> float:
    """Estimated routing cost of one request on the fastest route path.

    The :meth:`~repro.fleet.dispatch.Dispatcher.assignments` cascade in
    cost-model form: closed-form ``route_batch`` routers cost ~nothing,
    ``route_step_batch`` routers pay the epoch-advance rate, and
    everything else pays the scalar reference-loop rate.  Keeping the
    split here stops :func:`~repro.runtime.executor.resolve_n_jobs`'s
    serial-degrade heuristic from wrongly forcing in-process execution
    on cells whose routing is actually fast.
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
    #: failover behaviour when routing under faults
    failover: FailoverConfig = FailoverConfig()
    #: optional overload protection (circuit breakers, retry budget,
    #: deadline shedding); also engaged automatically when ``faults``
    #: carries brownout (finite-severity) intervals
    overload: Optional[OverloadConfig] = None

    @property
    def uses_overload(self) -> bool:
        """True when cells can shed or book brownout-inflated demands
        (overload knobs set, or brownout faults): the rendered table
        then gains the shed / goodput columns."""
        if self.overload is not None:
            return True
        if isinstance(self.faults, FaultProcess):
            return math.isfinite(self.faults.severity)
        if isinstance(self.faults, FaultSchedule):
            return self.faults.has_brownouts
        return False

    def __post_init__(self) -> None:
        if not (self.fleet_sizes and self.routers and self.policies):
            raise ValueError("need at least one fleet size, router, and policy")
        if any(int(n) < 1 for n in self.fleet_sizes):
            raise ValueError(f"fleet sizes must be >= 1, got {self.fleet_sizes}")
        for name in self.routers:
            if name not in ROUTERS:
                raise ValueError(
                    f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
                )
        if self.n_traces < 1:
            raise ValueError(f"n_traces must be >= 1, got {self.n_traces}")
        if self.seed_stride < 1:
            raise ValueError(f"seed_stride must be >= 1, got {self.seed_stride}")
        if self.service_time <= 0:
            raise ValueError(f"service_time must be > 0, got {self.service_time}")
        if not isinstance(self.failover, FailoverConfig):
            raise ValueError(
                f"failover must be a FailoverConfig, got {self.failover!r}"
            )
        if self.overload is not None:
            if not isinstance(self.overload, OverloadConfig):
                raise ValueError(
                    f"overload must be an OverloadConfig or None, "
                    f"got {self.overload!r}"
                )
            if self.failover != self.overload.failover:
                raise ValueError(
                    "with overload given, the failover shape lives in "
                    "overload.failover; leave the spec's failover at its "
                    "default or set both to the same config"
                )
        self._validate_faults()

    def _validate_faults(self) -> None:
        """Reject degenerate fault configs before they cost a sweep.

        ``FaultProcess`` already refuses nonsensical parameters
        (MTBF/MTTR <= 0, a whole-fleet ``start_down`` cohort); the spec
        layer adds the checks that need sweep context — a fleet that
        churns faster than it serves, or a concrete schedule that
        starts with every device dead.
        """
        faults = self.faults
        if faults is None:
            return
        if isinstance(faults, FaultProcess):
            if faults.mttr <= 0:
                raise ValueError(f"MTTR must be > 0, got {faults.mttr}")
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
class FleetCellResult:
    """One (fleet size, router, policy) cell over its trace replications."""

    n_devices: int
    router: str
    policy: str
    reports: List[FleetReport]

    def _ci(self, attr: str, confidence: float = 0.95) -> CI:
        values = np.array([getattr(r, attr) for r in self.reports])
        return bootstrap_ci(values, confidence=confidence)

    def power_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication fleet mean power."""
        return self._ci("mean_power", confidence)

    def saving_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication saving vs. an all-always-on fleet."""
        return self._ci("energy_saving_ratio", confidence)

    def p99_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication p99 latency of the merged stream."""
        return self._ci("p99_latency", confidence)

    @property
    def mean_shutdowns(self) -> float:
        return float(np.mean([r.n_shutdowns for r in self.reports]))

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
    policy_spec: PolicySpec,
    trace_spec: TraceSpec,
    service_time: float,
    seeds: Sequence[int],
    faults: Any = None,
    failover: FailoverConfig = FailoverConfig(),
    overload: Optional[OverloadConfig] = None,
) -> List[FleetReport]:
    """One (cell, seed-chunk) work unit — module-level and built from
    picklable values only, so the executor can ship it to a worker.
    The chunk's (seed x device) sub-traces flatten into a single
    :func:`~repro.fleet.evaluate.run_fleet_batch` kernel invocation;
    each seed's fleet report is still a pure function of the arguments
    (every sub-trace resolves independently inside the batch), so
    results are identical for every ``(chunk_size, n_jobs)``.  The
    retained per-device reports are stripped of their raw latency
    arrays (the merged-stream quantiles are already folded) so the
    pickled results stay small.

    With ``faults`` given, each replication's fault stream realizes
    from ``seed + FAULT_SEED_OFFSET`` — deterministic per replication,
    decorrelated from both its trace and routing streams, and
    independent of how replications are chunked."""
    with TELEMETRY.span("chunk", cat="sweep", kind="fleet",
                        device=device_name, n_devices=n_devices,
                        router=router_name, policy=policy_spec.label,
                        seeds=list(seeds)):
        device = get_preset(device_name)
        return run_fleet_batch(
            device, policy_spec.policy,
            [trace_spec.realize(seed) for seed in seeds],
            make_router(router_name), n_devices,
            service_time=service_time, oracle=policy_spec.oracle,
            route_seeds=[seed + ROUTE_SEED_OFFSET for seed in seeds],
            keep_latencies=False,
            faults=faults,
            failover=None if overload is not None else failover,
            fault_seeds=[seed + FAULT_SEED_OFFSET for seed in seeds],
            overload=overload,
        )


def reference_fleet_chunk(
    device_name: str,
    n_devices: int,
    router_name: str,
    policy_spec: PolicySpec,
    trace_spec: TraceSpec,
    service_time: float,
    seeds: Sequence[int],
    faults: Any = None,
    failover: FailoverConfig = FailoverConfig(),
    overload: Optional[OverloadConfig] = None,
) -> List[FleetReport]:
    """Scalar reference path for one :func:`run_fleet_chunk` work unit.

    Per-seed ``engine="scalar"`` fleet runs — the reference dispatcher
    loop every vectorized fleet path is pinned against in the test
    suite, with the same per-seed route/fault stream derivation the
    fast chunk uses.  Shadow verification compares these
    field-for-field against the flattened-kernel results.
    """
    device = get_preset(device_name)
    return [
        run_fleet(
            device, policy_spec.policy, trace_spec.realize(seed),
            make_router(router_name), n_devices,
            service_time=service_time, oracle=policy_spec.oracle,
            route_seed=seed + ROUTE_SEED_OFFSET, engine="scalar",
            keep_latencies=False, faults=faults,
            failover=None if overload is not None else failover,
            fault_seed=seed + FAULT_SEED_OFFSET,
            overload=overload,
        )
        for seed in seeds
    ]


class FleetSweepRunner:
    """Chunked executor fan-out over the fleet cell grid.

    Parameters
    ----------
    chunk_size:
        Trace replications per work unit.
    n_jobs:
        Worker processes to shard (cell, chunk) units across (1 = serial).
    timeout:
        Per-chunk wall-second bound when collecting pool results; a
        chunk exceeding it (hung or silently-dead worker) reruns
        in-process (see :meth:`MultiprocessExecutor.submit_all`).
    max_retries:
        Pool resubmissions of a chunk whose worker raised, before the
        chunk degrades to an in-process rerun.
    retry_backoff:
        Base of the capped-exponential sleep between retries.
    checkpoint:
        Path of a chunk-result journal: completed chunks are recorded as
        they finish and skipped on the next run with the same spec and
        chunk size — resumed results are bit-identical to an
        uninterrupted run.
    verify_fraction:
        Fraction of work units to shadow-verify: each sampled chunk is
        re-run per-seed through the ``engine="scalar"`` reference
        dispatcher and compared field-for-field (rel <= 1e-9).  The
        sample is a deterministic function of the spec, so resumed and
        fresh runs verify the same cells.  A divergence raises
        :class:`~repro.runtime.verify.InvariantViolation`; the sample
        and outcome land in the result's ``execution["verification"]``.
    diagnostics_dir:
        Directory for minimal-repro JSON bundles written on invariant
        violations, shadow divergences, and unrecoverable chunk
        failures.
    """

    def __init__(self, chunk_size: int = 4, n_jobs: int = 1,
                 timeout: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.5,
                 checkpoint: Optional[str] = None,
                 verify_fraction: float = 0.0,
                 diagnostics_dir: Optional[str] = None) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not 0.0 <= float(verify_fraction) <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}"
            )
        self.chunk_size = int(chunk_size)
        self.n_jobs = int(n_jobs)
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.checkpoint = checkpoint
        self.verify_fraction = float(verify_fraction)
        self.diagnostics_dir = diagnostics_dir

    def estimate_chunk_seconds(self, spec: FleetSweepSpec) -> float:
        """Mean estimated wall seconds of one (cell, seed-chunk) unit.

        Same request-count x engine-cost heuristic as
        :meth:`~repro.runtime.SimSweepRunner.estimate_chunk_seconds`,
        plus the routing cost via :func:`route_seconds_per_request`:
        queue-aware routers advance one arrival per Python round even
        on the epoch-advance path, which still dominates the batched
        simulation engines (at a ~4x lower rate than the scalar loop).
        The shared arrival stream's request count is fleet-wide, so the
        per-chunk work does not grow with the fleet-size axis.
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
        with TELEMETRY.metrics_scope() as metrics:
            with TELEMETRY.span("sweep", cat="sweep", kind="fleet",
                                n_traces=spec.n_traces,
                                chunk_size=self.chunk_size,
                                n_jobs=self.n_jobs):
                result = self._run(spec)
        result.execution["metrics"] = metrics.snapshot()
        return result

    def _run(self, spec: FleetSweepSpec) -> FleetSweepResult:
        seeds = spec.seeds()
        chunks = [
            seeds[i:i + self.chunk_size]
            for i in range(0, len(seeds), self.chunk_size)
        ]
        cell_keys: List[Tuple[int, str, str]] = []
        tasks = []
        for n_devices in spec.fleet_sizes:
            for router_name in spec.routers:
                for policy_spec in spec.policies:
                    cell_keys.append(
                        (int(n_devices), router_name, policy_spec.label)
                    )
                    for chunk in chunks:
                        tasks.append(
                            (spec.device, int(n_devices), router_name,
                             policy_spec, spec.trace, spec.service_time, chunk,
                             spec.faults, spec.failover, spec.overload)
                        )
        est = self.estimate_chunk_seconds(spec)
        n_jobs, decision = resolve_n_jobs(self.n_jobs, est, len(tasks))
        spec_key = spec_hash(spec, self.chunk_size)
        chunk_reports, resilience = run_chunks_checkpointed(
            get_executor(n_jobs), run_fleet_chunk, tasks,
            spec_key=spec_key,
            checkpoint=self.checkpoint, timeout=self.timeout,
            max_retries=self.max_retries, retry_backoff=self.retry_backoff,
            diagnostics_dir=self.diagnostics_dir, spec=spec,
        )
        self._check_invariants(spec, spec_key, tasks, chunk_reports)
        verification = None
        if self.verify_fraction > 0.0:
            verification = shadow_verify_chunks(
                tasks, chunk_reports, self.verify_fraction, spec_key,
                reference_fleet_chunk, "run_fleet scalar dispatcher",
                seeds_of=lambda task: task[6],
                # per-device sub-reports carry summation-order noise
                # beyond the fleet-level pin; the folded fields are the
                # contract
                ignore=("device_reports", "latencies"),
                diagnostics_dir=self.diagnostics_dir, spec=spec,
            )

        result = FleetSweepResult(spec=spec, execution={
            "n_jobs_requested": self.n_jobs,
            "n_jobs_effective": n_jobs,
            "decision": decision,
            "estimated_chunk_seconds": est,
            **({"verification": verification} if verification else {}),
            **resilience,
        })
        per_cell = len(chunks)
        for c, (n_devices, router_name, policy_label) in enumerate(cell_keys):
            reports: List[FleetReport] = []
            for chunk_out in chunk_reports[c * per_cell:(c + 1) * per_cell]:
                reports.extend(chunk_out)
            result.cells.append(
                FleetCellResult(
                    n_devices=n_devices, router=router_name,
                    policy=policy_label, reports=reports,
                )
            )
        return result

    def _check_invariants(self, spec: FleetSweepSpec, spec_key: str,
                          tasks, chunk_reports) -> None:
        """Always-on invariant pass over every collected fleet report:
        request/energy/residency conservation laws that hold for any
        correct engine — a dict walk per report, not a re-simulation."""
        try:
            for t, (task, reports) in enumerate(zip(tasks, chunk_reports)):
                (_, n_devices, router_name, policy_spec, trace_spec,
                 _, chunk, *_rest) = task
                for seed, report in zip(chunk, reports):
                    TELEMETRY.inc("fleet.requests", int(report.n_requests))
                    TELEMETRY.inc("fleet.requests_dropped",
                                  int(report.n_dropped))
                    TELEMETRY.inc("fleet.requests_retried",
                                  int(report.n_retries))
                    TELEMETRY.inc("fleet.requests_shed",
                                  int(report.n_shed))
                    TELEMETRY.inc("breaker.trips",
                                  int(report.n_breaker_trips))
                    check_fleet_report(
                        report, spec_key=spec_key, seed=seed,
                        context={"chunk": t, "n_devices": int(n_devices),
                                 "router": router_name,
                                 "trace": trace_spec.name,
                                 "policy": policy_spec.label},
                    )
        except InvariantViolation as exc:
            if self.diagnostics_dir is not None:
                write_diagnostics_bundle(
                    self.diagnostics_dir, "invariant_violation", spec=spec,
                    spec_key=spec_key, seed=exc.seed,
                    chunk_id=exc.context.get("chunk"), details=exc.details,
                    error=exc, extra={"invariant": exc.invariant,
                                      "context": exc.context},
                )
            raise
