"""Scenario sweeps over the event-driven simulator.

:class:`SimSweepRunner` is the event-sim counterpart of
:class:`~repro.runtime.SweepRunner`: it fans the full
(device x trace family x policy) cell grid, with ``n_traces`` seeded
trace replications per cell, through the shared chunked-sweep core
(:mod:`repro.runtime.chunked`) and aggregates each cell's replications
into mean +- bootstrap CI.  The policy axis is one cell group: every
work unit is a ``(device, trace family, seed-chunk)`` triple that
realizes each trace once and evaluates every policy on it, built from
picklable values only — traces are *re-generated inside the worker*
from ``(distribution, duration, seed)`` recipes rather than shipped as
arrays — so per-seed reports are identical for every
``(chunk_size, n_jobs)`` combination.

Cells route through
:func:`~repro.runtime.eventsim.simulate_traces_batch`, so stateless
policies ride the busy-period kernel over the whole seed chunk, stateful
batchable ones (adaptive, predictive) ride the lock-step
cross-replication engine over the whole seed chunk, and policies with
neither batch hook transparently use the scalar event loop.

Chunks are shipped to worker processes only when that pays: on a
single-core host, or when the chunks' estimated work together is too
small to amortize pool spin-up, the runner degrades to in-process
execution and records the decision in :attr:`SimSweepResult.execution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ascii_plot import format_table
from ..analysis.bootstrap import CI, bootstrap_ci
from ..checks import check_count, check_positive
from ..device import get_preset
from ..sim.policy_api import EventPolicy
from ..sim.stats import SimReport
from ..workload.arrivals import InterArrival
from ..workload.generator import renewal_trace
from ..sim.simulator import DPMSimulator
from .chunked import ChunkedRunner, SweepPlan
from .eventsim import policy_batch_mode, simulate_traces_batch
from .telemetry import TELEMETRY
from .verify import check_sim_report

#: rough wall seconds to simulate one request, by engine family
#: (reference-container numbers from BENCH_sim.json: the busy-period /
#: lock-step kernels sustain >= 1M requests/sec, the scalar event loop
#: ~2.3k) — deliberately coarse, only used to decide whether a chunk is
#: worth shipping to a worker process
FAST_SECONDS_PER_REQUEST = 2e-6
SCALAR_SECONDS_PER_REQUEST = 5e-4

#: rough wall seconds to realize one request of a renewal trace
#: (``TraceSpec.realize`` on an exponential stream: ~0.25 us per
#: request on a 2-core x86_64 host, 800 s to 20,000 s windows)
REALIZE_SECONDS_PER_REQUEST = 2.5e-7


def estimate_request_seconds(policy: EventPolicy, n_requests: float) -> float:
    """Estimated wall seconds to simulate ``n_requests`` under ``policy``."""
    if policy_batch_mode(policy) == "scalar":
        return n_requests * SCALAR_SECONDS_PER_REQUEST
    return n_requests * FAST_SECONDS_PER_REQUEST


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for reproducible synthetic traces: one distribution, one
    window, realized per replication from a seed inside the worker."""

    name: str
    dist: InterArrival
    duration: float

    def __post_init__(self) -> None:
        check_positive("duration", self.duration)

    def realize(self, seed: int):
        """Generate the trace replication for ``seed``."""
        return renewal_trace(self.dist, self.duration, np.random.default_rng(seed))


@dataclass(frozen=True)
class PolicySpec:
    """One policy arm of the sweep (label + instance + oracle flag)."""

    label: str
    policy: EventPolicy
    oracle: bool = False


@dataclass(frozen=True)
class SimSweepSpec:
    """The full (device x trace x policy) grid of one event-sim sweep."""

    devices: Tuple[str, ...]
    traces: Tuple[TraceSpec, ...]
    policies: Tuple[PolicySpec, ...]
    n_traces: int = 8
    seed: int = 0
    seed_stride: int = 101
    service_time: float = 0.5

    def __post_init__(self) -> None:
        if not (self.devices and self.traces and self.policies):
            raise ValueError("need at least one device, trace, and policy")
        for name, minimum in (("n_traces", 1), ("seed", 0), ("seed_stride", 1)):
            object.__setattr__(
                self, name, check_count(name, getattr(self, name), minimum)
            )
        check_positive("service_time", self.service_time)

    def seeds(self) -> List[int]:
        """Replication seeds, shared across cells so comparisons pair."""
        return [self.seed + k * self.seed_stride for k in range(self.n_traces)]


class ReplicatedCell:
    """Across-replication aggregates of a sweep cell's ``reports``."""

    reports: list

    def _ci(self, attr: str, confidence: float = 0.95) -> CI:
        values = np.array([getattr(r, attr) for r in self.reports])
        return bootstrap_ci(values, confidence=confidence)

    def power_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication mean power."""
        return self._ci("mean_power", confidence)

    def saving_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication energy saving vs. always-on at home power."""
        return self._ci("energy_saving_ratio", confidence)

    @property
    def mean_shutdowns(self) -> float:
        return float(np.mean([r.n_shutdowns for r in self.reports]))


@dataclass
class SimCellResult(ReplicatedCell):
    """One (device, trace, policy) cell aggregated over its replications."""

    device: str
    trace: str
    policy: str
    reports: List[SimReport]

    def latency_ci(self, confidence: float = 0.95) -> CI:
        """Across-replication mean request latency."""
        return self._ci("mean_latency", confidence)

    @property
    def mean_wrong_shutdowns(self) -> float:
        return float(np.mean([r.n_wrong_shutdowns for r in self.reports]))


@dataclass
class SimSweepResult:
    """All cells of one sweep, in (device, trace, policy) grid order."""

    spec: SimSweepSpec
    cells: List[SimCellResult] = field(default_factory=list)
    #: how the runner executed the grid: requested vs effective job
    #: count, the degrade decision, and the per-chunk work estimate
    execution: Dict[str, Any] = field(default_factory=dict)

    def cell(self, device: str, trace: str, policy: str) -> SimCellResult:
        """Look up one cell by its labels."""
        for c in self.cells:
            if (c.device, c.trace, c.policy) == (device, trace, policy):
                return c
        raise KeyError(f"no cell ({device!r}, {trace!r}, {policy!r})")

    def render(self) -> str:
        headers = [
            "device", "trace", "policy", "power (W)", "+-", "saving",
            "latency (s)", "shutdowns", "wrong",
        ]
        rows = []
        for c in self.cells:
            power = c.power_ci()
            rows.append([
                c.device, c.trace, c.policy,
                round(power.estimate, 4), round(power.half_width, 4),
                round(c.saving_ci().estimate, 4),
                round(c.latency_ci().estimate, 3),
                round(c.mean_shutdowns, 1), round(c.mean_wrong_shutdowns, 1),
            ])
        return format_table(
            headers, rows,
            title=f"SIM-SWEEP: event-sim scenario grid "
                  f"({self.spec.n_traces} traces/cell)",
        )


def run_sim_chunk(
    device_name: str,
    policy_specs: Sequence[PolicySpec],
    trace_spec: TraceSpec,
    service_time: float,
    seeds: Sequence[int],
) -> List[List[SimReport]]:
    """One (device, trace family, seed-chunk) work unit, built from
    picklable values: each seed's trace is realized once and every
    policy runs on it, one report list per policy.  Each seed's report
    is a pure function of the arguments (the batched engines are
    chunking-invariant); per-request latency arrays are dropped before
    pickling back."""
    with TELEMETRY.span("chunk", cat="sweep", kind="sim",
                        device=device_name, trace=trace_spec.name,
                        policies=[p.label for p in policy_specs],
                        seeds=list(seeds)):
        device = get_preset(device_name)
        traces = [trace_spec.realize(seed) for seed in seeds]
        return [
            simulate_traces_batch(
                device, p.policy, traces,
                service_time=service_time, oracle=p.oracle,
                keep_latencies=False,
            )
            for p in policy_specs
        ]


def reference_sim_chunk(
    device_name: str,
    policy_specs: Sequence[PolicySpec],
    trace_spec: TraceSpec,
    service_time: float,
    seeds: Sequence[int],
) -> List[List[SimReport]]:
    """Scalar reference path for one :func:`run_sim_chunk` work unit:
    per-policy, per-seed :class:`~repro.sim.DPMSimulator` event loops,
    the reference every vectorized engine is pinned against."""
    device = get_preset(device_name)
    return [
        [
            DPMSimulator(
                device, p.policy, service_time=service_time,
                oracle=p.oracle, keep_latencies=False,
            ).run(trace_spec.realize(seed))
            for seed in seeds
        ]
        for p in policy_specs
    ]


class SimSweepRunner(ChunkedRunner):
    """Chunked executor fan-out over the event-sim cell grid.

    ``chunk_size`` is the trace replications per work unit: smaller
    chunks expose more parallelism, larger ones amortize per-unit
    overhead.  The other settings are the shared ones of
    :class:`~repro.runtime.chunked.ChunkedRunner`; ``verify_fraction``
    re-runs each sampled chunk per seed on the scalar
    :class:`~repro.sim.DPMSimulator` reference (rel <= 1e-9), and
    ``n_jobs`` degrades to in-process when :meth:`estimate_chunk_seconds`
    says a pool cannot pay for itself.
    """

    def __init__(self, chunk_size: int = 8, n_jobs: int = 1,
                 timeout: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.5,
                 checkpoint: Optional[str] = None,
                 verify_fraction: float = 0.0,
                 diagnostics_dir: Optional[str] = None) -> None:
        self._configure("chunk_size", chunk_size, n_jobs, timeout,
                        max_retries, retry_backoff, checkpoint,
                        verify_fraction, diagnostics_dir)

    def estimate_chunk_seconds(self, spec: SimSweepSpec) -> float:
        """Mean estimated wall seconds of one (device, trace family,
        seed-chunk) unit: one realization of the chunk's traces plus
        every policy's evaluation of them.

        Expected request count per replication comes from each trace
        family's rate x duration (0 for infinite-mean heavy tails —
        treated as too small to ship, which errs toward serial); the
        per-request cost depends on which engine the policy rides.
        """
        chunk = min(self.chunk_size, spec.n_traces)
        requests = chunk * float(
            np.mean([t.dist.rate() * t.duration for t in spec.traces])
        )
        return requests * REALIZE_SECONDS_PER_REQUEST + sum(
            estimate_request_seconds(p.policy, requests)
            for p in spec.policies
        )

    def run(self, spec: SimSweepSpec) -> SimSweepResult:
        """Run the full grid; deterministic for any (chunk_size, n_jobs)."""
        cells = list(product(spec.devices, spec.traces, spec.policies))
        devices = {name: get_preset(name) for name in spec.devices}
        plan = SweepPlan(
            spec=spec, cells=cells, seeds=spec.seeds(),
            chunk_size=self.chunk_size, fn=run_sim_chunk, seeds_at=4,
            task=lambda group, c: (group[0][0], spec.policies, group[0][1],
                                   spec.service_time, c),
            group_size=len(spec.policies),
            check=partial(_check_sim_report, devices),
            reference=reference_sim_chunk,
            reference_name="DPMSimulator scalar event loop",
            estimate=self.estimate_chunk_seconds(spec),
        )
        per_cell, execution = self._sweep(
            "sim", plan, n_traces=spec.n_traces, chunk_size=self.chunk_size,
        )
        return SimSweepResult(spec=spec, execution=execution, cells=[
            SimCellResult(device=device, trace=trace.name,
                          policy=policy.label, reports=reports)
            for (device, trace, policy), reports in zip(cells, per_cell)
        ])


def _check_sim_report(devices: Dict[str, Any], report: SimReport,
                      cell: Tuple, seed: int, chunk: int,
                      spec_key: str) -> None:
    device_name, trace_spec, policy_spec = cell
    check_sim_report(
        report, device=devices[device_name], spec_key=spec_key, seed=seed,
        context={"chunk": chunk, "device": device_name,
                 "trace": trace_spec.name, "policy": policy_spec.label},
    )
