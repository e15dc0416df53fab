"""Experiment configurations with the defaults used in EXPERIMENTS.md.

Every experiment is a pure function of its config dataclass (plus seeds),
so results in the paper-vs-measured log are replayable from the values
recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..runtime.sweep import SweepRunner


@dataclass(frozen=True)
class EnvConfig:
    """Shared slotted-environment parameters (Fig. 1 / Fig. 2 device)."""

    device: str = "abstract3"      #: preset name from repro.device.PRESETS
    slot_length: float = 1.0
    queue_capacity: int = 8
    p_serve: float = 0.9
    perf_weight: float = 0.5
    loss_penalty: float = 2.0
    discount: float = 0.95


@dataclass(frozen=True)
class SweepConfig:
    """Multi-seed execution knobs shared by the sweep-capable experiments.

    ``n_seeds`` independent replicas run lock-step on the batched engine
    (:mod:`repro.runtime`), chunked ``batch_size`` at a time; seed ``i``
    is ``seed + i * seed_stride``.  ``n_jobs`` shards the chunks across
    worker processes (results are bit-identical for any
    ``(batch_size, n_jobs)`` combination).  With the default
    ``n_seeds = 1`` an experiment reproduces its classic single-seed
    protocol.

    ``verify_fraction`` turns on sampled shadow execution: that fraction
    of seed chunks is deterministically re-run on the scalar reference
    path and compared field-for-field (see
    :mod:`repro.runtime.verify`).  ``diagnostics_dir`` names a directory
    for minimal-repro bundles written on invariant violations or worker
    failures.
    """

    n_seeds: int = 1
    batch_size: int = 32
    seed_stride: int = 1_000
    n_jobs: int = 1
    verify_fraction: float = 0.0
    diagnostics_dir: Optional[str] = None

    def seeds(self, base_seed: int) -> List[int]:
        """The seed list this sweep realizes from an experiment's base seed."""
        return [
            base_seed + i * self.seed_stride for i in range(self.n_seeds)
        ]

    def runner(self) -> SweepRunner:
        """The :class:`~repro.runtime.SweepRunner` these knobs configure."""
        return SweepRunner(batch_size=self.batch_size, n_jobs=self.n_jobs,
                           verify_fraction=self.verify_fraction,
                           diagnostics_dir=self.diagnostics_dir)


@dataclass(frozen=True)
class Fig1Config:
    """FIG1 — convergence on the optimal policy (stationary input)."""

    env: EnvConfig = field(default_factory=EnvConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    arrival_rate: float = 0.15
    n_slots: int = 200_000
    record_every: int = 2_000
    learning_rate: float = 0.1
    epsilon: float = 0.08
    seed: int = 7
    tolerance: float = 0.03        #: convergence band around optimal saving
    sustain: int = 5               #: record points required inside the band

    def seeds(self) -> List[int]:
        """The seed list realized by the sweep settings."""
        return self.sweep.seeds(self.seed)


@dataclass(frozen=True)
class Fig2Config:
    """FIG2 — rapid response to piecewise-stationary input."""

    env: EnvConfig = field(default_factory=EnvConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    segment_rates: Tuple[float, ...] = (0.30, 0.05, 0.20, 0.02)
    segment_slots: int = 50_000
    record_every: int = 1_000
    # High constant learning rate = permanent plasticity: the knob that
    # buys the paper's "responds almost instantly" (the learning-rate
    # ablation bench quantifies the tracking-vs-noise trade-off).
    learning_rate: float = 0.5
    epsilon: float = 0.05
    seed: int = 11
    tolerance: float = 0.08       #: band around the segment steady level
    sustain: int = 3
    # model-based baseline
    mb_window: int = 2_000
    mb_min_samples: int = 2_000    #: samples needed for a trusted estimate
    mb_freeze_slots: int = 3_000   #: optimizer latency model (slots)
    mb_solver: str = "linear_programming"
    mb_initial_rate: float = 0.30
    mb_cusum_drift: float = 0.05
    mb_cusum_threshold: float = 20.0

    def seeds(self) -> List[int]:
        """The seed list realized by the sweep settings."""
        return self.sweep.seeds(self.seed)


@dataclass(frozen=True)
class OverheadConfig:
    """CLAIM-EFF / CLAIM-MEM — per-adaptation cost and memory sweep."""

    env: EnvConfig = field(default_factory=EnvConfig)
    queue_capacities: Tuple[int, ...] = (4, 8, 16, 32)
    arrival_rate: float = 0.15
    n_q_ops: int = 20_000          #: Q decide+update reps for timing
    batch_size: int = 32           #: replicas per batched Q-op timing rep


@dataclass(frozen=True)
class VariationConfig:
    """CLAIM-VAR — tolerance to small-scale parameter variation.

    The base rate sits on the policy-structure boundary of the abstract3
    device (~0.15-0.2: below it a single policy is optimal for *every*
    rate, above it frozen policies pay large regret), so the sinusoidal
    drift actually crosses decision boundaries — symmetric drift deep
    inside one region leaves a frozen optimal policy unhurt and would
    make the comparison vacuous.
    """

    env: EnvConfig = field(default_factory=EnvConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    base_rate: float = 0.2
    amplitudes: Tuple[float, ...] = (0.0, 0.1, 0.2)
    period: int = 40_000
    n_slots: int = 160_000
    learning_rate: float = 0.15
    epsilon: float = 0.02          #: low tax — drift is slow, mild
    seed: int = 23
    warmup_slots: int = 60_000     #: Q-DPM pre-training at the base rate

    def seeds(self) -> List[int]:
        """The seed list realized by the sweep settings."""
        return self.sweep.seeds(self.seed)


@dataclass(frozen=True)
class PolicyTableConfig:
    """EXT-POLICY — event-driven cross-policy comparison."""

    device: str = "mobile_hdd"
    duration: float = 40_000.0
    service_time: float = 0.4
    exp_rate: float = 0.05
    pareto_alpha: float = 1.6
    pareto_xm: float = 6.0
    seed: int = 3
    timeout_scale_alt: float = 2.0  #: second timeout variant, x break-even
    n_jobs: int = 1                #: worker processes for the policy x trace grid


@dataclass(frozen=True)
class SimSweepConfig:
    """SIM-SWEEP — scenario grid on the event-driven simulator.

    (device x trace family x policy) cells with ``n_traces`` seeded
    trace replications per cell, fanned across ``n_jobs`` worker
    processes in chunks of ``chunk_size`` and aggregated to mean +-
    bootstrap CI.  Stateless policies ride the vectorized busy-period
    kernel (:mod:`repro.runtime.eventsim`); stateful ones fall back to
    the scalar event loop inside the same cells.
    """

    devices: Tuple[str, ...] = ("mobile_hdd", "wlan")
    duration: float = 10_000.0
    service_time: float = 0.4
    exp_rate: float = 0.05
    pareto_alpha: float = 1.6
    pareto_xm: float = 6.0
    n_traces: int = 8
    seed: int = 3
    seed_stride: int = 101
    chunk_size: int = 4
    n_jobs: int = 1
    verify_fraction: float = 0.0   #: fraction of cells shadow-run on the scalar loop
    diagnostics_dir: Optional[str] = None


@dataclass(frozen=True)
class FleetConfig:
    """FLEET-SWEEP — multi-device dispatch grid on the event simulator.

    (fleet size x router x DPM policy) cells, each replicating ``device``
    ``fleet_sizes[i]`` times behind a dispatcher that routes one shared
    high-rate exponential arrival stream (``exp_rate`` is *fleet-wide*;
    per-device load shrinks as the fleet grows).  ``n_traces`` seeded
    stream replications per cell fan across ``n_jobs`` worker processes
    in chunks of ``chunk_size`` and aggregate to mean +- bootstrap CI.
    Stateless routers partition the stream with NumPy ops, queue-aware
    routers (jsq, power_aware) advance their per-device backlog one
    arrival per round on Python scalars (``route_step_batch``), and
    every sub-trace rides the vectorized busy-period kernel.

    ``mtbf`` switches on fault injection: each device fails and repairs
    on its own seeded exponential renewal process
    (:class:`~repro.workload.FaultProcess` with means ``mtbf`` /
    ``mttr``), and requests routed to a down device fail over to the
    router's best surviving device with up to ``max_retries``
    capped-exponential backoff retries.  ``checkpoint`` names a
    chunk-result journal file so an interrupted sweep resumes without
    recomputation.

    The overload knobs layer graceful degradation on top of the fault
    model.  ``brownout_severity`` makes fault intervals brownouts
    instead of outages: the device keeps serving but every request's
    service demand is multiplied by the severity (>= 1.0).  ``slo``
    gives each request a deadline ``arrival + slo``; requests whose
    predicted completion misses it are shed on admission.  ``breaker``
    arms a per-device circuit breaker that opens after that many
    consecutive failures, and ``retry_budget`` caps fleet-wide failover
    retries with a token bucket of that capacity (exhaustion sheds the
    request instead of retrying).  ``mtbf`` or any of these knobs set
    routes through the fault-aware loop under one
    :class:`~repro.fleet.OverloadConfig` (see
    :func:`~repro.experiments.fleet_sweep.build_spec`); each knob left
    ``None`` is a no-op stage of that loop.
    """

    device: str = "mobile_hdd"
    fleet_sizes: Tuple[int, ...] = (2, 8)
    routers: Tuple[str, ...] = (
        "round_robin", "random", "jsq", "power_aware"
    )
    duration: float = 2_000.0
    service_time: float = 0.4
    exp_rate: float = 1.0          #: fleet-wide arrival rate (requests/s)
    n_traces: int = 8
    seed: int = 17
    seed_stride: int = 101
    chunk_size: int = 4
    n_jobs: int = 1
    mtbf: Optional[float] = None   #: mean time between failures (s); None = no faults
    mttr: float = 50.0             #: mean time to repair (s)
    max_retries: int = 3           #: failover retries before a request drops
    brownout_severity: Optional[float] = None  #: demand multiplier during faults (>= 1)
    slo: Optional[float] = None    #: per-request deadline = arrival + slo (s)
    breaker: Optional[int] = None  #: consecutive failures that trip a breaker
    retry_budget: Optional[float] = None  #: fleet-wide retry token capacity
    checkpoint: Optional[str] = None
    verify_fraction: float = 0.0   #: fraction of cells shadow-run on the scalar dispatcher
    diagnostics_dir: Optional[str] = None


@dataclass(frozen=True)
class GridConfig:
    """GRID — scenario grid over rate x device x horizon x controller.

    The grid-product workload the batched + sharded runtime opens: every
    cell is a multi-seed sweep (``sweep.n_seeds`` seeds, chunked
    ``sweep.batch_size`` at a time), and the whole cell x chunk matrix
    fans out across ``sweep.n_jobs`` worker processes.  Controllers:
    ``"qdpm"`` (learning) and ``"frozen"`` (optimal policy solved per
    cell at the cell's mean rate).
    """

    env: EnvConfig = field(default_factory=EnvConfig)
    sweep: SweepConfig = field(default_factory=lambda: SweepConfig(n_seeds=4))
    rates: Tuple[float, ...] = (0.05, 0.15, 0.30)
    devices: Tuple[str, ...] = ("abstract3", "two_state")
    horizons: Tuple[int, ...] = (40_000,)
    controllers: Tuple[str, ...] = ("qdpm", "frozen")
    record_every: int = 2_000
    learning_rate: float = 0.1
    epsilon: float = 0.08
    seed: int = 7

    def seeds(self) -> List[int]:
        """The seed list realized by the sweep settings."""
        return self.sweep.seeds(self.seed)
