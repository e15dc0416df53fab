"""FLEET-SWEEP: multi-device request dispatch on the event simulator.

Every other experiment manages *one* device; this one is what the
:mod:`repro.fleet` subsystem opens up: N replicas of a device sharing a
single high-rate arrival stream behind a dispatcher, across fleet
sizes, routing policies, and per-device DPM policies, with bootstrap
CIs over seeded stream replications.  The table answers the
cluster-scale questions the single-device reproduction cannot: how much
energy does power-aware routing buy over round-robin, and what does it
cost in tail latency on the merged completion stream.
"""

from __future__ import annotations

from ..baselines import AlwaysOn, FixedTimeout, GreedySleep, OracleShutdown
from ..device import get_preset
from ..fleet import (
    BreakerConfig,
    FailoverConfig,
    FleetSweepResult,
    FleetSweepRunner,
    FleetSweepSpec,
    OverloadConfig,
    RetryBudgetConfig,
)
from ..runtime import PolicySpec, TraceSpec
from ..workload import Exponential, FaultProcess
from .config import FleetConfig


def _policy_roster() -> tuple:
    """The per-device DPM arms; all stateless, so every sub-trace rides
    the vectorized busy-period kernel."""
    return (
        PolicySpec("always_on", AlwaysOn()),
        PolicySpec("greedy", GreedySleep()),
        PolicySpec("timeout(Tbe)", FixedTimeout()),
        PolicySpec("oracle", OracleShutdown(), oracle=True),
    )


def build_spec(config: FleetConfig = FleetConfig()) -> FleetSweepSpec:
    """The :class:`~repro.fleet.FleetSweepSpec` this config realizes.

    One :class:`~repro.fleet.OverloadConfig` carries the whole
    fault-routing setting: built when ``mtbf`` or any protection knob is
    set (the failover shape plus whichever protections are on), None
    for a plain fault-free sweep.
    """
    get_preset(config.device)  # fail fast on unknown presets
    faults = None
    if config.mtbf is not None:
        fault_kwargs = {"mtbf": config.mtbf, "mttr": config.mttr}
        if config.brownout_severity is not None:
            fault_kwargs["severity"] = float(config.brownout_severity)
        faults = FaultProcess(**fault_kwargs)
    elif config.brownout_severity is not None:
        raise ValueError("brownout_severity requires mtbf (a fault process)")
    overload = None
    if (faults is not None or config.slo is not None
            or config.breaker is not None
            or config.retry_budget is not None):
        overload = OverloadConfig(
            failover=FailoverConfig(max_retries=config.max_retries),
            breaker=(BreakerConfig(failure_threshold=config.breaker)
                     if config.breaker is not None else None),
            retry_budget=(RetryBudgetConfig(capacity=float(config.retry_budget))
                          if config.retry_budget is not None else None),
            slo=(float(config.slo) if config.slo is not None else None),
        )
    return FleetSweepSpec(
        device=config.device,
        fleet_sizes=config.fleet_sizes,
        routers=tuple(config.routers),
        policies=_policy_roster(),
        trace=TraceSpec(
            name=f"exp(rate={config.exp_rate})",
            dist=Exponential(config.exp_rate),
            duration=config.duration,
        ),
        n_traces=config.n_traces,
        seed=config.seed,
        seed_stride=config.seed_stride,
        service_time=config.service_time,
        faults=faults,
        overload=overload,
    )


def run_fleet_sweep(config: FleetConfig = FleetConfig()) -> FleetSweepResult:
    """Run the full grid; deterministic given the config (any job count)."""
    runner = FleetSweepRunner(
        chunk_size=config.chunk_size, n_jobs=config.n_jobs,
        checkpoint=config.checkpoint,
        verify_fraction=config.verify_fraction,
        diagnostics_dir=config.diagnostics_dir,
    )
    return runner.run(build_spec(config))
