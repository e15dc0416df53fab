"""EXT-POLICY: cross-policy comparison on the event-driven simulator.

The standard table of the DPM literature, giving the figure reproductions
their context: every classic policy family on the same realistic device
and traces, reporting power, saving (normalized to the always-on policy's
measured power), latency, and shutdown quality.  Two workload families:
memoryless (exponential) and heavy-tailed (Pareto) idle behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analysis import format_table
from ..baselines import (
    AdaptiveTimeout,
    AlwaysOn,
    FixedTimeout,
    GreedySleep,
    OracleShutdown,
    PredictiveShutdown,
)
from ..device import get_preset
from ..runtime import check_sim_report, get_executor, simulate_trace
from ..sim import SimReport
from ..workload import Exponential, Pareto, Trace, renewal_trace
from .config import PolicyTableConfig


@dataclass
class PolicyTableRow:
    """One (policy, trace) cell of the comparison."""

    policy: str
    trace: str
    mean_power: float
    saving_vs_always_on: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    n_shutdowns: int
    n_wrong_shutdowns: int


@dataclass
class PolicyTableResult:
    """The full policy x workload grid."""

    config: PolicyTableConfig
    rows: List[PolicyTableRow]

    def render(self) -> str:
        headers = [
            "trace", "policy", "power (W)", "saving", "latency (s)",
            "p50 lat", "p95 lat", "p99 lat", "shutdowns", "wrong",
        ]
        rows = [
            [
                r.trace, r.policy, round(r.mean_power, 4),
                round(r.saving_vs_always_on, 4), round(r.mean_latency, 3),
                round(r.p50_latency, 3), round(r.p95_latency, 3),
                round(r.p99_latency, 3), r.n_shutdowns, r.n_wrong_shutdowns,
            ]
            for r in self.rows
        ]
        return format_table(
            headers, rows,
            title="EXT-POLICY: event-driven policy comparison "
                  f"(device={self.config.device})",
        )


def _policies(config: PolicyTableConfig, break_even: float):
    """The policy roster, oracle last (it needs the oracle context)."""
    return [
        (AlwaysOn(), False),
        (GreedySleep(), False),
        (FixedTimeout(), False),  # timeout = break-even (2-competitive)
        (FixedTimeout(config.timeout_scale_alt * break_even), False),
        (AdaptiveTimeout(initial_timeout=break_even), False),
        (PredictiveShutdown(smoothing=0.5), False),
        (OracleShutdown(), True),
    ]


def _policy_label(policy, break_even: float, config: PolicyTableConfig) -> str:
    if isinstance(policy, FixedTimeout):
        timeout = policy._timeout  # noqa: SLF001 - reporting only
        if timeout is None:
            return f"timeout(Tbe={break_even:.2f}s)"
        return f"timeout({timeout:.2f}s)"
    return policy.name


def _simulate_cell(config: PolicyTableConfig, trace: Trace, policy,
                   oracle: bool) -> SimReport:
    """One (policy, trace) simulation — the grid's shardable work unit.

    Module-level and built from picklable values only, so the executor
    can ship cells to worker processes; the simulation itself is
    deterministic given the trace, so sharding never changes the table.
    Routes through :func:`~repro.runtime.simulate_trace`, so the
    stateless roster rides the vectorized busy-period kernel while the
    adaptive/predictive arms keep the scalar event loop.
    """
    return simulate_trace(
        get_preset(config.device), policy, trace,
        service_time=config.service_time, oracle=oracle,
    )


def run_policy_table(
    config: PolicyTableConfig = PolicyTableConfig(),
) -> PolicyTableResult:
    """Run the full grid; deterministic given the config seed.

    ``config.n_jobs > 1`` shards the (policy x trace) cells — including
    the per-trace always-on normalization runs — across worker
    processes; cell results are independent, so the table is identical
    at any job count.  Every cell's report goes through
    :func:`~repro.runtime.check_sim_report` in the parent (energy
    conservation against the device included), as every sweep's
    reports do.
    """
    device = get_preset(config.device)
    deepest = device.deepest_state()
    break_even = device.break_even_time(deepest, device.initial_state)

    rng = np.random.default_rng(config.seed)
    traces: Dict[str, Trace] = {
        f"exp(rate={config.exp_rate})": renewal_trace(
            Exponential(config.exp_rate), config.duration, rng
        ),
        f"pareto(a={config.pareto_alpha})": renewal_trace(
            Pareto(config.pareto_alpha, config.pareto_xm), config.duration, rng
        ),
    }

    # flatten: per trace, one baseline (always-on normalization) cell
    # followed by the policy roster cells, all independent work units
    tasks: List[tuple] = []
    labels: List[tuple] = []  # (trace_name, policy_label or None)
    for trace_name, trace in traces.items():
        tasks.append((config, trace, AlwaysOn(), False))
        labels.append((trace_name, None))
        for policy, oracle in _policies(config, break_even):
            tasks.append((config, trace, policy, oracle))
            labels.append((trace_name, _policy_label(policy, break_even, config)))
    reports = get_executor(config.n_jobs).submit_all(_simulate_cell, tasks).get()

    rows: List[PolicyTableRow] = []
    base_power = 0.0
    for (trace_name, policy_label), report in zip(labels, reports):
        check_sim_report(report, device=device, context={
            "trace": trace_name, "policy": policy_label or AlwaysOn.name,
        })
        if policy_label is None:
            # normalize saving to the measured always-on power on this trace
            base_power = report.mean_power
            continue
        saving = (
            1.0 - report.mean_power / base_power if base_power > 0 else 0.0
        )
        rows.append(
            PolicyTableRow(
                policy=policy_label,
                trace=trace_name,
                mean_power=report.mean_power,
                saving_vs_always_on=saving,
                mean_latency=report.mean_latency,
                p50_latency=report.p50_latency,
                p95_latency=report.p95_latency,
                p99_latency=report.p99_latency,
                n_shutdowns=report.n_shutdowns,
                n_wrong_shutdowns=report.n_wrong_shutdowns,
            )
        )
    return PolicyTableResult(config=config, rows=rows)
