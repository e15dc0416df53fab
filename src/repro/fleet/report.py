"""Fleet-level aggregation of per-device simulation runs.

A fleet run produces one :class:`~repro.sim.stats.RunTotals` per device
(the scalar reference dispatcher's :class:`~repro.sim.SimReport` has the
same attributes).  :func:`build_fleet_report` folds them into one
:class:`FleetReport` and drops them: fleet energy and mean power,
savings against an all-always-on fleet, per-device request counts and
residency, and tail latency over the *merged* completion stream — the
fold reads each device's per-request delays, so the fleet quantiles are
exact order statistics, not approximations from per-device summaries.
The report is the aggregate and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..analysis.metrics import latency_percentiles
from ..sim.stats import RunTotals, SimReport


@dataclass
class FleetReport:
    """Final metrics of one fleet simulation run."""

    n_devices: int
    router: str                     #: routing policy name
    policy: str                     #: per-device DPM policy name
    duration: float                 #: fleet horizon (max device end time)
    total_energy: float             #: joules, summed over devices
    mean_power: float               #: fleet watts (energy / duration)
    energy_saving_ratio: float      #: vs. an all-always-on fleet
    n_requests: int
    mean_latency: float             #: over the merged completion stream
    p50_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float
    n_shutdowns: int
    n_wrong_shutdowns: int
    requests_per_device: Tuple[int, ...]
    state_residency: Dict[str, float]  #: fleet-total seconds per condition
    #: mean per-device uptime fraction under the injected fault schedule
    #: (1.0 when the run had no faults)
    availability: float = 1.0
    #: total failover backoff retries across all requests
    n_retries: int = 0
    #: requests that exhausted their retries and were dropped
    n_dropped: int = 0
    #: mean added dispatch delay (seconds) over requests that landed
    failover_latency_inflation: float = 0.0
    #: requests proactively shed by admission control (deadline missed
    #: or retry budget exhausted); disjoint from ``n_dropped``
    n_shed: int = 0
    #: the subset of ``n_shed`` shed by retry-budget exhaustion
    n_budget_shed: int = 0
    #: fraction of *offered* requests served within their deadline
    #: (== throughput when deadlines are disabled; always <= it)
    goodput: float = 1.0
    #: fraction of *landed* requests that made their deadline
    slo_attainment: float = 1.0
    #: circuit-breaker trips (closed/half-open -> open) over the run
    n_breaker_trips: int = 0
    #: requests offered to the dispatcher
    n_offered: int = 0

    @property
    def load_imbalance(self) -> float:
        """Max over mean requests per device (1.0 = perfectly balanced)."""
        counts = np.asarray(self.requests_per_device, dtype=float)
        mean = counts.mean() if counts.size else 0.0
        return float(counts.max() / mean) if mean > 0 else 1.0


def build_fleet_report(
    router: str,
    policy: str,
    home_power: float,
    reports: Sequence[Union[RunTotals, SimReport]],
    availability: float = 1.0,
    n_retries: int = 0,
    n_dropped: int = 0,
    failover_latency_inflation: float = 0.0,
    n_shed: int = 0,
    n_budget_shed: int = 0,
    goodput: float = 1.0,
    slo_attainment: float = 1.0,
    n_breaker_trips: int = 0,
    n_offered: int = 0,
) -> FleetReport:
    """Fold per-device runs into the fleet aggregate.

    ``home_power`` is the replicated device's serving-state power, the
    per-device always-on reference the fleet saving is measured against.
    The fold is the last reader of ``reports``: the returned report
    keeps none of them, so sweep workers ship only the aggregate.
    The fault-injection and overload fields (``availability``, the
    failover counters, shed counts, goodput, SLO attainment, breaker
    trips) come from the fault-aware loop's
    :class:`~repro.fleet.dispatch.OverloadOutcome`; their defaults
    describe a fault-free, shed-free run.  ``n_offered`` is the number
    of requests the dispatcher was offered; the runtime verifier
    enforces ``n_requests + n_dropped + n_shed == n_offered``.
    """
    if not reports:
        raise ValueError("need at least one device report")
    n_devices = len(reports)
    duration = max(r.duration for r in reports)
    total_energy = float(sum(r.total_energy for r in reports))
    horizon = duration if duration > 0 else 1.0
    mean_power = total_energy / horizon
    always_on = n_devices * home_power * horizon
    saving = 1.0 - total_energy / always_on if always_on > 0 else 0.0

    merged = np.concatenate([np.asarray(r.latencies, dtype=float)
                             for r in reports])
    p50, p95, p99 = latency_percentiles(merged)
    residency: Dict[str, float] = {}
    for r in reports:
        for key, span in r.state_residency.items():
            residency[key] = residency.get(key, 0.0) + span

    return FleetReport(
        n_devices=n_devices,
        router=router,
        policy=policy,
        duration=duration,
        total_energy=total_energy,
        mean_power=mean_power,
        energy_saving_ratio=saving,
        n_requests=int(merged.size),
        mean_latency=float(merged.mean()) if merged.size else 0.0,
        p50_latency=p50,
        p95_latency=p95,
        p99_latency=p99,
        max_latency=float(merged.max()) if merged.size else 0.0,
        n_shutdowns=int(sum(r.n_shutdowns for r in reports)),
        n_wrong_shutdowns=int(sum(r.n_wrong_shutdowns for r in reports)),
        requests_per_device=tuple(r.n_requests for r in reports),
        state_residency=residency,
        availability=float(availability),
        n_retries=int(n_retries),
        n_dropped=int(n_dropped),
        failover_latency_inflation=float(failover_latency_inflation),
        n_shed=int(n_shed),
        n_budget_shed=int(n_budget_shed),
        goodput=float(goodput),
        slo_attainment=float(slo_attainment),
        n_breaker_trips=int(n_breaker_trips),
        n_offered=int(n_offered),
    )
