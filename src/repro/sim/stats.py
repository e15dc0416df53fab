"""Accounting for the event-driven simulator: energy, latency, residency.

:func:`compile_report` is the single report-assembly path: the scalar
event loop (:class:`~repro.sim.simulator.DPMSimulator`) feeds it its
trackers' raw sequences, the busy-period engines
(:mod:`repro.runtime.eventsim`) array aggregates, each as a
:class:`RunTotals`, which the fleet fold also reads without a report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import latency_percentiles


@dataclass
class SimReport:
    """Final metrics of one event-driven simulation run."""

    duration: float                 #: simulated seconds
    total_energy: float             #: joules
    mean_power: float               #: watts
    energy_saving_ratio: float      #: vs. always-on at home-state power
    n_requests: int
    mean_latency: float             #: seconds per request (arrival->done)
    p50_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float
    n_shutdowns: int                #: down-transitions taken
    n_wrong_shutdowns: int          #: idle period shorter than break-even
    n_idle_periods: int
    mean_idle_length: float
    state_residency: Dict[str, float]  #: seconds per power condition
    #: per-request completion delays in arrival order, for exact fleet merges
    latencies: Tuple[float, ...] = field(default=(), repr=False)


class EnergyMeter:
    """Integrates power over piecewise-constant conditions."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._last_time = start_time
        self._power = 0.0
        self._condition = ""
        self.total_energy = 0.0
        self.residency: Dict[str, float] = defaultdict(float)

    def set_condition(self, now: float, power: float, label: str) -> None:
        """Close the current interval and open a new one at ``power``."""
        if now < self._last_time - 1e-12:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        span = max(0.0, now - self._last_time)
        self.total_energy += self._power * span
        if self._condition:
            self.residency[self._condition] += span
        self._last_time = now
        self._power = power
        self._condition = label

    def add_lump(self, energy: float) -> None:
        """Charge an instantaneous energy cost (zero-latency transition)."""
        if energy < 0:
            raise ValueError("lump energy must be >= 0")
        self.total_energy += energy

    def finish(self, now: float) -> None:
        """Close the final interval at ``now``."""
        self.set_condition(now, 0.0, "")


class LatencyTracker:
    """Per-request waiting+service latency collection."""

    def __init__(self) -> None:
        self._latencies: List[float] = []

    def record(self, arrival_time: float, completion_time: float) -> None:
        if completion_time < arrival_time - 1e-12:
            raise ValueError("completion precedes arrival")
        self._latencies.append(max(0.0, completion_time - arrival_time))

    @property
    def count(self) -> int:
        return len(self._latencies)

    @property
    def values(self) -> List[float]:
        """Recorded latencies in arrival order (for report assembly)."""
        return list(self._latencies)


class IdleTracker:
    """Idle-period bookkeeping: lengths, shutdowns, wrong shutdowns."""

    def __init__(self) -> None:
        self.idle_lengths: List[float] = []
        self.n_shutdowns = 0
        self.n_wrong_shutdowns = 0

    def record_idle(self, length: float) -> None:
        self.idle_lengths.append(max(0.0, length))

    def record_shutdown(self, idle_length: Optional[float], break_even: float) -> None:
        """Count a down transition; flag it wrong if the idle period it
        covered was shorter than the target's break-even time."""
        self.n_shutdowns += 1
        if idle_length is not None and idle_length < break_even:
            self.n_wrong_shutdowns += 1


class RunTotals(NamedTuple):
    """One run's raw totals, as every engine ends a run; the fleet fold
    reads them as they are, :func:`compile_report` summarizes them."""

    duration: float
    total_energy: float
    latencies: Sequence[float]
    idle_lengths: Sequence[float]
    n_shutdowns: int
    n_wrong_shutdowns: int
    state_residency: Dict[str, float]
    n_requests: int


def compile_report(home_power: float, run: RunTotals,
                   keep_latencies: bool = True) -> SimReport:
    """Assemble the final :class:`SimReport` from one run's totals.

    Shared by the scalar event loop and the vectorized kernel so the two
    paths cannot drift in how summary metrics are derived.

    ``keep_latencies=False`` drops the raw per-request array once the
    summary percentiles are computed — the opt-out for callers (the
    sweep runners) that never merge completion streams downstream, so
    per-replication reports shipped back from worker processes stay
    small.
    """
    latencies = np.asarray(run.latencies, dtype=float)
    idle_lengths = np.asarray(run.idle_lengths, dtype=float)
    end_time, total_energy = run.duration, run.total_energy
    duration = end_time if end_time > 0 else 1.0
    mean_power = total_energy / duration
    saving = 1.0 - mean_power / home_power if home_power > 0 else 0.0
    p50, p95, p99 = latency_percentiles(latencies)
    return SimReport(
        duration=end_time,
        total_energy=total_energy,
        mean_power=mean_power,
        energy_saving_ratio=saving,
        n_requests=int(latencies.size),
        mean_latency=float(np.mean(latencies)) if latencies.size else 0.0,
        p50_latency=p50,
        p95_latency=p95,
        p99_latency=p99,
        max_latency=float(np.max(latencies)) if latencies.size else 0.0,
        n_shutdowns=int(run.n_shutdowns),
        n_wrong_shutdowns=int(run.n_wrong_shutdowns),
        n_idle_periods=int(idle_lengths.size),
        mean_idle_length=float(np.mean(idle_lengths)) if idle_lengths.size else 0.0,
        state_residency=dict(run.state_residency),
        latencies=tuple(latencies.tolist()) if keep_latencies else (),
    )
