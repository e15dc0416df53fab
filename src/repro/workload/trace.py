"""Request traces: the concrete synthetic input fed to simulators.

A :class:`Trace` is an ordered sequence of request arrival times (plus
optional per-request service demands).  Generators produce traces,
simulators consume them, and the estimator of the model-based baseline
fits parameters to them.  Traces serialize to a simple two-column CSV so
experiments are replayable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..checks import check_nonnegative


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (used in reports and tests)."""

    n_requests: int
    duration: float
    arrival_rate: float
    mean_interarrival: float
    cv_interarrival: float  #: coefficient of variation (1.0 for Poisson)
    max_gap: float


class Trace:
    """An arrival trace: strictly ordered request times on ``[0, duration]``.

    Parameters
    ----------
    arrival_times:
        Non-decreasing array of finite arrival instants (seconds).
    duration:
        Finite observation-window length; defaults to the last arrival.
        Needed so an empty tail (a long final idle period) is not
        silently dropped.
    service_demands:
        Optional per-request service time demands (finite seconds);
        defaults to None meaning "unit demand decided by the simulator".
    """

    def __init__(
        self,
        arrival_times: Iterable[float],
        duration: Optional[float] = None,
        service_demands: Optional[Iterable[float]] = None,
    ) -> None:
        if isinstance(arrival_times, np.ndarray):
            times = np.array(arrival_times, dtype=float)
        else:
            times = np.asarray(list(arrival_times), dtype=float)
        if not np.isfinite(times).all():
            raise ValueError("arrival_times must be finite")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("arrival_times must be non-decreasing")
        if times.size and times[0] < 0:
            raise ValueError("arrival_times must be >= 0")
        if duration is None:
            duration = float(times[-1]) if times.size else 0.0
        duration = check_nonnegative("duration", duration)
        if times.size and duration < times[-1]:
            raise ValueError(
                f"duration {duration} ends before the last arrival {times[-1]}"
            )
        self._times = times
        self._duration = duration
        if service_demands is not None:
            if isinstance(service_demands, np.ndarray):
                demands = np.array(service_demands, dtype=float)
            else:
                demands = np.asarray(list(service_demands), dtype=float)
            if demands.shape != times.shape:
                raise ValueError("service_demands must match arrival_times length")
            if not np.isfinite(demands).all():
                raise ValueError("service_demands must be finite")
            if demands.size and np.any(demands < 0):
                raise ValueError("service_demands must be >= 0")
            self._demands: Optional[np.ndarray] = demands
        else:
            self._demands = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def arrival_times(self) -> np.ndarray:
        """Copy of the arrival-time array."""
        return self._times.copy()

    @property
    def service_demands(self) -> Optional[np.ndarray]:
        """Copy of per-request demands, or None."""
        return None if self._demands is None else self._demands.copy()

    @property
    def duration(self) -> float:
        """Observation-window length in seconds."""
        return self._duration

    def __len__(self) -> int:
        return int(self._times.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self._times.tolist())

    def interarrivals(self) -> np.ndarray:
        """Gaps between consecutive arrivals (first gap is from t=0)."""
        if not len(self):
            return np.empty(0)
        return np.diff(np.concatenate(([0.0], self._times)))

    def idle_periods(self, service_time: float = 0.0) -> np.ndarray:
        """Idle-period lengths assuming each request busies the device for
        ``service_time`` seconds (simple back-to-back service model).

        The gap after the last request (to ``duration``) is included.  Used
        by oracle policies and by idle-length histogram reports.
        """
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        if not len(self):
            return np.array([self._duration]) if self._duration > 0 else np.empty(0)
        ends = self._times + service_time
        starts = np.concatenate(([0.0], ends[:-1]))
        gaps = self._times - starts
        tail = self._duration - ends[-1]
        gaps = np.concatenate((gaps, [tail]))
        return np.clip(gaps, 0.0, None)

    def stats(self) -> TraceStats:
        """Compute :class:`TraceStats` for this trace."""
        gaps = self.interarrivals()
        if gaps.size:
            mean_gap = float(gaps.mean())
            cv = float(gaps.std() / mean_gap) if mean_gap > 0 else 0.0
            max_gap = float(
                max(gaps.max(), self._duration - self._times[-1])
            )
        else:
            mean_gap = float("inf")
            cv = 0.0
            max_gap = self._duration
        rate = len(self) / self._duration if self._duration > 0 else 0.0
        return TraceStats(
            n_requests=len(self),
            duration=self._duration,
            arrival_rate=rate,
            mean_interarrival=mean_gap,
            cv_interarrival=cv,
            max_gap=max_gap,
        )

    # ------------------------------------------------------------------ #
    # manipulation
    # ------------------------------------------------------------------ #

    def slice(self, start: float, end: float) -> "Trace":
        """Sub-trace on ``[start, end]``, re-based so it starts at t=0."""
        if not 0 <= start <= end <= self._duration:
            raise ValueError(
                f"need 0 <= start <= end <= duration, got [{start}, {end}] "
                f"within {self._duration}"
            )
        mask = (self._times >= start) & (self._times <= end)
        times = self._times[mask] - start
        demands = self._demands[mask] if self._demands is not None else None
        return Trace(times, duration=end - start, service_demands=demands)

    def concat(self, other: "Trace") -> "Trace":
        """Append ``other`` after this trace (time-shifted by our duration)."""
        times = np.concatenate((self._times, other._times + self._duration))
        if self._demands is None and other._demands is None:
            demands = None
        else:
            mine = self._demands if self._demands is not None else np.zeros(len(self))
            theirs = (
                other._demands if other._demands is not None else np.zeros(len(other))
            )
            demands = np.concatenate((mine, theirs))
        return Trace(times, duration=self._duration + other._duration,
                     service_demands=demands)

    def split(
        self,
        assignments: Iterable[int],
        n_parts: Optional[int] = None,
    ) -> List["Trace"]:
        """Partition into per-assignee sub-traces (the dispatcher primitive).

        ``assignments[i]`` names the part request ``i`` belongs to.  Every
        sub-trace keeps the *full* observation window, so trailing idle
        time is preserved on each part; per-request demands are carried
        with their requests.  Sub-traces stay sorted because each is an
        order-preserving subsequence of a sorted sequence.

        Parameters
        ----------
        assignments:
            Integer array aligned with the arrivals, values in
            ``[0, n_parts)``.
        n_parts:
            Number of parts to produce (parts may be empty); defaults to
            ``max(assignments) + 1``.
        """
        assignments = np.asarray(assignments)
        if assignments.shape != self._times.shape:
            raise ValueError(
                f"assignments must match the {len(self)} arrivals, "
                f"got shape {assignments.shape}"
            )
        if assignments.size and not np.issubdtype(assignments.dtype, np.integer):
            raise ValueError("assignments must be integers")
        if n_parts is None:
            n_parts = int(assignments.max()) + 1 if assignments.size else 1
        if n_parts < 1:
            raise ValueError(f"n_parts must be >= 1, got {n_parts}")
        if assignments.size and not (
            0 <= int(assignments.min()) and int(assignments.max()) < n_parts
        ):
            raise ValueError(
                f"assignments must lie in [0, {n_parts}), got "
                f"[{int(assignments.min())}, {int(assignments.max())}]"
            )
        parts: List[Trace] = []
        for k in range(int(n_parts)):
            mask = assignments == k
            demands = self._demands[mask] if self._demands is not None else None
            parts.append(
                Trace(
                    self._times[mask],
                    duration=self._duration,
                    service_demands=demands,
                )
            )
        return parts

    @classmethod
    def merge(cls, traces: Iterable["Trace"]) -> "Trace":
        """Superpose traces observed over a shared window (inverse of
        :meth:`split` up to the ordering of simultaneous arrivals).

        The merged window is the longest of the inputs; demands are
        carried with their requests (traces without demands contribute
        zeros when any input has them).  The time sort is stable, so ties
        resolve in input-trace order — deterministic for any input.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("need at least one trace to merge")
        for t in traces:
            if not isinstance(t, Trace):
                raise TypeError(f"can only merge Trace objects, got {type(t)!r}")
        duration = max(t._duration for t in traces)
        times = np.concatenate([t._times for t in traces])
        order = np.argsort(times, kind="stable")
        if any(t._demands is not None for t in traces):
            demands = np.concatenate([
                t._demands if t._demands is not None else np.zeros(len(t))
                for t in traces
            ])[order]
        else:
            demands = None
        return cls(times[order], duration=duration, service_demands=demands)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_csv(self) -> str:
        """Two-column CSV: arrival time, service demand (blank if none).

        The header row carries the window duration so round trips preserve
        trailing idle time.
        """
        buf = io.StringIO()
        buf.write(f"# duration={self._duration!r}\n")
        buf.write("arrival_time,service_demand\n")
        for i, t in enumerate(self._times):
            demand = "" if self._demands is None else repr(float(self._demands[i]))
            buf.write(f"{float(t)!r},{demand}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """Inverse of :meth:`to_csv`."""
        duration = None
        times = []
        demands: list = []
        any_demand = False
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("arrival_time"):
                continue
            if line.startswith("#"):
                if "duration=" in line:
                    duration = float(line.split("duration=", 1)[1])
                continue
            parts = line.split(",")
            times.append(float(parts[0]))
            if len(parts) > 1 and parts[1] != "":
                demands.append(float(parts[1]))
                any_demand = True
            else:
                demands.append(0.0)
        return cls(
            times,
            duration=duration,
            service_demands=demands if any_demand else None,
        )

    def save(self, path: str) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w") as f:
            f.write(self.to_csv())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with open(path) as f:
            return cls.from_csv(f.read())

    def __repr__(self) -> str:
        return f"Trace(n={len(self)}, duration={self._duration:.6g})"
