"""Device fault injection: seeded per-device down intervals.

Everything the fleet layer simulates today assumes perfectly reliable
devices; real datacenter DPM operates under failures, and the
energy/latency trade-off changes qualitatively when routers must absorb
failover load.  This module supplies the fault model:

- :class:`FaultProcess` — a *recipe*: alternating up/down durations
  drawn from exponential (MTBF/MTTR means) or deterministic schedules,
  realized per device from a seeded stream so a schedule is a pure
  function of ``(seed, n_devices, horizon)``.  Per-device streams are
  keyed ``(seed, device)``, so device d's fault history never depends on
  the fleet size — the same decorrelation discipline the trace and
  routing streams follow.
- :class:`FaultSchedule` — the *realization*: per-device sorted,
  non-overlapping down intervals ``[start, end)`` over a horizon, with
  point queries (:meth:`FaultSchedule.is_down`,
  :meth:`FaultSchedule.severity_at`), a whole-fleet alive mask for one
  instant (:meth:`FaultSchedule.alive_mask`), and severities for a whole
  time array (:meth:`FaultSchedule.severity_rows`), from which the
  fault-aware routing loop reads every first-attempt device state in one
  lookup.

Interval convention: a device is **down** on ``[start, end)`` — down at
the instant it fails, up again at the instant repair completes.  Every
query helper follows the same convention, so the point and whole-array
queries agree bit for bit.

Severity: each interval optionally carries a *severity*, a
service-demand multiplier ``>= 1.0``.  ``math.inf`` (the default) is a
fail-stop outage — the device cannot serve at all, exactly the pre-existing
semantics.  A finite severity is a **brownout**: the device stays alive
(``is_down`` is False) but every request dispatched to it during the
interval costs ``severity ×`` its nominal service demand — thermal
throttling or contention rather than a crash.  Fail-stop queries
(``is_down`` / ``alive_mask``) see only infinite-severity intervals;
:meth:`FaultSchedule.severity_at` exposes the demand multiplier (1.0
outside any interval), and :meth:`FaultSchedule.severity_rows` the same
for a whole time array (``isinf`` of it is the fail-stop mask).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..checks import check_count, check_positive


class FaultSchedule:
    """Realized per-device down intervals over ``[0, horizon]``.

    Parameters
    ----------
    down_intervals:
        One sequence per device of ``(start, end)`` pairs or
        ``(start, end, severity)`` triples; each device's intervals must
        be sorted, non-overlapping, and lie within ``[0, horizon]`` with
        ``start < end``.  Severity is a service-demand multiplier
        ``>= 1.0``; omitted or ``math.inf`` means fail-stop, a finite
        value is a brownout (device alive but slowed).
    horizon:
        Observation-window length (> 0); availability is measured
        against it.
    """

    def __init__(
        self,
        down_intervals: Sequence[Sequence[Tuple[float, ...]]],
        horizon: float,
    ) -> None:
        self.horizon = check_positive("horizon", horizon)
        self._starts: List[np.ndarray] = []
        self._ends: List[np.ndarray] = []
        self._sevs: List[np.ndarray] = []
        for d, intervals in enumerate(down_intervals):
            pairs = []
            sevs = []
            for entry in intervals:
                if len(entry) == 3:
                    s, e, sev = entry
                elif len(entry) == 2:
                    s, e = entry
                    sev = math.inf
                else:
                    raise ValueError(
                        f"device {d}: intervals must be (start, end) or "
                        f"(start, end, severity), got {tuple(entry)!r}"
                    )
                pairs.append((float(s), float(e)))
                sevs.append(float(sev))
            starts = np.array([s for s, _ in pairs])
            ends = np.array([e for _, e in pairs])
            sev_arr = np.array(sevs)
            if np.any(starts < 0) or np.any(ends > self.horizon):
                raise ValueError(
                    f"device {d}: down intervals must lie in [0, {horizon}]"
                )
            if np.any(ends <= starts):
                raise ValueError(
                    f"device {d}: intervals need start < end, got {pairs}"
                )
            if starts.size > 1 and np.any(starts[1:] < ends[:-1]):
                raise ValueError(
                    f"device {d}: intervals must be sorted and disjoint"
                )
            if np.any(np.isnan(sev_arr)) or np.any(sev_arr < 1.0):
                raise ValueError(
                    f"device {d}: severities are service-demand "
                    f"multipliers and must be >= 1.0 (inf = fail-stop), "
                    f"got {sevs}"
                )
            self._starts.append(starts)
            self._ends.append(ends)
            self._sevs.append(sev_arr)
        if not self._starts:
            raise ValueError("need at least one device")
        # every device's fail-stop intervals in one flat table, so a
        # whole-fleet point query is three array ops instead of one
        # interval lookup per device
        outage = [np.isinf(sev) for sev in self._sevs]
        self._outage_starts = np.concatenate(
            [s[m] for s, m in zip(self._starts, outage)])
        self._outage_ends = np.concatenate(
            [e[m] for e, m in zip(self._ends, outage)])
        self._outage_devices = np.concatenate(
            [np.full(int(m.sum()), d, dtype=np.int64)
             for d, m in enumerate(outage)])

    @property
    def n_devices(self) -> int:
        return len(self._starts)

    # ------------------------------------------------------------------ #
    # point queries (the scalar reference semantics)
    # ------------------------------------------------------------------ #

    def is_down(self, device: int, t: float) -> bool:
        """True when ``device`` is fail-stop down at instant ``t``
        (``[start, end)``).  Brownout (finite-severity) intervals leave
        the device alive and are invisible here."""
        starts = self._starts[device]
        i = int(np.searchsorted(starts, t, side="right")) - 1
        return (
            i >= 0
            and t < float(self._ends[device][i])
            and math.isinf(float(self._sevs[device][i]))
        )

    def severity_at(self, device: int, t: float) -> float:
        """Service-demand multiplier for ``device`` at instant ``t``:
        1.0 outside any interval, the interval's severity inside
        (``math.inf`` for fail-stop outages)."""
        starts = self._starts[device]
        i = int(starts.searchsorted(t, side="right")) - 1
        if i >= 0 and t < float(self._ends[device][i]):
            return float(self._sevs[device][i])
        return 1.0

    def alive_mask(self, t: float) -> np.ndarray:
        """Boolean ``(n_devices,)`` mask: True where the device is up at
        ``t``; ``alive_mask(t)[d] == not is_down(d, t)``.  Each device's
        intervals are disjoint, so "the last interval starting at or
        before ``t`` contains ``t``" is "some interval contains ``t``",
        which one pass over the flat outage table answers."""
        alive = np.ones(self.n_devices, dtype=bool)
        hit = (self._outage_starts <= t) & (t < self._outage_ends)
        alive[self._outage_devices[hit]] = False
        return alive

    def severity_rows(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`severity_at` over a time array: float
        ``(T, n_devices)`` where ``[k, d] == severity_at(d, times[k])``
        bit for bit.  One searchsorted per device instead of one Python
        interval lookup per (time, device) pair; a schedule without
        intervals returns a read-only all-1.0 view that allocates nothing."""
        times = np.asarray(times, dtype=np.float64)
        if not any(starts.size for starts in self._starts):
            return np.broadcast_to(1.0, (times.size, self.n_devices))
        out = np.ones((times.size, self.n_devices))
        for d in range(self.n_devices):
            starts = self._starts[d]
            if starts.size == 0:
                continue
            idx = np.searchsorted(starts, times, side="right") - 1
            inside = idx >= 0
            safe = np.where(inside, idx, 0)
            inside &= times < self._ends[d][safe]
            out[:, d] = np.where(inside, self._sevs[d][safe], 1.0)
        return out

    @property
    def has_brownouts(self) -> bool:
        """True when any interval carries a finite (brownout) severity."""
        return any(np.any(np.isfinite(sev)) for sev in self._sevs)

    # ------------------------------------------------------------------ #
    # whole-schedule views
    # ------------------------------------------------------------------ #

    def intervals(self, device: int) -> List[Tuple[float, float]]:
        """The device's intervals as ``(start, end)`` pairs (brownout
        intervals included; see :meth:`interval_severities`)."""
        return list(
            zip(self._starts[device].tolist(), self._ends[device].tolist())
        )

    def interval_severities(self, device: int) -> List[float]:
        """Severity of each interval, aligned with :meth:`intervals`."""
        return self._sevs[device].tolist()

    def down_time(self, device: int) -> float:
        """Total seconds ``device`` spends fail-stop down within the
        horizon (brownout time is degraded, not down)."""
        stops = np.isinf(self._sevs[device])
        return float(
            (self._ends[device][stops] - self._starts[device][stops]).sum()
        )

    def availability(self) -> np.ndarray:
        """Per-device uptime fraction over the horizon."""
        down = np.array([self.down_time(d) for d in range(self.n_devices)])
        return 1.0 - down / self.horizon

    def all_down_at(self, t: float) -> bool:
        """True when not a single device is up at ``t``."""
        return not bool(self.alive_mask(t).any())

    def __repr__(self) -> str:
        n_int = sum(s.size for s in self._starts)
        return (
            f"FaultSchedule(n_devices={self.n_devices}, "
            f"horizon={self.horizon:.6g}, n_down_intervals={n_int})"
        )


@dataclass(frozen=True)
class FaultProcess:
    """Seeded alternating up/down renewal process, one stream per device.

    Every device starts up (unless it belongs to the ``start_down``
    cohort) and alternates: an up period with mean ``mtbf`` seconds,
    then a down period with mean ``mttr`` seconds.  ``deterministic``
    swaps the exponential draws for the exact means — all devices then
    fail in lock-step, the correlated worst case (useful as a degenerate
    stress schedule; the seeded exponential draws are the realistic
    decorrelated default).

    Parameters
    ----------
    mtbf:
        Mean time between failures — expected up-time run length (> 0).
    mttr:
        Mean time to repair — expected down-interval length (> 0).
    deterministic:
        Use the exact means instead of exponential draws.
    start_down:
        Fraction of the fleet (devices ``0 .. floor(f*N)-1``) that
        begins the horizon mid-repair — a cold-start / rolling-outage
        scenario.  Must be < 1: with the whole fleet down at t=0 there
        is no surviving device to fail over to (the sweep spec rejects
        it with a clear error rather than simulating a black hole).
    severity:
        Service-demand multiplier applied during fault intervals
        (``>= 1.0``).  The default ``math.inf`` keeps today's fail-stop
        semantics; a finite value turns every interval into a brownout
        (device alive but ``severity ×`` slower).  A constant — no extra
        RNG draws — so existing fail-stop schedules are bit-unchanged.
    """

    mtbf: float
    mttr: float
    deterministic: bool = False
    start_down: float = 0.0
    severity: float = math.inf

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects NaN
        if not self.mtbf > 0:
            raise ValueError(f"mtbf must be > 0, got {self.mtbf}")
        if not self.mttr > 0:
            raise ValueError(f"mttr must be > 0, got {self.mttr}")
        if not 0.0 <= self.start_down < 1.0:
            raise ValueError(
                f"start_down must lie in [0, 1) — a whole fleet down at "
                f"t=0 has no surviving device to fail over to "
                f"(got {self.start_down})"
            )
        if math.isnan(self.severity) or self.severity < 1.0:
            raise ValueError(
                f"severity is a service-demand multiplier and must be "
                f">= 1.0 (inf = fail-stop), got {self.severity}"
            )

    def _durations(self, rng: np.random.Generator, mean: float) -> float:
        return mean if self.deterministic else float(rng.exponential(mean))

    def realize(
        self, n_devices: int, horizon: float, seed: int = 0
    ) -> FaultSchedule:
        """Draw one :class:`FaultSchedule` — a pure function of
        ``(n_devices, horizon, seed)``; device ``d``'s stream is keyed
        ``(seed, d)``, so its fault history is independent of the fleet
        size and of every other device."""
        n_devices = check_count("n_devices", n_devices)
        check_positive("horizon", horizon)
        n_start_down = int(np.floor(self.start_down * n_devices))
        sev = float(self.severity)
        intervals: List[List[Tuple[float, float, float]]] = []
        for d in range(n_devices):
            rng = np.random.default_rng([int(seed), d])
            spans: List[Tuple[float, float, float]] = []
            t = 0.0
            if d < n_start_down:
                down = self._durations(rng, self.mttr)
                spans.append((0.0, min(down, horizon), sev))
                t = down
            while t < horizon:
                t += self._durations(rng, self.mtbf)
                if t >= horizon:
                    break
                down = self._durations(rng, self.mttr)
                spans.append((t, min(t + down, horizon), sev))
                t += down
            intervals.append(spans)
        return FaultSchedule(intervals, horizon)


def no_faults(n_devices: int, horizon: float) -> FaultSchedule:
    """An always-up schedule (the reliability baseline in tests)."""
    return FaultSchedule(
        [[] for _ in range(check_count("n_devices", n_devices))], horizon)


def resolve_fault_schedule(
    faults, n_devices: int, horizon: float, seed: int = 0
) -> Optional[FaultSchedule]:
    """Accept a :class:`FaultSchedule`, a :class:`FaultProcess` (realized
    with ``seed``), or None — the polymorphic ``faults`` argument the
    fleet entry points take."""
    if faults is None:
        return None
    n_devices = check_count("n_devices", n_devices)
    if isinstance(faults, FaultSchedule):
        if faults.n_devices != n_devices:
            raise ValueError(
                f"fault schedule covers {faults.n_devices} devices, "
                f"fleet has {n_devices}"
            )
        return faults
    if isinstance(faults, FaultProcess):
        return faults.realize(n_devices, horizon, seed=seed)
    raise TypeError(
        f"faults must be a FaultSchedule, FaultProcess, or None, "
        f"got {type(faults)!r}"
    )
