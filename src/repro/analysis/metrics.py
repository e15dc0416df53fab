"""Metrics over learning curves: convergence and response times.

Quantifies the two figure claims:

- Fig. 1 — *convergence time*: first record point after which the learner
  stays within a tolerance band of the optimal reference.
- Fig. 2 — *response time*: slots needed after each switching point to
  re-enter the band around the new segment's optimum; "responds almost
  instantly" becomes a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


def convergence_point(
    slots: np.ndarray,
    series: np.ndarray,
    target: float,
    tolerance: float,
    sustain: int = 3,
) -> Optional[int]:
    """First slot index at which ``series`` enters ``target +- tolerance``
    and stays there for ``sustain`` consecutive record points (to the end
    of the data or at least ``sustain`` points).

    Returns None if the series never settles.
    """
    slots = np.asarray(slots)
    series = np.asarray(series)
    if slots.shape != series.shape:
        raise ValueError("slots and series must be aligned")
    if sustain < 1:
        raise ValueError("sustain must be >= 1")
    inside = np.abs(series - target) <= tolerance
    n = len(inside)
    for i in range(n):
        if not inside[i]:
            continue
        horizon = min(n, i + sustain)
        if inside[i:horizon].all():
            return int(slots[i])
    return None


@dataclass(frozen=True)
class SwitchResponse:
    """Recovery behaviour after one regime switch."""

    switch_slot: int
    target: float               #: new segment's optimal value
    dip: float                  #: worst series value in the segment
    recovery_slot: Optional[int]  #: slot of re-entry into the band
    response_slots: Optional[int]  #: recovery_slot - switch_slot


def switch_responses(
    slots: np.ndarray,
    series: np.ndarray,
    switch_points: Sequence[int],
    targets: Sequence[float],
    tolerance: float,
    sustain: int = 3,
    horizon: Optional[int] = None,
) -> List[SwitchResponse]:
    """Per-switch recovery analysis for a Fig. 2-style run.

    ``targets`` holds the optimal value of each segment *after* the
    corresponding switch (len == len(switch_points)).
    """
    slots = np.asarray(slots)
    series = np.asarray(series)
    if len(switch_points) != len(targets):
        raise ValueError("switch_points and targets must be aligned")
    results: List[SwitchResponse] = []
    bounds = list(switch_points) + [int(slots[-1]) + 1 if len(slots) else 0]
    for i, (switch, target) in enumerate(zip(switch_points, targets)):
        seg_end = bounds[i + 1] if horizon is None else min(bounds[i + 1], horizon)
        mask = (slots >= switch) & (slots < seg_end)
        seg_slots = slots[mask]
        seg_series = series[mask]
        if seg_slots.size == 0:
            results.append(SwitchResponse(switch, target, float("nan"), None, None))
            continue
        dip = float(seg_series.min())
        rec = convergence_point(seg_slots, seg_series, target, tolerance, sustain)
        response = None if rec is None else int(rec - switch)
        results.append(SwitchResponse(switch, target, dip, rec, response))
    return results


#: tail-latency quantiles reported by simulator and fleet summaries
TAIL_QUANTILES = (50.0, 95.0, 99.0)


def sorted_percentiles(
    ordered: np.ndarray, qs: Sequence[float]
) -> Tuple[float, ...]:
    """``np.percentile(ordered, qs)`` of an ascending, non-empty 1-D
    float array, bit for bit, aligned with ``qs``.

    The one quantile rule of the package.  It is NumPy's default
    ("linear") method in Python floats: virtual index
    ``(n - 1) * (q / 100)``, the last value at or beyond ``n - 1``,
    otherwise the two neighbours ``a``, ``b`` blended with NumPy's own
    arithmetic (``b - (b - a) * (1 - t)`` for ``t >= 0.5``, else
    ``a + (b - a) * t``).  On the few hundred values of a latency
    stream, ``np.percentile``'s partition and index bookkeeping cost
    about 8x the one sort and three lookups this needs.  A sort may order tied values unlike
    NumPy's partition; that shows only for 0.0 against -0.0, and no
    latency is -0.0.
    """
    n = ordered.size
    if math.isnan(ordered.item(-1)):  # NaN sorts last; NumPy yields NaN
        return tuple(math.nan for _ in qs)
    out = []
    for q in qs:
        vi = (n - 1) * (q / 100.0)
        if vi >= n - 1:
            # NumPy reads the last value as both neighbours at index -1
            i = j = -1
        else:
            i = math.floor(vi)
            j = i + 1
        t = vi - i
        a, b = ordered.item(i), ordered.item(j)
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return tuple(out)


def latency_percentiles(
    delays: Sequence[float],
    qs: Sequence[float] = TAIL_QUANTILES,
) -> Tuple[float, ...]:
    """Percentiles of a completion-delay stream, aligned with ``qs``.

    The tail-latency summary of the event simulator and the fleet
    aggregation layer (p50/p95/p99 by default), equal to
    ``np.percentile`` bit for bit (:func:`sorted_percentiles`).  An
    empty stream yields zeros, matching the simulator's empty-trace
    report convention.
    """
    qs = tuple(float(q) for q in qs)
    if not qs:
        raise ValueError("need at least one quantile")
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantiles must be in [0, 100], got {q}")
    ordered = np.sort(np.asarray(delays, dtype=float), axis=None)
    if ordered.size == 0:
        return tuple(0.0 for _ in qs)
    # sorted, a stream is finite iff its ends are (NaN sorts last)
    if not (math.isfinite(ordered.item(0)) and math.isfinite(ordered.item(-1))):
        bad = int(np.count_nonzero(~np.isfinite(ordered)))
        raise ValueError(
            f"latency stream contains {bad} non-finite value(s); "
            "percentiles over NaN/inf would silently poison the tail summary"
        )
    return sorted_percentiles(ordered, qs)
