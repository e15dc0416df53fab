"""Time-varying arrival-rate schedules.

The paper's central argument is about *nonstationary* input: "temporarily
stationary synthetic input" whose parameters switch at marked points
(Fig. 2), plus the claim that Q-DPM tolerates "small scale variations".
Both experiment families need an explicit model of how the arrival
probability evolves over (slotted) time.  A :class:`RateSchedule` maps a
slot index to the Bernoulli arrival probability used in that slot; the
slotted environment samples from it, the exact MDP builder freezes it at
a point, and Fig. 2 reads its switch points for the vertical markers.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

import numpy as np

from ..checks import check_nonnegative


def _check_prob(p: float, what: str = "rate") -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} must be a probability in [0, 1], got {p}")
    return float(p)


class RateSchedule(ABC):
    """Per-slot Bernoulli arrival probability as a function of slot index."""

    @abstractmethod
    def rate_at(self, slot: int) -> float:
        """Arrival probability used in slot ``slot`` (0-based)."""

    def switch_points(self, horizon: int) -> List[int]:
        """Slot indices (within ``[0, horizon)``) where the regime changes.

        Only piecewise-constant schedules have true switch points; smooth
        schedules return an empty list.
        """
        return []

    def max_rate(self, horizon: int) -> float:
        """Upper bound on the rate over the horizon (for sizing queues)."""
        return max(self.rate_at(s) for s in range(0, horizon, max(1, horizon // 1000)))

    def mean_rate(self, horizon: int) -> float:
        """Average rate over the horizon (coarse 1000-point sample)."""
        step = max(1, horizon // 1000)
        pts = range(0, horizon, step)
        return float(np.mean([self.rate_at(s) for s in pts]))


class ConstantRate(RateSchedule):
    """Stationary input: the Fig. 1 setting."""

    def __init__(self, rate: float) -> None:
        self._rate = _check_prob(rate)

    @property
    def rate(self) -> float:
        """The constant arrival probability."""
        return self._rate

    def rate_at(self, slot: int) -> float:
        return self._rate

    def max_rate(self, horizon: int) -> float:
        return self._rate

    def mean_rate(self, horizon: int) -> float:
        return self._rate

    def __repr__(self) -> str:
        return f"ConstantRate({self._rate})"


class PiecewiseConstantRate(RateSchedule):
    """Temporarily stationary input with abrupt switches: the Fig. 2 setting.

    Parameters
    ----------
    segments:
        Sequence of ``(duration_slots, rate)`` pairs.  After the last
        segment the schedule holds the final rate forever (so horizons a
        bit longer than the sum of durations are safe).
    """

    def __init__(self, segments: Sequence[Tuple[int, float]]) -> None:
        if not segments:
            raise ValueError("need at least one segment")
        self._segments: List[Tuple[int, float]] = []
        for duration, rate in segments:
            if duration <= 0:
                raise ValueError(f"segment duration must be > 0, got {duration}")
            self._segments.append((int(duration), _check_prob(rate)))
        # cumulative segment end slots
        ends = np.cumsum([d for d, _ in self._segments])
        self._ends: List[int] = [int(e) for e in ends]

    @property
    def segments(self) -> List[Tuple[int, float]]:
        """Copy of the ``(duration, rate)`` list."""
        return list(self._segments)

    @property
    def total_slots(self) -> int:
        """Sum of all segment durations."""
        return self._ends[-1]

    def segment_index_at(self, slot: int) -> int:
        """Index of the segment active in ``slot`` (last one if beyond end)."""
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        for i, end in enumerate(self._ends):
            if slot < end:
                return i
        return len(self._segments) - 1

    def rate_at(self, slot: int) -> float:
        return self._segments[self.segment_index_at(slot)][1]

    def switch_points(self, horizon: int) -> List[int]:
        return [e for e in self._ends[:-1] if e < horizon]

    def max_rate(self, horizon: int) -> float:
        return max(rate for _, rate in self._segments)

    def mean_rate(self, horizon: int) -> float:
        total = 0.0
        covered = 0
        for (duration, rate), end in zip(self._segments, self._ends):
            take = min(duration, max(0, horizon - covered))
            total += take * rate
            covered += take
        if covered < horizon:  # final rate holds
            total += (horizon - covered) * self._segments[-1][1]
        return total / horizon if horizon > 0 else self._segments[0][1]

    def __repr__(self) -> str:
        return f"PiecewiseConstantRate({self._segments})"


class SinusoidalRate(RateSchedule):
    """Smooth periodic drift: the "small scale variations" setting.

    ``rate(t) = base + amplitude * sin(2 pi t / period)``, clipped to
    [0, 1].  Models diurnal-style slow modulation.
    """

    def __init__(self, base: float, amplitude: float, period: int) -> None:
        self._base = _check_prob(base, "base")
        self._amplitude = check_nonnegative("amplitude", amplitude)
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self._period = int(period)

    def rate_at(self, slot: int) -> float:
        raw = self._base + self._amplitude * math.sin(
            2.0 * math.pi * slot / self._period
        )
        return min(1.0, max(0.0, raw))

    def max_rate(self, horizon: int) -> float:
        return min(1.0, self._base + self._amplitude)

    def __repr__(self) -> str:
        return (
            f"SinusoidalRate(base={self._base}, amplitude={self._amplitude}, "
            f"period={self._period})"
        )
