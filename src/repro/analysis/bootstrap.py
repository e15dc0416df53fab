"""Bootstrap confidence intervals for experiment summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .metrics import sorted_percentiles


@dataclass(frozen=True)
class CI:
    """A point estimate with a two-sided confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:
        return f"{self.estimate:.4g} [{self.low:.4g}, {self.high:.4g}]"

    @property
    def half_width(self) -> float:
        """Half the CI width (symmetric summaries in tables)."""
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def bootstrap_ci(
    samples: np.ndarray,
    statistic: Callable[..., Any] = np.mean,
    n_resamples: int = 2000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> CI:
    """Percentile-bootstrap CI of a statistic.

    All resamples are drawn as one ``(n_resamples, n)`` index matrix and
    reduced in one call, so ``statistic`` must accept an ``axis``
    keyword, as ``np.mean`` and ``np.median`` do: ``statistic(samples)``
    is the point estimate and ``statistic(resamples, axis=1)`` the
    per-resample values.

    Raises
    ------
    ValueError
        On empty input or a confidence outside (0, 1).
    TypeError
        When ``statistic`` does not accept ``axis`` (and n > 1).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    point = float(statistic(samples))
    if samples.size == 1:
        return CI(point, point, point, confidence)
    idx = rng.integers(0, samples.size, size=(n_resamples, samples.size))
    stats = statistic(samples[idx], axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = sorted_percentiles(
        np.sort(np.asarray(stats, dtype=float), axis=None),
        (100 * alpha, 100 * (1 - alpha)),
    )
    return CI(point, low, high, confidence)
