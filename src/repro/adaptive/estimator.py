"""Workload parameter estimation — the component Q-DPM deletes.

A model-based DPM controller must estimate the workload parameters before
it can optimize a policy.  For the slotted environment the unknown is the
per-slot Bernoulli arrival probability, and
:class:`SlidingWindowEstimator` is the standard causal choice: the MLE
over the last ``window`` slots (unbiased, lag ~ window/2 after a switch).

The paper's complaint: "the parameter estimation also consumes a lot of
time to maintain a reasonable accuracy".  The CLAIM-EFF bench counts this
cost; the Fig. 2 harness exposes the estimation *lag*.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


class SlidingWindowEstimator:
    """MLE of a Bernoulli rate over a fixed-length sliding window."""

    def __init__(self, window: int = 2000, prior_rate: float = 0.5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 <= prior_rate <= 1.0:
            raise ValueError(f"prior_rate must be in [0, 1], got {prior_rate}")
        self._window = int(window)
        self._prior = float(prior_rate)
        self._buffer: Deque[int] = deque(maxlen=self._window)
        self._sum = 0

    @property
    def window(self) -> int:
        """Window length in slots."""
        return self._window

    @property
    def n_samples(self) -> int:
        """Number of observations currently in the window."""
        return len(self._buffer)

    def update(self, arrived: bool) -> None:
        """Feed one slot's arrival indicator."""
        x = int(bool(arrived))
        if len(self._buffer) == self._window:
            self._sum -= self._buffer[0]
        self._buffer.append(x)
        self._sum += x

    def estimate(self) -> float:
        """Current rate estimate (prior until the window has samples)."""
        if not self._buffer:
            return self._prior
        return self._sum / len(self._buffer)

    def reset(self, prior_rate: Optional[float] = None) -> None:
        """Drop the window (e.g. after a detected regime change)."""
        if prior_rate is not None:
            if not 0.0 <= prior_rate <= 1.0:
                raise ValueError("prior_rate must be in [0, 1]")
            self._prior = float(prior_rate)
        self._buffer.clear()
        self._sum = 0
