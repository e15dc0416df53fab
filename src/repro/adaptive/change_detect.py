"""Parameter-change detection — the paper's "mode-switch controller".

A model-based adaptive DPM re-optimizes only when it believes the
workload parameters changed; the component that decides this is what the
paper calls the mode-switch controller and describes as "fairly time
consuming".  :class:`BernoulliCUSUM` is the standard sequential detector
over the per-slot arrival indicator stream: a two-sided CUSUM of the
deviation from the currently assumed rate, with ``update(x) -> bool``
(True = alarm) and ``reset`` to re-arm around a new rate.
"""

from __future__ import annotations

from typing import Optional


class BernoulliCUSUM:
    """Two-sided CUSUM detector for a Bernoulli stream.

    Monitors ``g+ = max(0, g+ + (x - p0 - drift))`` and the symmetric
    ``g-``; alarms when either exceeds ``threshold``.  ``drift`` sets the
    smallest shift treated as a real change (in probability units);
    ``threshold`` trades detection delay against false alarms.
    """

    def __init__(
        self,
        target_rate: float,
        drift: float = 0.05,
        threshold: float = 20.0,
    ) -> None:
        if not 0.0 <= target_rate <= 1.0:
            raise ValueError(f"target_rate must be in [0, 1], got {target_rate}")
        if drift < 0:
            raise ValueError(f"drift must be >= 0, got {drift}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self._p0 = float(target_rate)
        self._drift = float(drift)
        self._threshold = float(threshold)
        self._g_pos = 0.0
        self._g_neg = 0.0

    @property
    def target_rate(self) -> float:
        """The rate currently assumed to be in force."""
        return self._p0

    def update(self, arrived: bool) -> bool:
        """Feed one observation; True means "parameter change detected"."""
        x = float(bool(arrived))
        self._g_pos = max(0.0, self._g_pos + (x - self._p0 - self._drift))
        self._g_neg = max(0.0, self._g_neg + (self._p0 - x - self._drift))
        return self._g_pos > self._threshold or self._g_neg > self._threshold

    def reset(self, target_rate: Optional[float] = None) -> None:
        """Re-arm, optionally around a new assumed rate."""
        if target_rate is not None:
            if not 0.0 <= target_rate <= 1.0:
                raise ValueError("target_rate must be in [0, 1]")
            self._p0 = float(target_rate)
        self._g_pos = 0.0
        self._g_neg = 0.0
