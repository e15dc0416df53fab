"""Trace builder: an inter-arrival distribution realized over a window
as a continuous-time :class:`~repro.workload.trace.Trace` for the
event-driven simulator."""

from __future__ import annotations

from typing import List

import numpy as np

from ..checks import check_positive
from .arrivals import InterArrival
from .trace import Trace


def renewal_trace(
    dist: InterArrival,
    duration: float,
    rng: np.random.Generator,
    max_requests: int = 10_000_000,
) -> Trace:
    """Generate a renewal-process trace of the given duration.

    Draws inter-arrival gaps in batches of 1,024 until the window is
    covered; each batch's arrival times are one sequential ``cumsum``
    from the running time (the same additions, in the same order, as a
    per-gap loop).  ``max_requests`` guards against runaway generation
    from very high rates or degenerate distributions.
    """
    check_positive("duration", duration)
    parts: List[np.ndarray] = []
    n, t = 0, 0.0
    while t < duration and n < max_requests:
        times = np.cumsum(np.concatenate(([t], dist.sample(rng, 1024))))[1:]
        keep = min(int(np.searchsorted(times, duration, side="left")),
                   max_requests - n)
        parts.append(times[:keep])
        n += keep
        if keep < times.size:  # the window or the cap ends in this batch
            break
        t = float(times[-1])
    return Trace(np.concatenate(parts) if parts else [], duration=duration)
