"""High-level trace builders.

Bridges the distribution / schedule primitives to the two consumers:

- :func:`renewal_trace`, :func:`piecewise_renewal_trace` produce
  continuous-time :class:`~repro.workload.trace.Trace` objects for the
  event-driven simulator.
- :func:`bernoulli_arrivals` realizes a slot-indexed 0/1 arrival sequence
  from a :class:`~repro.workload.nonstationary.RateSchedule` for the
  slotted DTMDP environment (what Fig. 1 / Fig. 2 use).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .arrivals import InterArrival
from .nonstationary import RateSchedule
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
    if duration <= 0:
        raise ValueError("duration must be > 0")
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


def piecewise_renewal_trace(
    segments: Sequence[Tuple[InterArrival, float]],
    rng: np.random.Generator,
) -> Tuple[Trace, List[float]]:
    """Concatenate renewal segments — a continuous-time Fig. 2-style input.

    Parameters
    ----------
    segments:
        Sequence of ``(distribution, duration)`` pairs.

    Returns
    -------
    (trace, switch_times):
        The combined trace and the absolute switch instants between
        segments (for plot markers).
    """
    if not segments:
        raise ValueError("need at least one segment")
    trace: Optional[Trace] = None
    switch_times: List[float] = []
    elapsed = 0.0
    for dist, duration in segments:
        seg = renewal_trace(dist, duration, rng)
        trace = seg if trace is None else trace.concat(seg)
        elapsed += duration
        switch_times.append(elapsed)
    return trace, switch_times[:-1]


def bernoulli_arrivals(
    schedule: RateSchedule,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Realize slot arrivals: 1 with probability ``schedule.rate_at(slot)``.

    Vectorized over constant stretches where possible; exact semantics are
    per-slot independent Bernoulli draws.
    """
    if n_slots < 0:
        raise ValueError("n_slots must be >= 0")
    probs = np.fromiter(
        (schedule.rate_at(s) for s in range(n_slots)), dtype=float, count=n_slots
    )
    return (rng.random(n_slots) < probs).astype(np.int8)


def trace_from_slots(arrivals: np.ndarray, slot_length: float) -> Trace:
    """Convert a slot arrival sequence into a continuous-time trace.

    Each arriving request is stamped at the *start* of its slot.  Useful
    for feeding slotted workloads to the event-driven simulator.
    """
    if slot_length <= 0:
        raise ValueError("slot_length must be > 0")
    arrivals = np.asarray(arrivals)
    slots = np.nonzero(arrivals)[0]
    times = slots * slot_length
    return Trace(times, duration=len(arrivals) * slot_length)
