"""Argument checks shared by every layer that takes counts, demands or
rates.

One rule per kind of setting, so the simulator, the sweep runners, the
executor, the dispatcher and the workload builders accept and refuse
exactly the same values.
"""

from __future__ import annotations

import math
from typing import Any


def check_count(name: str, value: Any, minimum: int = 1) -> int:
    """``value`` as an ``int``, or ``ValueError`` unless it is a whole
    number >= ``minimum``.

    A fractional count is refused, never truncated: a truncated fleet
    size or chunk width runs a different configuration than the one
    asked for, and a fractional cap compared with ``==`` / ``>=``
    silently never binds.
    """
    try:
        ok = float(value).is_integer() and value >= minimum
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def check_positive(name: str, value: Any) -> float:
    """``value`` as a ``float``, or ``ValueError`` unless it is finite
    and > 0 (NaN fails both comparisons).

    The one rule for every time span and every rate or scale the
    program takes: a service demand, a trace window, a fault horizon,
    an inter-arrival distribution's parameters.  A NaN window would
    realize an empty trace of NaN duration, an infinite fault horizon
    would never finish drawing, and a NaN arrival rate samples NaN gaps.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return float(value)


def check_nonnegative(name: str, value: Any) -> float:
    """``value`` as a ``float``, or ``ValueError`` unless it is finite
    and >= 0 (NaN fails both comparisons).

    The rule for every setting that may be zero: a reward weight, a
    rate amplitude, a token refill rate.  A NaN reward weight would turn
    every reward into NaN.
    """
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


#: bound on the magnitude of a Q-table's initial value
INITIAL_Q_LIMIT = 1e291


def check_initial_q(value: Any) -> float:
    """``value`` as a ``float``, or ``ValueError`` unless
    ``|value| < 1e291`` (NaN and infinities fail).

    The batched Q-DPM pads its candidate rows with -inf and lets an
    exploring slot take every value within ``finfo.max`` of the row
    max.  That threshold stays finite, so the padding is never a
    candidate, only while the max is above about -1e292; Q values stay
    between the initial value and the discounted reward scale, so this
    bound keeps them there.  Both engines take the same rule.
    """
    if not abs(value) < INITIAL_Q_LIMIT:
        raise ValueError(
            f"initial_q must be finite with |initial_q| < {INITIAL_Q_LIMIT:g}, "
            f"got {value}"
        )
    return float(value)
