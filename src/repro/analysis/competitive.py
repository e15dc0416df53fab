"""Competitive analysis of online shutdown policies.

The theory backdrop of every timeout policy: for a two-state device the
idle-period problem is the ski-rental problem, a deterministic timeout
equal to the break-even time is 2-competitive against the offline oracle,
and no deterministic online policy beats 2.  This module computes, per
idle period and per trace, the exact energy an idle policy and the
oracle spend, and from them the empirical competitive ratio — used by
tests to certify the implementations and by the EXT-POLICY context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..device import PowerStateMachine


@dataclass(frozen=True)
class CompetitiveReport:
    """Energy accounting of a policy against the oracle on one trace."""

    policy_energy: float       #: idle-period energy of the online policy
    oracle_energy: float       #: idle-period energy of the oracle
    ratio: float               #: policy / oracle (>= 1)
    worst_period_ratio: float  #: max per-period ratio
    n_periods: int


def idle_period_energy_timeout(
    device: PowerStateMachine,
    idle_length: float,
    timeout: float,
    rest_state: Optional[str] = None,
) -> float:
    """Exact energy of a timeout policy over one idle period.

    Waits ``timeout`` seconds in the home state, then
    moves to ``rest_state`` (default: deepest) for the remainder; charges
    the round-trip transition energy if the shutdown happened.  Matches
    the break-even accounting of
    :meth:`~repro.device.PowerStateMachine.idle_energy`.
    """
    if idle_length < 0:
        raise ValueError("idle_length must be >= 0")
    if timeout < 0:
        raise ValueError("timeout must be >= 0")
    home = device.initial_state
    rest = rest_state if rest_state is not None else device.deepest_state()
    p_home = device.state(home).power
    if idle_length <= timeout:
        return p_home * idle_length
    rt_energy, rt_latency = device.round_trip(home, rest)
    resident = max(0.0, idle_length - timeout - rt_latency)
    return p_home * timeout + rt_energy + device.state(rest).power * resident


def idle_period_energy_oracle(
    device: PowerStateMachine,
    idle_length: float,
    rest_state: Optional[str] = None,
) -> float:
    """Oracle energy: min(stay home, shut down immediately)."""
    stay = idle_period_energy_timeout(device, idle_length, timeout=np.inf)
    sleep = idle_period_energy_timeout(
        device, idle_length, timeout=0.0, rest_state=rest_state,
    )
    return min(stay, sleep)


def energy_break_even(
    device: PowerStateMachine,
    rest_state: Optional[str] = None,
    home_state: Optional[str] = None,
) -> float:
    """The *unclamped* energy break-even time — the 2-competitive timeout.

    Solves ``P_home * T = E_rt + P_rest * (T - L_rt)`` without the
    round-trip-latency clamp that
    :meth:`~repro.device.PowerStateMachine.break_even_time` applies.  The
    clamp answers "when is a shutdown profitable at all"; competitiveness
    needs the pure energy-indifference point, because a timeout equal to
    the *clamped* value can be 3-competitive or worse on devices whose
    round-trip latency exceeds the energy break-even.
    """
    home = home_state if home_state is not None else device.initial_state
    rest = rest_state if rest_state is not None else device.deepest_state()
    p_home = device.state(home).power
    p_rest = device.state(rest).power
    if p_rest >= p_home:
        raise ValueError(f"{rest!r} does not save power over {home!r}")
    rt_energy, rt_latency = device.round_trip(home, rest)
    return (rt_energy - p_rest * rt_latency) / (p_home - p_rest)


def competitive_report(
    device: PowerStateMachine,
    idle_lengths: np.ndarray,
    timeout: Optional[float] = None,
    rest_state: Optional[str] = None,
) -> CompetitiveReport:
    """Empirical competitive ratio of a timeout policy on idle periods.

    ``timeout=None`` uses the :func:`energy_break_even` timeout (the
    2-competitive choice).  Periods of zero oracle energy (zero length)
    are skipped in the worst-period statistic.
    """
    idle_lengths = np.asarray(idle_lengths, dtype=float)
    if idle_lengths.size == 0:
        raise ValueError("need at least one idle period")
    if np.any(idle_lengths < 0):
        raise ValueError("idle lengths must be >= 0")
    rest = rest_state if rest_state is not None else device.deepest_state()
    if timeout is None:
        timeout = energy_break_even(device, rest)

    policy_total = 0.0
    oracle_total = 0.0
    worst = 1.0
    for length in idle_lengths:
        p = idle_period_energy_timeout(device, float(length), timeout, rest)
        o = idle_period_energy_oracle(device, float(length), rest)
        policy_total += p
        oracle_total += o
        if o > 1e-12:
            worst = max(worst, p / o)
    ratio = policy_total / oracle_total if oracle_total > 0 else 1.0
    return CompetitiveReport(
        policy_energy=policy_total,
        oracle_energy=oracle_total,
        ratio=ratio,
        worst_period_ratio=worst,
        n_periods=int(idle_lengths.size),
    )


def deterministic_lower_bound_ratio() -> float:
    """The classic lower bound: no deterministic online shutdown policy is
    better than 2-competitive (ski rental)."""
    return 2.0
