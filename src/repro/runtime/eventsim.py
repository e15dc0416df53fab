"""Vectorized busy-period kernel for the event-driven DPM simulator.

:class:`~repro.sim.DPMSimulator` pays one Python interpreter round-trip
per event per trace.  For the *stateless* decision family — policies
whose :meth:`~repro.sim.policy_api.EventPolicy.on_idle` is a pure
function of the :class:`~repro.sim.policy_api.IdleContext` (the timeout
family, greedy, always-on, multilevel, and the oracle) — the whole run
collapses into NumPy array ops, because the FIFO single-server,
wake-on-arrival semantics decompose a trace into busy periods and
independent idle gaps:

1.  **Busy periods** obey the Lindley recursion
    ``completion[i] = max(completion[i-1], arrival[i] + wake[i]) + demand[i]``,
    which vectorizes as a prefix max over ``arrival + wake - cum_demand``.
2.  **Idle gaps** open where an arrival strictly exceeds the previous
    completion; each gap's shutdown decision, transition energies,
    residencies, and wake-up delay are pure per-gap functions that
    evaluate over all gaps at once via
    :meth:`~repro.sim.policy_api.EventPolicy.decide_batch`.
3.  Wake-up delays feed back into busy-period boundaries, so the kernel
    iterates 1+2 to a fixpoint.  Each pass makes at least one further
    prefix of completions exact (the first gap's start never moves, so
    induction walks forward), giving convergence in at most ``n + 1``
    passes.  Wake delays can cascade: on the ``fleet`` benchmark grid
    (1 request/s split over 2 or 8 disks, 1,200 s traces) a device's
    trace run alone needs a median of 3 passes, but under greedy sleep
    its 90th percentile is 18 and its maximum 34, and a batch runs as
    many passes as its slowest trace.

:func:`run_gap_batched` runs this over all gaps of R traces at once:
the traces lie end to end in flat arrays, the prefix max resets at each
trace boundary, and each pass asks the policy once for every trace's
gaps, laid out trace by trace (each trace's trailing gap last).  A
converged trace is a fixed point, so passes that other traces still
need leave it unchanged, and each report is bit-identical to the trace
run alone; :func:`run_vectorized` is the R = 1 call.  Equivalence with
the scalar event loop is pinned field-for-field on the
:class:`~repro.sim.SimReport` (tests/test_runtime_eventsim.py), including
the loop's tie-breaking (arrivals pre-empt same-time timeouts), the
"timeout events at or beyond the observation window are dropped" rule,
zero-latency transition lumps, and zero-span residency keys.

Stateful policies cannot use the all-gaps kernel — each gap's decision
depends on the realized idle history — but sweep cells always run R
seeded *replications* of the same (device, policy) pair, and the
replication axis is embarrassingly parallel.  :func:`run_step_batched`
therefore batches *across replications*: R traces are padded into
``(R, n)`` arrays, every replica advances one idle gap per lock-step
round, and per-replica policy state lives in dense arrays via the
:meth:`~repro.sim.policy_api.EventPolicy.decide_step_batch` /
``end_step_batch`` hooks.  Completions still resolve with busy-period
array ops: the zero-wake (pure) busy-period structure is precomputed
once, each realized busy period is the pure one shifted by the opener's
wake delay (``completion = max(pure, shift + cum_demand)``), and a gap
swallowed by a wake delay merges its pure period into the running one.

Both batched engines share one shutdown-target table per call, one
decision check, one shutdown rule and one gap fold that turns the
realized gaps, laid out run by run, into reports.

:func:`simulate_traces_batch` picks the engine by
:func:`policy_batch_mode`; other policies and exotic decision targets
fall back per trace to :func:`simulate_trace`, the kernel or else the
scalar :class:`~repro.sim.DPMSimulator`.  Every engine parks the idle
device in :func:`~repro.sim.simulator.default_wait_state`: home, or a
state with a free, instant round trip from home, so the park folds into
plain residency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..checks import check_positive
from ..device import PowerStateMachine
from ..sim.policy_api import (
    BatchIdleContext,
    BatchIdleDecision,
    EventPolicy,
    StepBatchContext,
)
from ..sim.simulator import DPMSimulator, default_wait_state, resolve_demands
from ..sim.stats import SimReport, compile_report
from ..workload.trace import Trace
from .telemetry import TELEMETRY


@dataclass(frozen=True)
class _TargetCosts:
    """Transition/residency constants of one shutdown target state."""

    name: str
    power: float
    down_latency: float
    down_energy: float
    down_mean_power: float
    up_latency: float
    up_energy: float
    up_mean_power: float
    break_even: float


def _target_costs(
    device: PowerStateMachine, home: str, wait: str, idx: int
) -> Optional[_TargetCosts]:
    """Constants for shutdown target ``state_names[idx]`` (a valid
    index), or None if the target is outside the shapes the kernel
    models (missing edges, or a degenerate home/wait target)."""
    name = device.state_names[idx]
    if name == home or name == wait:
        return None
    if not (device.can_transition(wait, name) and device.can_transition(name, home)):
        return None
    down = device.transition(wait, name)
    up = device.transition(name, home)
    try:
        break_even = device.break_even_time(name, home)
    except (ValueError, KeyError):
        break_even = 0.0
    return _TargetCosts(
        name=name,
        power=device.state(name).power,
        down_latency=down.latency,
        down_energy=down.energy,
        down_mean_power=down.mean_power,
        up_latency=up.latency,
        up_energy=up.energy,
        up_mean_power=up.mean_power,
        break_even=break_even,
    )


class _TargetTable(NamedTuple):
    """Every state's shutdown-target constants, built once per engine
    call: one row per state plus a trailing zero row that every negative
    ("stay") target index reads."""

    costs: List[Optional[_TargetCosts]]
    usable: np.ndarray
    down: np.ndarray
    up: np.ndarray
    break_even: np.ndarray


def _target_table(device: PowerStateMachine, home: str, wait: str) -> _TargetTable:
    costs = [_target_costs(device, home, wait, i)
             for i in range(len(device.state_names))]
    return _TargetTable(
        costs=costs,
        usable=np.array([tc is not None for tc in costs] + [True]),
        down=np.array([tc.down_latency if tc else 0.0 for tc in costs] + [0.0]),
        up=np.array([tc.up_latency if tc else 0.0 for tc in costs] + [0.0]),
        break_even=np.array([tc.break_even if tc else 0.0 for tc in costs] + [0.0]),
    )


def _check_decision(
    decision: Optional[BatchIdleDecision],
    n: int,
    usable: np.ndarray,
    active: Optional[np.ndarray] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A policy's decisions for ``n`` gaps as (timeouts, target_idx),
    or None when they fall outside the shapes the engines model: no
    decision, arrays not of length ``n``, a negative timeout, or a
    target past the last state or without usable constants.

    Rows outside ``active`` read as "stay".  Every "stay" (negative)
    target comes back as -1, the target table's zero row.
    """
    if decision is None:
        return None
    timeouts = np.asarray(decision.timeouts, dtype=float)
    target_idx = np.asarray(decision.target_idx, dtype=np.int64)
    if timeouts.shape != (n,) or target_idx.shape != (n,):
        return None
    if active is not None:
        timeouts = np.where(active, timeouts, 0.0)
        target_idx = np.where(active, target_idx, -1)
    if (timeouts < 0).any():
        return None
    target_idx = np.maximum(target_idx, -1)
    if target_idx.max() >= usable.size - 1 or not usable[target_idx].all():
        return None
    return timeouts, target_idx


def _shutdown_rule(
    starts: np.ndarray,
    ends: np.ndarray,
    timeouts: np.ndarray,
    target_idx: np.ndarray,
) -> np.ndarray:
    """Which gaps shut down, matching the event loop's tie-breaking.

    A zero timeout executes inline at idle start (no horizon check); a
    positive timeout is a TIMEOUT event that fires only strictly before
    the gap's rule end: the gap-ending arrival (arrivals pre-empt
    same-time timeouts) or, for the trailing gap, the observation
    window's end.
    """
    return (target_idx >= 0) & (
        (timeouts == 0.0)
        | (np.isfinite(timeouts) & (starts + timeouts < ends))
    )


def _fold_runs(
    device: PowerStateMachine,
    home: str,
    wait: str,
    table: _TargetTable,
    n_arr: np.ndarray,
    demands: np.ndarray,
    latencies: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    timeouts: np.ndarray,
    target_idx: np.ndarray,
    gap_bounds: np.ndarray,
    keep_latencies: bool,
) -> List[SimReport]:
    """Every run's report from its realized gaps; both engines end here.

    Run r owns ``n_arr[r]`` consecutive requests (``demands``,
    ``latencies``) and the gaps from ``gap_bounds[r]`` on, its trailing
    gap last.  A gap is its start, its rule end (the arrival that ends
    it; the observation window for the trailing gap) and the policy's
    decision for it.  Elementwise work runs on the flat arrays and sums
    per run slice, and targets fold in index order, so each report is
    bit-identical to its run alone.  Residency keys mirror the scalar
    meter exactly, including the zero-span entries its set_condition
    sequence creates.
    """
    shutdown = _shutdown_rule(starts, ends, timeouts, target_idx)
    shutdown_times = starts + timeouts
    down_lat = table.down[target_idx]
    down_done = shutdown_times + down_lat
    trail_gap = gap_bounds[1:] - 1
    mid = np.ones(starts.size, dtype=bool)
    mid[trail_gap] = False
    durations = ends[trail_gap]
    final_shutdown = shutdown[trail_gap]
    final_target = np.where(final_shutdown, target_idx[trail_gap], -1).tolist()
    # the window, stretched by a final service completion past it and by
    # a trailing down transition in flight
    end_times = np.where(n_arr > 0, np.maximum(durations, starts[trail_gap]),
                         durations)
    stretch = final_shutdown & (down_lat[trail_gap] > 0)
    end_times = np.where(stretch, np.maximum(end_times, down_done[trail_gap]),
                         end_times)
    phase_ends = ends.copy()
    phase_ends[trail_gap] = end_times
    idle_lengths = phase_ends - starts
    wait_spans = np.where(shutdown, shutdown_times, phase_ends) - starts
    break_even = table.break_even[target_idx]
    wrong = shutdown & mid & (ends - shutdown_times < break_even)
    with np.errstate(invalid="ignore"):
        target_spans = np.where(shutdown & mid,
                                np.maximum(0.0, ends - down_done), 0.0)
    target_spans[trail_gap] = np.where(
        final_shutdown, end_times - down_done[trail_gap], 0.0)

    n_shutdowns = np.add.reduceat(shutdown, gap_bounds[:-1], dtype=np.int64)
    n_wrong = np.add.reduceat(wrong, gap_bounds[:-1], dtype=np.int64)
    # per target some run shut down to, in index order: the shutdown
    # spans compacted, and each run's offsets into them
    by_target = []
    for idx in np.unique(target_idx[shutdown]).tolist():
        sel = shutdown & (target_idx == idx)
        cum = np.concatenate(([0], np.cumsum(sel)))[gap_bounds].tolist()
        by_target.append((table.costs[idx], idx, target_spans[sel], cum))

    home_power = device.state(home).power
    wait_power = device.state(wait).power
    req_bounds = np.concatenate(([0], np.cumsum(n_arr))).tolist()
    bounds = gap_bounds.tolist()
    reports: List[SimReport] = []
    for r in range(n_arr.size):
        s, e = req_bounds[r], req_bounds[r + 1]
        g0, g1 = bounds[r], bounds[r + 1]
        busy_time = float(demands[s:e].sum())
        wait_total = float(wait_spans[g0:g1].sum())
        residency: Dict[str, float] = {home: busy_time}
        if wait != home:
            residency[wait] = wait_total
        else:
            residency[home] += wait_total
        total_energy = home_power * busy_time + wait_power * wait_total
        for tc, idx, spans, cum in by_target:
            n_down = cum[r + 1] - cum[r]
            if not n_down:
                continue
            n_up = n_down - (1 if idx == final_target[r] else 0)
            span = float(spans[cum[r]:cum[r + 1]].sum())
            residency[tc.name] = span
            total_energy += tc.power * span
            if tc.down_latency > 0:
                residency[f"{wait}->{tc.name}"] = n_down * tc.down_latency
                total_energy += tc.down_mean_power * tc.down_latency * n_down
            else:
                total_energy += tc.down_energy * n_down
            if n_up:
                if tc.up_latency > 0:
                    residency[f"{tc.name}->{home}"] = n_up * tc.up_latency
                    total_energy += tc.up_mean_power * tc.up_latency * n_up
                else:
                    total_energy += tc.up_energy * n_up
        reports.append(compile_report(
            home_power=home_power,
            end_time=float(end_times[r]),
            total_energy=total_energy,
            latencies=latencies[s:e],
            idle_lengths=idle_lengths[g0:g1],
            n_shutdowns=int(n_shutdowns[r]),
            n_wrong_shutdowns=int(n_wrong[r]),
            state_residency=residency,
            keep_latencies=keep_latencies,
        ))
    return reports


def run_gap_batched(
    device: PowerStateMachine,
    policy: EventPolicy,
    traces: Sequence[Trace],
    service_time: float = 0.5,
    oracle: bool = False,
    keep_latencies: bool = True,
) -> Optional[List[SimReport]]:
    """The busy-period kernel over all gaps of R traces: one report per
    trace, or None when the run does not qualify.

    Mirrors :class:`~repro.sim.DPMSimulator`'s ``service_time``
    validation; a None return means the caller should use the scalar
    loop, which either simulates the run or raises the error the
    configuration deserves.

    A trace of n requests owns n + 1 consecutive *slots* of the flat
    arrays: one per request (the gap it ends, if one opens), then its
    trailing gap.  Scans and sums run per trace slice, so each report
    is bit-identical to the trace run alone.
    """
    check_positive("service_time", service_time)
    home = device.initial_state
    wait = default_wait_state(device)
    traces = list(traces)
    if not traces:
        return []

    n_arr = np.array([len(t) for t in traces], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(n_arr)))  # request offsets
    n = int(bounds[-1])
    arrivals = np.concatenate([t.arrival_times for t in traces])
    demands = np.concatenate([resolve_demands(t, service_time) for t in traces])
    durations = np.array([float(t.duration) for t in traces])
    req_spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    # pass-invariant demand prefix sums, one sequential cumsum per trace
    total_demand = np.empty(n)
    for s, e in req_spans:
        np.cumsum(demands[s:e], out=total_demand[s:e])
    demand_before = total_demand - demands

    # slot layout: request j of trace r sits at slot bounds[r] + r + j
    first_slot = bounds[:-1] + np.arange(len(traces))
    is_trail_slot = np.insert(np.zeros(n, dtype=bool), bounds[1:], True)
    after_req = ~np.roll(is_trail_slot, 1)  # a trace's first slot follows none
    # begin_idle(0.0) always opens the first gap; the trailing gap always
    # opens after the last completion
    forced = is_trail_slot | ~after_req
    # a gap ends at its arrival; a shutdown rule's horizon for the
    # trailing gap is the observation window
    slot_end = np.insert(arrivals, bounds[1:], durations)
    slot_start = np.zeros(slot_end.size)  # previous completion (0.0 first)

    policy.reset()
    table = _target_table(device, home, wait)

    # ---- fixpoint over wake-up delays --------------------------------- #
    wake = np.zeros(n)
    completions = np.empty(n)
    for _ in range(n + 2):
        np.add(arrivals, wake, out=completions)
        completions -= demand_before
        for s, e in req_spans:  # the Lindley max-scan resets per trace
            np.maximum.accumulate(completions[s:e], out=completions[s:e])
        completions += total_demand
        slot_start[after_req] = completions
        gap_slot = np.flatnonzero(forced | (slot_end > slot_start))
        starts = slot_start[gap_slot]
        ends = slot_end[gap_slot]
        mid = ~is_trail_slot[gap_slot]
        decision = policy.decide_batch(
            BatchIdleContext(
                gap_starts=starts,
                next_arrivals=np.where(mid & oracle, ends, np.nan),
                device=device,
                wait_state=wait,
            )
        )
        checked = _check_decision(decision, starts.size, table.usable)
        if checked is None:
            return None
        timeouts, target_idx = checked
        shutdown = _shutdown_rule(starts, ends, timeouts, target_idx)
        up_lat = table.up[target_idx]
        down_done = starts + timeouts + table.down[target_idx]

        # a mid-trace gap's opener starts service only after the device
        # finishes any in-flight down transition and wakes
        with np.errstate(invalid="ignore"):
            delays = np.maximum(ends, down_done) + up_lat - ends
        slot_wake = np.zeros(slot_end.size)
        slot_wake[gap_slot] = np.where(shutdown & mid, delays, 0.0)
        new_wake = slot_wake[~is_trail_slot]
        if np.array_equal(new_wake, wake):
            break
        wake = new_wake
        # the flat layout holds every trace at once: free each pass's
        # arrays before the next pass (and the fixpoint's before the
        # accounting) allocates, to bound peak memory
        del gap_slot, starts, ends, mid, decision, checked, timeouts
        del target_idx, shutdown, up_lat, down_done, delays
    else:  # pragma: no cover - n+1 passes provably suffice
        return None

    del wake, new_wake, slot_wake, slot_start, slot_end, total_demand, demand_before
    del mid, decision, shutdown, up_lat, down_done, delays, forced, after_req
    # gap_bounds[r]: trace r's first gap (every trace has at least one)
    gap_bounds = np.append(np.searchsorted(gap_slot, first_slot), gap_slot.size)
    latencies = np.subtract(completions, arrivals, out=completions)
    return _fold_runs(device, home, wait, table, n_arr, demands, latencies,
                      starts, ends, timeouts, target_idx, gap_bounds,
                      keep_latencies)


def run_vectorized(
    device: PowerStateMachine,
    policy: EventPolicy,
    trace: Trace,
    service_time: float = 0.5,
    oracle: bool = False,
    keep_latencies: bool = True,
) -> Optional[SimReport]:
    """:func:`run_gap_batched` on one trace: its report, or None when
    the run does not qualify."""
    reports = run_gap_batched(
        device, policy, [trace], service_time=service_time, oracle=oracle,
        keep_latencies=keep_latencies,
    )
    return None if reports is None else reports[0]


def simulate_trace(
    device: PowerStateMachine,
    policy: EventPolicy,
    trace: Trace,
    service_time: float = 0.5,
    oracle: bool = False,
    keep_latencies: bool = True,
) -> SimReport:
    """One device + one trace + one policy, on the fastest valid engine.

    Runs the vectorized busy-period kernel when the policy implements
    :meth:`~repro.sim.policy_api.EventPolicy.decide_batch` and the device
    shape qualifies, and falls back to the scalar
    :class:`~repro.sim.DPMSimulator` event loop otherwise — same
    :class:`~repro.sim.SimReport` either way.  Direct callers check a
    report's invariants with :func:`~repro.runtime.verify.check_sim_report`.
    """
    report = run_vectorized(
        device, policy, trace, service_time=service_time, oracle=oracle,
        keep_latencies=keep_latencies,
    )
    if report is None:
        report = DPMSimulator(
            device, policy, service_time=service_time, oracle=oracle,
            keep_latencies=keep_latencies,
        ).run(trace)
    return report


def policy_batch_mode(policy: EventPolicy) -> str:
    """Which fast path a policy family can ride, by hook introspection.

    - ``"gap"`` — overrides :meth:`~repro.sim.policy_api.EventPolicy.
      decide_batch`: stateless, all gaps of R traces at once.
    - ``"step"`` — overrides ``make_step_state``: stateful but
      batchable across replications in lock-step.
    - ``"scalar"`` — neither hook: only the scalar event loop.

    :func:`simulate_traces_batch` picks its engine by it (the engines
    still verify at run time and fall back); the sweep runners use it
    to estimate per-chunk work.
    """
    cls = type(policy)
    if cls.decide_batch is not EventPolicy.decide_batch:
        return "gap"
    if cls.make_step_state is not EventPolicy.make_step_state:
        return "step"
    return "scalar"


def run_step_batched(
    device: PowerStateMachine,
    policy: EventPolicy,
    traces: Sequence[Trace],
    service_time: float = 0.5,
    oracle: bool = False,
    keep_latencies: bool = True,
) -> Optional[List[SimReport]]:
    """Lock-step engine for R replications of one stateful policy.

    None when the run does not qualify (policy without step hooks, or
    decisions outside the modeled shapes) — the caller then uses
    per-trace :func:`simulate_trace`.  Each
    replica's report is a pure function of its own trace, so results
    are independent of which traces share the batch (the chunking-
    invariance guarantee the sweep runners rely on, mirroring
    ``BatchedQDPM``).  Stateless (gap-mode) policies are declined too:
    :func:`run_gap_batched` resolves all gaps of R traces at once, where
    lock-step rounds would cost one round per idle gap of the busiest
    replica.

    The busy-period trick per lock-step round: with zero wake delays a
    trace's busy periods are fixed ("pure" structure, one prefix-max
    pass up front).  A realized busy period opening at request ``p``
    with service start ``s`` has completions
    ``max(pure_completion, s - cum_demand[p-1] + cum_demand)``; only the
    opener's shift can differ from the pure one (wake delays apply to
    gap openers alone), and a delayed completion that swallows the next
    pure gap simply merges that pure period under a new shift.  Realized
    gap openers are always pure openers (delays only push completions
    later), so per-replica state is just (next pure period, previous
    completion, policy state) and every round is O(R) array work.

    Each round records its gaps' starts, rule ends and decisions; after
    the last round they go, replica by replica, through the gap fold of
    :func:`run_gap_batched`, which shares its target table and rule.
    """
    check_positive("service_time", service_time)
    home = device.initial_state
    wait = default_wait_state(device)
    traces = list(traces)
    n_reps = len(traces)
    if n_reps == 0:
        return []
    states = policy.make_step_state(n_reps, device, wait)
    if states is None:
        return None

    # ---- padded per-replica trace arrays ------------------------------ #
    n_arr = np.array([len(t) for t in traces], dtype=np.int64)
    n_max = max(int(n_arr.max()), 1)
    durations = np.array([float(t.duration) for t in traces])
    arrivals = np.full((n_reps, n_max), np.inf)
    demands = np.zeros((n_reps, n_max))
    for r, t in enumerate(traces):
        if len(t):
            arrivals[r, : len(t)] = t.arrival_times
            demands[r, : len(t)] = resolve_demands(t, service_time)
    cum = np.cumsum(demands, axis=1)          # demand through request j
    cum_before = cum - demands                # demand before request j
    cols = np.arange(n_max)
    valid = cols[None, :] < n_arr[:, None]
    # one sentinel column so "position n_arr" gathers are always in
    # bounds without per-round index clamping
    arrivals_s = np.concatenate(
        (arrivals, np.full((n_reps, 1), np.inf)), axis=1
    )
    cum_before_s = np.concatenate(
        (cum_before, np.zeros((n_reps, 1))), axis=1
    )

    # ---- pure (zero-wake) busy-period structure ----------------------- #
    terms = np.where(valid, arrivals - cum_before, -np.inf)
    floor0 = np.maximum.accumulate(terms, axis=1)
    pure = floor0 + cum                       # pure completions
    opens0 = np.zeros((n_reps, n_max), dtype=bool)
    opens0[:, 0] = valid[:, 0]
    if n_max > 1:
        opens0[:, 1:] = valid[:, 1:] & (arrivals[:, 1:] > pure[:, :-1])
    open_rows, open_cols = np.nonzero(opens0)
    n_periods = np.bincount(open_rows, minlength=n_reps)
    k_max = int(n_periods.max()) if n_reps else 0
    # starts[r, k] = opening request of pure period k; the sentinel at
    # starts[r, n_periods[r]] makes "end of period k" = starts[r, k+1]-1
    # uniform for the last period too
    starts = np.zeros((n_reps, k_max + 1), dtype=np.int64)
    first_of_row = np.concatenate(([0], np.cumsum(n_periods)[:-1]))
    within = np.arange(open_rows.size) - np.repeat(first_of_row, n_periods)
    starts[open_rows, within] = open_cols
    starts[np.arange(n_reps), n_periods] = n_arr

    # ---- per-replica run state --------------------------------------- #
    rows = np.arange(n_reps)
    k = np.zeros(n_reps, dtype=np.int64)      # next pure period to realize
    prev_done = np.zeros(n_reps)              # completion of previous period
    done = np.zeros(n_reps, dtype=bool)
    shift_at = np.full((n_reps, n_max), np.nan)
    table = _target_table(device, home, wait)
    rounds = []  # each round's (active, gap start, rule end, timeout, target)

    # ---- lock-step rounds: one idle gap per replica ------------------- #
    # invariant: k <= n_periods, and starts[r, k] <= n_arr[r] (sentinel),
    # so every gather below is in bounds without clamping
    while True:
        mid = ~done & (k < n_periods)         # a mid-trace gap opens now
        trail = ~done & ~mid                  # the trailing gap opens now
        active = mid | trail
        if not active.any():
            break
        pos = starts[rows, k]
        gap_start = prev_done
        gap_end = np.where(mid, arrivals_s[rows, pos], np.nan)
        next_arrivals = gap_end.copy() if oracle else np.full(n_reps, np.nan)
        decision = policy.decide_step_batch(
            states,
            StepBatchContext(
                gap_starts=gap_start,
                next_arrivals=next_arrivals,
                active=active,
                device=device,
                wait_state=wait,
            ),
        )
        checked = _check_decision(decision, n_reps, table.usable, active)
        if checked is None:
            return None
        timeouts, target_idx = checked
        rule_end = np.where(mid, gap_end, durations)
        rounds.append((active, gap_start, rule_end, timeouts, target_idx))
        # a trailing gap's feedback is dropped: no decision follows it
        policy.end_step_batch(states, gap_end - gap_start, mid)
        done |= trail
        if not mid.any():
            continue

        # ---- advance mid replicas one realized busy period ------------ #
        # the opener starts service after any in-flight down transition
        # completes and the device wakes
        shutdown = _shutdown_rule(gap_start, rule_end, timeouts, target_idx)
        down_done = gap_start + timeouts + table.down[target_idx]
        service_start = np.where(
            shutdown, np.maximum(gap_end, down_done) + table.up[target_idx],
            gap_end,
        )
        shift = service_start - cum_before_s[rows, pos]
        shift_at[rows[mid], pos[mid]] = shift[mid]
        k_next = np.where(mid, k + 1, k)
        # end of the running period; -1 for non-mid rows wraps to the
        # last column — garbage that every consumer masks out
        end_idx = starts[rows, k_next] - 1
        completion = np.maximum(pure[rows, end_idx], shift + cum[rows, end_idx])
        # wake delays can swallow the next pure gap: merge its period
        # under the running completion's shift (rare — delays seldom
        # reach the next arrival)
        next_pos = starts[rows, k_next]
        next_arr = np.where(
            mid & (k_next < n_periods), arrivals_s[rows, next_pos], np.inf
        )
        merge = next_arr <= completion
        while merge.any():
            shift = np.where(
                merge, completion - cum_before_s[rows, next_pos], shift
            )
            shift_at[rows[merge], next_pos[merge]] = shift[merge]
            k_next = np.where(merge, k_next + 1, k_next)
            end_idx = starts[rows, k_next] - 1
            merged_done = np.maximum(
                pure[rows, end_idx], shift + cum[rows, end_idx]
            )
            completion = np.where(merge, merged_done, completion)
            next_pos = starts[rows, k_next]
            next_arr = np.where(
                merge & (k_next < n_periods), arrivals_s[rows, next_pos], np.inf
            )
            merge = merge & (next_arr <= completion)
        prev_done = np.where(mid, completion, prev_done)
        k = k_next

    # ---- realized completions and latencies --------------------------- #
    # every consumed pure-period start recorded its shift; forward-fill
    # gives each request the shift of the realized busy period covering it
    recorded = ~np.isnan(shift_at)
    ffill_idx = np.maximum.accumulate(np.where(recorded, cols[None, :], 0), axis=1)
    shift_full = shift_at[rows[:, None], ffill_idx]
    with np.errstate(invalid="ignore"):
        completions = np.maximum(pure, shift_full + cum)
        latencies = np.subtract(completions, arrivals, out=completions)

    # (replica, round) matrices; a replica's active rounds are its gaps
    # in order, the trailing one last
    active, gap_start, rule_end, timeouts, target_idx = (
        np.array(column).T for column in zip(*rounds))
    gap_bounds = np.concatenate(([0], np.cumsum(active.sum(axis=1))))
    return _fold_runs(device, home, wait, table, n_arr, demands[valid],
                      latencies[valid], gap_start[active], rule_end[active],
                      timeouts[active], target_idx[active], gap_bounds,
                      keep_latencies)


def simulate_traces_batch(
    device: PowerStateMachine,
    policy: EventPolicy,
    traces: Sequence[Trace],
    service_time: float = 0.5,
    oracle: bool = False,
    keep_latencies: bool = True,
) -> List[SimReport]:
    """R replications of one (device, policy) cell, fastest valid engine.

    Gap-mode policies (:func:`policy_batch_mode`) run all gaps of the R
    traces in one :func:`run_gap_batched` call, step-mode ones the
    lock-step engine; the rest, or a declined batch, fall back to
    per-trace :func:`simulate_trace`.  Reports come in trace order, each
    a pure function of its own trace.  ``engine.eventsim.{vector,
    lockstep,scalar}`` count the traces each path served, and
    ``engine.eventsim.vector_declined`` the gap-mode batches declined.
    """
    traces = list(traces)
    if not traces:
        return []
    kwargs = dict(service_time=service_time, oracle=oracle,
                  keep_latencies=keep_latencies)
    mode = policy_batch_mode(policy)
    engine = {"gap": run_gap_batched, "step": run_step_batched}.get(mode)
    reports = None if engine is None else engine(device, policy, traces, **kwargs)
    if reports is not None:
        name = "vector" if mode == "gap" else "lockstep"
        TELEMETRY.inc(f"engine.eventsim.{name}", len(traces))
        return reports
    if mode == "gap":
        TELEMETRY.inc("engine.eventsim.vector_declined")
    TELEMETRY.inc("engine.eventsim.scalar", len(traces))
    return [simulate_trace(device, policy, trace, **kwargs) for trace in traces]
