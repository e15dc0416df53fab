"""Runtime verification: in-run invariants, shadow execution, interrupts.

The repo's correctness story — every vectorized path pinned against its
scalar reference — lives in the test suite; a production-scale run has
no in-run defense against silent numerical drift.  This module turns
the test-time contracts into runtime checks the sweep runners apply
*while executing*:

- **Invariant checks** at report boundaries
  (:func:`check_sim_report`, :func:`check_fleet_report`,
  :func:`check_seed_run`): energy conservation
  (sum(residency x power) = energy), residency partitioning the
  horizon, monotone tail percentiles, non-negative latencies,
  dispatch/drop conservation, NaN/inf and int64-overflow guards.
  Violations raise a structured :class:`InvariantViolation` carrying
  the spec hash, seed, and field-level expected-vs-got detail.
- **Sampled shadow execution** (:func:`shadow_indices` +
  :func:`compare_reports`): the runners deterministically re-run a
  seeded fraction of their chunks on the scalar reference path and
  compare field-for-field — test-time pinning as in-run
  cross-validation, summarized in a ``verification`` block of the
  execution metadata.
- **Graceful interruption** (:func:`sweep_interrupts`,
  :class:`SweepInterrupted`): SIGINT/SIGTERM around chunk execution
  flush the checkpoint journal, tear the pool down cleanly, and
  surface a one-line resume hint instead of a stack trace.
- **Diagnostics bundles** (:func:`write_diagnostics_bundle`): every
  :class:`InvariantViolation` or
  :class:`~repro.runtime.executor.ChunkExecutionError` can be written
  as a minimal-repro JSON (spec, spec hash, seed, chunk id, diverging
  fields) so the failure replays from one file.

Invariant tolerances are deliberately looser (rel ~1e-6) than shadow
comparison (rel 1e-9): invariants catch *drift and corruption*, not
summation-order noise; shadow comparison re-asserts the tight pins the
test suite established.
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .telemetry import TELEMETRY

#: loose relative tolerance of the conservation-law invariants — wide
#: enough to absorb summation-order noise over ~1e6 float ops, tight
#: enough that any real drift (a wrong branch, a dropped term) trips it
INVARIANT_RTOL = 1e-6
#: absolute floor for comparisons around zero (spans, energies in J)
INVARIANT_ATOL = 1e-9

#: tight tolerance of shadow (fast-vs-reference) field comparison — the
#: same bar the test suite pins the engines at
SHADOW_RTOL = 1e-9
SHADOW_ATOL = 1e-12

_INT64_MAX = 2 ** 63 - 1


class InvariantViolation(RuntimeError):
    """A runtime invariant failed: structured expected-vs-got evidence.

    Attributes
    ----------
    invariant:
        Name of the violated invariant family (e.g.
        ``"energy_conservation"``, ``"shadow_divergence"``).
    details:
        Field-level evidence: a list of dicts, each at least
        ``{"field": ..., "expected": ..., "got": ...}``.
    spec_key:
        The sweep's spec hash, when the violation occurred inside a
        keyed run (ties the failure to one exact configuration).
    seed:
        The replication seed of the offending unit, when known.
    context:
        Free-form extra identification (chunk id, cell labels, ...).
    """

    def __init__(
        self,
        invariant: str,
        details: Sequence[Dict[str, Any]],
        spec_key: Optional[str] = None,
        seed: Optional[int] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.invariant = str(invariant)
        self.details = list(details)
        self.spec_key = spec_key
        self.seed = None if seed is None else int(seed)
        self.context = dict(context) if context else {}
        fields = ", ".join(
            f"{d.get('field')}: expected {d.get('expected')!r}, "
            f"got {d.get('got')!r}"
            for d in self.details[:4]
        )
        more = len(self.details) - 4
        if more > 0:
            fields += f" (+{more} more)"
        where = "".join(
            [
                f" [spec {self.spec_key}]" if self.spec_key else "",
                f" [seed {self.seed}]" if self.seed is not None else "",
                f" [{self.context}]" if self.context else "",
            ]
        )
        super().__init__(f"invariant {self.invariant!r} violated{where}: {fields}")


class SweepInterrupted(BaseException):
    """A sweep was stopped by SIGINT/SIGTERM after a clean teardown.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    no retry ladder or ``except Exception`` swallows it.  Carries what
    the operator needs to resume: how much completed, and where the
    journal lives.
    """

    def __init__(
        self,
        signal_name: str,
        n_completed: int,
        n_total: int,
        checkpoint: Optional[Union[str, Path]] = None,
    ) -> None:
        self.signal_name = str(signal_name)
        self.n_completed = int(n_completed)
        self.n_total = int(n_total)
        self.checkpoint = None if checkpoint is None else str(checkpoint)
        super().__init__(self.resume_hint())

    def resume_hint(self) -> str:
        """One-line operator guidance for picking the sweep back up."""
        done = f"{self.n_completed}/{self.n_total} chunks journaled"
        if self.checkpoint is None:
            return (
                f"interrupted by {self.signal_name} with no checkpoint "
                f"journal — progress discarded; rerun with a checkpoint "
                f"path to make the sweep resumable"
            )
        return (
            f"interrupted by {self.signal_name}; {done} — resume "
            f"bit-identically with --resume --checkpoint {self.checkpoint}"
        )


# --------------------------------------------------------------------- #
# numeric helpers
# --------------------------------------------------------------------- #


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


class _Problems:
    """Accumulates field-level violations, then raises once."""

    def __init__(self, invariant: str, spec_key=None, seed=None, context=None):
        self.invariant = invariant
        self.spec_key = spec_key
        self.seed = seed
        self.context = context
        self.items: List[Dict[str, Any]] = []

    def add(self, field: str, expected: Any, got: Any, **extra: Any) -> None:
        self.items.append({"field": field, "expected": expected,
                           "got": got, **extra})

    def finite(self, field: str, value: float) -> bool:
        """Record a violation unless ``value`` is a finite float."""
        if not math.isfinite(value):
            self.add(field, "finite", value)
            return False
        return True

    def int_in_range(self, field: str, value: int, low: int = 0) -> bool:
        """Record a violation unless ``low <= value <= int64 max``."""
        value = int(value)
        if not low <= value <= _INT64_MAX:
            self.add(field, f"integer in [{low}, 2**63-1]", value)
            return False
        return True

    def raise_if_any(self) -> None:
        if self.items:
            raise InvariantViolation(
                self.invariant, self.items, spec_key=self.spec_key,
                seed=self.seed, context=self.context,
            )


# --------------------------------------------------------------------- #
# invariant checks
# --------------------------------------------------------------------- #


def _check_tail_fields(p: _Problems, report: Any) -> None:
    """Latency summary sanity shared by sim and fleet reports:
    non-negative, finite, and monotone p50 <= p95 <= p99 <= max."""
    names = ("mean_latency", "p50_latency", "p95_latency", "p99_latency",
             "max_latency")
    values = {}
    for name in names:
        v = float(getattr(report, name))
        if p.finite(name, v):
            values[name] = v
            if v < -INVARIANT_ATOL:
                p.add(name, ">= 0", v)
    ladder = [values.get(n) for n in
              ("p50_latency", "p95_latency", "p99_latency", "max_latency")]
    if all(v is not None for v in ladder):
        for (lo_name, lo), (hi_name, hi) in zip(
            zip(names[1:], ladder), zip(names[2:], ladder[1:])
        ):
            if lo > hi + INVARIANT_ATOL + INVARIANT_RTOL * abs(hi):
                p.add(f"{lo_name} <= {hi_name}", f"<= {hi}", lo)
    mean = values.get("mean_latency")
    mx = values.get("max_latency")
    if mean is not None and mx is not None:
        if mean > mx + INVARIANT_ATOL + INVARIANT_RTOL * abs(mx):
            p.add("mean_latency <= max_latency", f"<= {mx}", mean)
    if getattr(report, "n_requests") == 0:
        for name, v in values.items():
            if v != 0.0:
                p.add(f"{name} (zero-request sentinel)", 0.0, v)


def _device_condition_power(device: Any, label: str) -> Optional[float]:
    """Power of one residency condition: a state name or ``"a->b"``."""
    if device.has_state(label):
        return float(device.state(label).power)
    if "->" in label:
        source, _, target = label.partition("->")
        if (device.has_state(source) and device.has_state(target)
                and device.can_transition(source, target)):
            return float(device.transition(source, target).mean_power)
    return None


def _has_instant_lump_transitions(device: Any) -> bool:
    """True when any transition charges energy in zero time — those
    lumps appear in ``total_energy`` but in no residency interval, so
    energy conservation degrades from equality to a lower bound."""
    for source in device.state_names:
        for target in device.state_names:
            if source == target or not device.can_transition(source, target):
                continue
            tr = device.transition(source, target)
            if tr.latency == 0 and tr.energy > 0:
                return True
    return False


def check_sim_report(
    report: Any,
    device: Any = None,
    spec_key: Optional[str] = None,
    seed: Optional[int] = None,
    context: Optional[Dict[str, Any]] = None,
) -> None:
    """Assert the runtime invariants of one :class:`~repro.sim.SimReport`.

    Checks that hold for *any* correct run, whichever engine produced
    it: finite fields, int64-range counters, non-negative and monotone
    latency percentiles, zero-request sentinel fields, residency
    partitioning the horizon, and ``mean_power x duration =
    total_energy``.  With ``device`` given, additionally checks energy
    conservation against the power model:
    ``sum(residency x power) = total_energy`` (a lower bound when the
    device has zero-latency transitions that charge lump energy, exact
    equality otherwise).

    Raises :class:`InvariantViolation` with field-level evidence.
    """
    TELEMETRY.inc("verify.invariant_checks")
    p = _Problems("sim_report", spec_key=spec_key, seed=seed, context=context)

    duration = float(report.duration)
    if p.finite("duration", duration) and duration < -INVARIANT_ATOL:
        p.add("duration", ">= 0", duration)
    energy_ok = p.finite("total_energy", float(report.total_energy))
    if energy_ok and float(report.total_energy) < -INVARIANT_ATOL:
        p.add("total_energy", ">= 0", float(report.total_energy))
    p.finite("mean_power", float(report.mean_power))
    p.finite("energy_saving_ratio", float(report.energy_saving_ratio))
    idle_len = float(report.mean_idle_length)
    if p.finite("mean_idle_length", idle_len) and idle_len < -INVARIANT_ATOL:
        p.add("mean_idle_length", ">= 0", idle_len)

    p.int_in_range("n_requests", report.n_requests)
    p.int_in_range("n_shutdowns", report.n_shutdowns)
    p.int_in_range("n_wrong_shutdowns", report.n_wrong_shutdowns)
    p.int_in_range("n_idle_periods", report.n_idle_periods)
    if int(report.n_wrong_shutdowns) > int(report.n_shutdowns):
        p.add("n_wrong_shutdowns <= n_shutdowns",
              f"<= {int(report.n_shutdowns)}", int(report.n_wrong_shutdowns))

    _check_tail_fields(p, report)

    if report.latencies:
        lats = np.asarray(report.latencies, dtype=float)
        if not np.all(np.isfinite(lats)):
            p.add("latencies", "all finite", "NaN/inf present")
        else:
            if int(lats.size) != int(report.n_requests):
                p.add("n_requests == len(latencies)", int(lats.size),
                      int(report.n_requests))
            if lats.size and float(lats.min()) < -INVARIANT_ATOL:
                p.add("latencies", ">= 0", float(lats.min()))
            if lats.size and not _close(
                float(lats.max()), float(report.max_latency),
                INVARIANT_RTOL, INVARIANT_ATOL,
            ):
                p.add("max_latency == max(latencies)", float(lats.max()),
                      float(report.max_latency))

    residency_total = 0.0
    residency_finite = True
    for label, span in report.state_residency.items():
        span = float(span)
        if not math.isfinite(span):
            p.add(f"state_residency[{label!r}]", "finite", span)
            residency_finite = False
            continue
        if span < -INVARIANT_ATOL:
            p.add(f"state_residency[{label!r}]", ">= 0", span)
        residency_total += span
    if residency_finite and math.isfinite(duration) and duration >= 0:
        if not _close(residency_total, duration, INVARIANT_RTOL,
                      INVARIANT_ATOL + INVARIANT_RTOL * max(duration, 1.0)):
            p.add("sum(state_residency) == duration", duration,
                  residency_total)

    if energy_ok and math.isfinite(float(report.mean_power)):
        horizon = duration if duration > 0 else 1.0
        implied = float(report.mean_power) * horizon
        if not _close(implied, float(report.total_energy),
                      INVARIANT_RTOL, INVARIANT_ATOL):
            p.add("mean_power x duration == total_energy",
                  float(report.total_energy), implied)

    if device is not None and energy_ok and residency_finite:
        residency_energy = 0.0
        resolvable = True
        for label, span in report.state_residency.items():
            power = _device_condition_power(device, label)
            if power is None:
                p.add(f"state_residency[{label!r}]",
                      "a device state or transition label", label)
                resolvable = False
                continue
            residency_energy += float(span) * power
        if resolvable:
            total = float(report.total_energy)
            tol = INVARIANT_ATOL + INVARIANT_RTOL * max(abs(total), 1.0)
            if _has_instant_lump_transitions(device):
                if total < residency_energy - tol:
                    p.add("total_energy >= sum(residency x power)",
                          f">= {residency_energy}", total)
            elif not _close(residency_energy, total, INVARIANT_RTOL, tol):
                p.add("sum(residency x power) == total_energy", total,
                      residency_energy)
        home_power = float(device.state(device.initial_state).power)
        if home_power > 0 and math.isfinite(float(report.mean_power)):
            expected_saving = 1.0 - float(report.mean_power) / home_power
            if not _close(expected_saving, float(report.energy_saving_ratio),
                          INVARIANT_RTOL, INVARIANT_ATOL):
                p.add("energy_saving_ratio == 1 - mean_power/home_power",
                      expected_saving, float(report.energy_saving_ratio))

    p.raise_if_any()


def check_fleet_report(
    report: Any,
    spec_key: Optional[str] = None,
    seed: Optional[int] = None,
    context: Optional[Dict[str, Any]] = None,
) -> None:
    """Assert the runtime invariants of one
    :class:`~repro.fleet.FleetReport`.

    Fleet-level conservation laws on top of the per-report numeric
    guards: request accounting (``n_requests ==
    sum(requests_per_device)``; the overload conservation law
    ``dispatched + dropped + shed == n_offered``), finite non-negative
    residency, availability / goodput / SLO attainment in ``[0, 1]``,
    goodput never above throughput, and ``load_imbalance >= 1``.

    Raises :class:`InvariantViolation` with field-level evidence.
    """
    TELEMETRY.inc("verify.invariant_checks")
    p = _Problems("fleet_report", spec_key=spec_key, seed=seed,
                  context=context)

    for name in ("duration", "total_energy", "mean_power",
                 "energy_saving_ratio", "failover_latency_inflation"):
        p.finite(name, float(getattr(report, name)))
    for name in ("n_devices", "n_requests", "n_shutdowns",
                 "n_wrong_shutdowns", "n_retries", "n_dropped",
                 "n_shed", "n_budget_shed", "n_breaker_trips",
                 "n_offered"):
        p.int_in_range(name, getattr(report, name))
    if int(report.n_devices) < 1:
        p.add("n_devices", ">= 1", int(report.n_devices))
    if int(report.n_budget_shed) > int(report.n_shed):
        p.add("n_budget_shed <= n_shed", int(report.n_shed),
              int(report.n_budget_shed))

    _check_tail_fields(p, report)

    availability = float(report.availability)
    if p.finite("availability", availability):
        if not -INVARIANT_ATOL <= availability <= 1.0 + INVARIANT_ATOL:
            p.add("availability", "in [0, 1]", availability)
    for name in ("goodput", "slo_attainment"):
        value = float(getattr(report, name))
        if p.finite(name, value):
            if not -INVARIANT_ATOL <= value <= 1.0 + INVARIANT_ATOL:
                p.add(name, "in [0, 1]", value)

    counts = tuple(int(c) for c in report.requests_per_device)
    if len(counts) != int(report.n_devices):
        p.add("len(requests_per_device) == n_devices",
              int(report.n_devices), len(counts))
    if any(c < 0 for c in counts):
        p.add("requests_per_device", "all >= 0", counts)
    dispatched = sum(counts)
    if dispatched != int(report.n_requests):
        p.add("n_requests == sum(requests_per_device)", dispatched,
              int(report.n_requests))
    offered = int(report.n_offered)
    accounted = (
        int(report.n_requests) + int(report.n_dropped) + int(report.n_shed)
    )
    if accounted != offered:
        p.add("n_requests + n_dropped + n_shed == n_offered", offered,
              accounted)
    # goodput counts deadline-met landed requests out of the offered
    # load, so it can never exceed the dispatched fraction
    if offered > 0:
        throughput = int(report.n_requests) / offered
        if float(report.goodput) > throughput + INVARIANT_ATOL \
                + INVARIANT_RTOL * throughput:
            p.add("goodput <= throughput (n_requests / n_offered)",
                  throughput, float(report.goodput))

    imbalance = float(report.load_imbalance)
    if p.finite("load_imbalance", imbalance):
        if imbalance < 1.0 - INVARIANT_RTOL:
            p.add("load_imbalance", ">= 1", imbalance)

    for label, span in report.state_residency.items():
        span = float(span)
        if not math.isfinite(span):
            p.add(f"state_residency[{label!r}]", "finite", span)
        elif span < -INVARIANT_ATOL:
            p.add(f"state_residency[{label!r}]", ">= 0", span)

    p.raise_if_any()


def check_seed_run(
    run: Any,
    spec: Any = None,
    spec_key: Optional[str] = None,
    context: Optional[Dict[str, Any]] = None,
) -> None:
    """Assert the runtime invariants of one slotted-engine
    :class:`~repro.runtime.sweep.SeedRun`.

    Finite history/summary fields, non-negative energy, a saving ratio
    that cannot exceed 1, int64-range counters, and request
    conservation: requests still queued at the horizon
    (``arrivals - completions - losses``) must lie in
    ``[0, queue_capacity]`` (capacity read from ``spec`` when given),
    policy snapshots, one row per record, exactly for the seeds in
    ``spec.snapshot_seeds``, and an adaptation log exactly for a
    model-based spec.

    Raises :class:`InvariantViolation` with field-level evidence.
    """
    TELEMETRY.inc("verify.invariant_checks")
    p = _Problems("seed_run", spec_key=spec_key, seed=run.seed,
                  context=context)
    p.finite("mean_reward", float(run.mean_reward))
    saving = float(run.saving_ratio)
    if p.finite("saving_ratio", saving) and saving > 1.0 + INVARIANT_ATOL:
        p.add("saving_ratio", "<= 1", saving)
    totals = run.totals
    p.int_in_range("totals.slots", totals.slots)
    p.int_in_range("totals.arrivals", totals.arrivals)
    p.int_in_range("totals.completions", totals.completions)
    p.int_in_range("totals.losses", totals.losses)
    if p.finite("totals.energy", float(totals.energy)):
        if float(totals.energy) < -INVARIANT_ATOL:
            p.add("totals.energy", ">= 0", float(totals.energy))
    p.finite("totals.queue_integral", float(totals.queue_integral))
    queued = int(totals.arrivals) - int(totals.completions) - int(totals.losses)
    if queued < 0:
        p.add("arrivals - completions - losses", ">= 0", queued)
    elif spec is not None and queued > int(spec.queue_capacity):
        p.add("arrivals - completions - losses",
              f"<= queue_capacity {int(spec.queue_capacity)}", queued)
    if spec is not None and int(totals.slots) != int(spec.n_slots):
        p.add("totals.slots == n_slots", int(spec.n_slots),
              int(totals.slots))
    history = run.history
    for name in ("energy", "reward", "queue", "saving_ratio", "td_error"):
        arr = np.asarray(getattr(history, name), dtype=float)
        if not np.all(np.isfinite(arr)):
            p.add(f"history.{name}", "all finite", "NaN/inf present")
    if spec is not None and (run.seed in spec.snapshot_seeds) != (
            run.snapshots is not None):
        p.add("snapshots present", run.seed in spec.snapshot_seeds,
              run.snapshots is not None)
    elif run.snapshots is not None and len(run.snapshots) != len(history):
        p.add("len(snapshots) == len(history)", len(history),
              len(run.snapshots))
    if spec is not None and (spec.model_based is not None) != (
            run.adaptation is not None):
        p.add("adaptation present", spec.model_based is not None,
              run.adaptation is not None)
    p.raise_if_any()


# --------------------------------------------------------------------- #
# shadow execution
# --------------------------------------------------------------------- #


def shadow_indices(n_units: int, fraction: float, key: str) -> List[int]:
    """Deterministic sample of chunk indices to shadow-verify.

    ``fraction`` of ``n_units`` (at least one when the fraction is
    positive, all of them at 1.0), drawn without replacement from a
    stream seeded by the sweep's spec ``key`` — so which cells get
    re-verified is a pure function of the sweep configuration, and a
    resumed run verifies the same cells an uninterrupted one would.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"verify fraction must be in [0, 1], got {fraction}")
    if n_units <= 0 or fraction == 0.0:
        return []
    if fraction >= 1.0:
        return list(range(n_units))
    k = min(n_units, max(1, int(round(fraction * n_units))))
    seed = int(str(key).strip()[:16] or "0", 16) % (2 ** 32)
    rng = np.random.default_rng([seed, n_units])
    return sorted(int(i) for i in rng.choice(n_units, size=k, replace=False))


def _values_diverge(field: str, got: Any, want: Any, rtol: float,
                    atol: float, out: List[Dict[str, Any]]) -> None:
    """Append a divergence record when ``got`` and ``want`` differ
    beyond tolerance; recurses into dicts/sequences/dataclasses."""
    if (want is None) != (got is None):
        out.append({"field": field, "expected": type(want).__name__,
                    "got": type(got).__name__})
        return
    if dataclasses.is_dataclass(want) and not isinstance(want, type):
        out.extend(
            {**d, "field": f"{field}.{d['field']}"}
            for d in compare_reports(got, want, rtol=rtol, atol=atol)
        )
        return
    if isinstance(want, dict):
        if set(want) != set(got):
            out.append({"field": field, "expected": sorted(want),
                        "got": sorted(got)})
            return
        for key in want:
            _values_diverge(f"{field}[{key!r}]", got[key], want[key],
                            rtol, atol, out)
        return
    if isinstance(want, (list, tuple, np.ndarray)):
        got_arr = np.asarray(got, dtype=float)
        want_arr = np.asarray(want, dtype=float)
        if got_arr.shape != want_arr.shape:
            out.append({"field": field, "expected": f"shape {want_arr.shape}",
                        "got": f"shape {got_arr.shape}"})
            return
        if rtol == 0.0 and atol == 0.0:
            equal = np.array_equal(got_arr, want_arr)
        else:
            equal = bool(
                np.allclose(got_arr, want_arr, rtol=rtol, atol=atol,
                            equal_nan=False)
            )
        if not equal:
            bad = np.flatnonzero(
                ~np.isclose(got_arr, want_arr, rtol=rtol, atol=atol)
            )
            i = int(bad[0]) if bad.size else 0
            out.append({
                "field": f"{field}[{i}]",
                "expected": float(want_arr.flat[i]),
                "got": float(got_arr.flat[i]),
                "n_diverging": int(bad.size),
            })
        return
    if isinstance(want, float) or isinstance(got, float):
        want_f, got_f = float(want), float(got)
        if rtol == 0.0 and atol == 0.0:
            # bit-exact mode: NaN == NaN counts as equal, anything else
            # must match to the last bit
            same = (want_f == got_f
                    or (math.isnan(want_f) and math.isnan(got_f)))
        else:
            same = _close(got_f, want_f, rtol, atol)
        if not same:
            out.append({"field": field, "expected": want_f, "got": got_f})
        return
    if got != want:
        out.append({"field": field, "expected": want, "got": got})


def compare_reports(
    got: Any,
    want: Any,
    rtol: float = SHADOW_RTOL,
    atol: float = SHADOW_ATOL,
) -> List[Dict[str, Any]]:
    """Field-for-field diff of two report dataclasses.

    Returns the divergence list (empty = verified): each entry names the
    field, the reference value (``want``, the scalar path), and the
    fast-path value (``got``).  Floats compare within
    ``rtol``/``atol`` — pass ``rtol=0, atol=0`` for bit-exact mode —
    ints and strings exactly; dicts key-wise; numeric sequences
    element-wise; nested dataclasses recursively.
    """
    if type(got) is not type(want):
        return [{"field": "__class__", "expected": type(want).__name__,
                 "got": type(got).__name__}]
    divergences: List[Dict[str, Any]] = []
    for field in dataclasses.fields(want):
        _values_diverge(
            field.name, getattr(got, field.name), getattr(want, field.name),
            rtol, atol, divergences,
        )
    return divergences


def shadow_verify_chunks(
    tasks: Sequence[Tuple],
    chunk_results: Sequence[Sequence[Any]],
    fraction: float,
    spec_key: str,
    reference_fn: Callable[..., Sequence[Any]],
    reference_name: str,
    labels_of: Optional[Callable[[int], Sequence[Dict[str, Any]]]] = None,
    rtol: float = SHADOW_RTOL,
    atol: float = SHADOW_ATOL,
    diagnostics_dir: Optional[Union[str, Path]] = None,
    spec: Any = None,
) -> Dict[str, Any]:
    """Re-run a seeded sample of chunks on the reference path and diff.

    The shadow-execution driver shared by the sweep runners:
    :func:`shadow_indices` picks ``fraction`` of the ``tasks``
    deterministically from ``spec_key``, ``reference_fn(*task)``
    recomputes each sampled chunk on the scalar reference path, and
    every per-seed result is compared field-for-field
    (:func:`compare_reports`) against the fast path's
    ``chunk_results``.  Returns the ``verification`` metadata block on
    success; on any divergence, writes a diagnostics bundle (when
    ``diagnostics_dir`` is set) and raises :class:`InvariantViolation`
    with every diverging field.  ``labels_of(chunk_index)`` gives one
    label dict per result of that chunk (e.g. its cell and replication
    seed), merged into each of the result's divergences; unlabeled
    divergences carry ``seed=None``.
    """
    verified = shadow_indices(len(tasks), fraction, spec_key)
    TELEMETRY.inc("verify.shadow_chunks", len(verified))
    divergences: List[Dict[str, Any]] = []
    for t in verified:
        with TELEMETRY.span("shadow-verify", cat="verify", chunk=t,
                            reference=reference_name):
            want = list(reference_fn(*tasks[t]))
        got = list(chunk_results[t])
        labels = list(labels_of(t)) if labels_of is not None else []
        if len(got) != len(want):
            divergences.append({
                "chunk": t, "field": "__len__",
                "expected": len(want), "got": len(got),
            })
            continue
        for k, (g, w) in enumerate(zip(got, want)):
            label = labels[k] if k < len(labels) else {"seed": None}
            divergences.extend(
                {"chunk": t, **label, **d}
                for d in compare_reports(g, w, rtol=rtol, atol=atol)
            )
    if divergences:
        TELEMETRY.inc("verify.shadow_divergences", len(divergences))
        exc = InvariantViolation(
            "shadow_divergence", divergences, spec_key=spec_key,
            context={"reference": reference_name},
        )
        if diagnostics_dir is not None:
            write_diagnostics_bundle(
                diagnostics_dir, "shadow_divergence", spec=spec,
                spec_key=spec_key, chunk_id=divergences[0].get("chunk"),
                details=divergences, error=exc,
            )
        raise exc
    return verification_block(fraction, len(tasks), verified, divergences,
                              reference_name)


def verification_block(
    fraction: float,
    n_units: int,
    verified: Sequence[int],
    divergences: Sequence[Dict[str, Any]],
    reference: str,
) -> Dict[str, Any]:
    """The ``verification`` entry of a sweep's execution metadata."""
    return {
        "fraction": float(fraction),
        "n_chunks": int(n_units),
        "verified_chunks": [int(i) for i in verified],
        "n_verified": len(verified),
        "reference": str(reference),
        "n_divergences": len(divergences),
        "divergences": list(divergences),
    }


def merge_verification_blocks(
    executions: Sequence[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Fold the ``verification`` blocks of several sweeps into one.

    Experiments such as fig2 and variation drive more than one
    :class:`~repro.runtime.sweep.SweepRunner` sweep per invocation; the
    CLI summary line wants a single block covering all of them.
    """
    blocks = [
        exe["verification"] for exe in executions
        if exe and exe.get("verification")
    ]
    if not blocks:
        return None
    references = []
    for block in blocks:
        for reference in block["reference"].split(" + "):
            if reference not in references:
                references.append(reference)
    return {
        "fraction": blocks[0]["fraction"],
        "n_chunks": sum(b["n_chunks"] for b in blocks),
        "verified_chunks": [i for b in blocks for i in b["verified_chunks"]],
        "n_verified": sum(b["n_verified"] for b in blocks),
        "reference": " + ".join(references),
        "n_divergences": sum(b["n_divergences"] for b in blocks),
        "divergences": [d for b in blocks for d in b["divergences"]],
    }


# --------------------------------------------------------------------- #
# diagnostics bundles
# --------------------------------------------------------------------- #


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion: reprs for anything non-serializable."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def write_diagnostics_bundle(
    directory: Union[str, Path],
    kind: str,
    spec: Any = None,
    spec_key: Optional[str] = None,
    seed: Optional[int] = None,
    chunk_id: Optional[int] = None,
    details: Optional[Sequence[Dict[str, Any]]] = None,
    events: Optional[Sequence[Dict[str, Any]]] = None,
    error: Optional[BaseException] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a minimal-repro JSON bundle for one failure.

    Everything needed to replay the failing unit from one file: the
    sweep spec (repr — specs are eval-able dataclasses), its hash, the
    replication seed, the chunk id, the field-level divergence/violation
    details, and the executor's resilience event log.  Returns the
    bundle path (``repro_diag_<spec-hash>_<chunk>.json`` in
    ``directory``, which is created if missing).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bundle: Dict[str, Any] = {
        "kind": str(kind),
        "spec_key": spec_key,
        "seed": None if seed is None else int(seed),
        "chunk_id": None if chunk_id is None else int(chunk_id),
        "spec": None if spec is None else repr(spec),
        "details": list(details) if details is not None else [],
        "events": list(events) if events is not None else [],
        "error": None if error is None else repr(error),
    }
    if extra:
        bundle.update(extra)
    name = (
        f"repro_diag_{spec_key or 'nospec'}_"
        f"{'x' if chunk_id is None else int(chunk_id)}.json"
    )
    path = directory / name
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, default=_jsonable, sort_keys=True)
        fh.write("\n")
    return path


def bundle_for_exception(
    directory: Union[str, Path],
    exc: BaseException,
    spec: Any = None,
    spec_key: Optional[str] = None,
) -> Optional[Path]:
    """Write the diagnostics bundle matching a known failure type.

    Understands :class:`InvariantViolation` (field-level details, seed,
    context) and :class:`~repro.runtime.executor.ChunkExecutionError`
    (failing chunk index/spec, event log).  Returns the bundle path, or
    ``None`` for exception types without a bundle shape.
    """
    from .executor import ChunkExecutionError

    if isinstance(exc, InvariantViolation):
        return write_diagnostics_bundle(
            directory, "invariant_violation",
            spec=spec, spec_key=exc.spec_key or spec_key, seed=exc.seed,
            chunk_id=exc.context.get("chunk"),
            details=exc.details, error=exc,
            extra={"invariant": exc.invariant, "context": exc.context},
        )
    if isinstance(exc, ChunkExecutionError):
        return write_diagnostics_bundle(
            directory, "chunk_execution_error",
            spec=spec if spec is not None else exc.task,
            spec_key=spec_key, chunk_id=exc.chunk_index,
            events=exc.events, error=exc.__cause__ or exc,
            extra={"task": repr(exc.task)},
        )
    return None


# --------------------------------------------------------------------- #
# graceful interruption
# --------------------------------------------------------------------- #


class _InterruptSignal(BaseException):
    """Internal: a trapped SIGTERM surfacing at the next bytecode."""

    def __init__(self, signal_name: str) -> None:
        self.signal_name = signal_name
        super().__init__(signal_name)


@contextmanager
def trap_signals():
    """Convert SIGTERM into a catchable exception for the block's span.

    SIGINT already surfaces as :class:`KeyboardInterrupt`; SIGTERM's
    default disposition kills the process with no chance to flush a
    journal or tear a pool down.  Inside this context both arrive as
    exceptions the caller can turn into a clean
    :class:`SweepInterrupted`.  The previous handler is restored on
    exit; outside the main thread (where handlers cannot be installed)
    the context is a no-op and only SIGINT remains catchable.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise _InterruptSignal(signal.Signals(signum).name)

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextmanager
def sweep_interrupts(n_total: int, progress: Callable[[], int] = lambda: 0,
                     checkpoint: Optional[Union[str, Path]] = None):
    """Raise SIGINT (``KeyboardInterrupt``) or SIGTERM (trapped for the
    block's span) inside the block as :class:`SweepInterrupted`, with
    ``progress()`` of ``n_total`` chunks journaled.  Tearing down a pool
    is the block's own job."""
    try:
        with trap_signals():
            yield
    except (KeyboardInterrupt, _InterruptSignal) as exc:
        raise SweepInterrupted(
            getattr(exc, "signal_name", "SIGINT"), progress(), n_total,
            checkpoint=checkpoint,
        ) from None
