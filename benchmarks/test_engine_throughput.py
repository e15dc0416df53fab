"""Engine throughput bench: scalar vs batched vs sharded slots/sec.

The tentpole claims of the vectorized + sharded runtime, measured:

- training B independent Q-DPM seeds lock-step on
  :class:`~repro.runtime.BatchedQDPM` sustains >= 5x the
  replica-slots/sec of the scalar :class:`~repro.core.QDPM` loop at
  B = 64, with every replica bit-for-bit its scalar twin, and B = 128
  beats B = 32 (both checked on the recorded artifact by
  ``check_bench_artifacts.py``, not asserted here).  The scalar loop
  is the one the sweep runs below the crossover: ``QDPM`` with
  ``FixedDrawEpsilonGreedy``;
- sharding a multi-chunk sweep across 4 worker processes
  (``SweepRunner(n_jobs=4)``) sustains >= 2x the wall-clock throughput
  of the serial chunk loop on a >= 4-core host (checked on the
  artifact only when it was recorded on one).

Every case records its numbers into ``BENCH_engine.json`` at the repo
root (read-modify-write, so cases compose across pytest invocations),
giving the perf trajectory a machine-readable artifact per PR instead
of living only in pytest output.  The quick snapshot case is *not*
marked slow, so a ``-m "not slow"`` CI run still produces the artifact.

Deselect with ``-m "not slow"`` for a quick suite run.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from _bench_util import REPO_ROOT, record_bench
from check_bench_artifacts import EXPECTED_KEYS, check_artifacts
from repro.core import QDPM, FixedDrawEpsilonGreedy
from repro.device import abstract_three_state
from repro.env import SlottedDPMEnv
from repro.runtime import BatchedQDPM, BatchedSlottedEnv, RolloutSpec, SweepRunner
from repro.runtime.telemetry import TELEMETRY
from repro.workload import ConstantRate

N_SLOTS = 20_000
ENV_KW = dict(queue_capacity=8, p_serve=0.9)

BENCH_PATH = REPO_ROOT / "BENCH_engine.json"


def _record_bench(section: str, payload: dict) -> None:
    """Merge one section (plus host metadata) into the perf artifact."""
    record_bench(BENCH_PATH, section, payload)


def _scalar_slots_per_sec(n_slots: int = N_SLOTS, repeats: int = 3) -> float:
    """Best-of-N scalar training throughput (one seed) on the stack that
    ``run_chunk`` runs below the crossover: ``QDPM`` with
    ``FixedDrawEpsilonGreedy``, each seed a batched replica's twin."""
    best = 0.0
    for _ in range(repeats):
        env = SlottedDPMEnv(
            abstract_three_state(), ConstantRate(0.15), seed=0, **ENV_KW
        )
        controller = QDPM(env, epsilon=0.08, seed=1,
                          exploration=FixedDrawEpsilonGreedy(0.08))
        start = time.perf_counter()
        controller.run(n_slots, record_every=n_slots)
        best = max(best, n_slots / (time.perf_counter() - start))
    return best


def _batched_slots_per_sec(n_replicas: int, n_slots: int = N_SLOTS) -> float:
    """Batched training throughput in replica-slots/sec."""
    env = BatchedSlottedEnv(
        abstract_three_state(), ConstantRate(0.15), n_replicas=n_replicas,
        seeds=0, **ENV_KW,
    )
    driver = BatchedQDPM(env, epsilon=0.08, seed=1)
    start = time.perf_counter()
    driver.run(n_slots, record_every=n_slots)
    return n_slots * n_replicas / (time.perf_counter() - start)


def _sweep_spec(n_slots: int) -> RolloutSpec:
    return RolloutSpec(
        schedule=ConstantRate(0.15), n_slots=n_slots, record_every=n_slots,
        epsilon=0.08, **ENV_KW,
    )


def _sweep_seconds(n_jobs: int, n_seeds: int, batch_size: int,
                   n_slots: int) -> float:
    """Wall-clock of one multi-chunk sweep at a given job count."""
    runner = SweepRunner(batch_size=batch_size, n_jobs=n_jobs)
    start = time.perf_counter()
    runner.run_many(_sweep_spec(n_slots), seeds=list(range(n_seeds)))
    return time.perf_counter() - start


@pytest.mark.slow
def test_engine_throughput():
    scalar = _scalar_slots_per_sec()
    print()
    print(f"scalar QDPM:                {scalar:12,.0f} slots/sec")
    results = {}
    for b in (32, 64, 128):
        sps = _batched_slots_per_sec(b)
        results[b] = sps
        print(
            f"batched B={b:3d}: {sps:12,.0f} "
            f"replica-slots/sec ({sps / scalar:5.1f}x)"
        )
    # the acceptance bar (>= 5x scalar at B = 64) and monotone scaling
    # (B = 128 above B = 32) are checked on the artifact, not here
    _record_bench("engine_throughput", {
        "n_slots": N_SLOTS,
        "scalar_slots_per_sec": scalar,
        "batched_replica_slots_per_sec": {
            f"replica_B{b}": sps for b, sps in results.items()
        },
        "speedup": results[64] / scalar,
    })


@pytest.mark.slow
def test_sharded_sweep_speedup():
    """Sharding a multi-chunk sweep across 4 processes >= 2x serial.

    16 seeds x batch 4 = 4 independent chunks; at ``n_jobs = 4`` each
    worker owns one chunk, so ideal scaling is ~4x and the bar is a
    conservative 2x.  It needs real cores, so ``check_bench_artifacts.py``
    applies it to the recorded speedup only when the recording host has
    at least 4.
    """
    n_cores = os.cpu_count() or 1
    n_seeds, batch_size, n_slots = 16, 4, 8_000
    serial = _sweep_seconds(1, n_seeds, batch_size, n_slots)
    sharded = _sweep_seconds(4, n_seeds, batch_size, n_slots)
    speedup = serial / sharded
    print()
    print(
        f"sweep {n_seeds} seeds x {n_slots} slots (batch {batch_size}): "
        f"serial {serial:.2f}s vs 4 jobs {sharded:.2f}s ({speedup:.2f}x, "
        f"{n_cores} cores)"
    )
    _record_bench("sharded_sweep", {
        "n_seeds": n_seeds,
        "batch_size": batch_size,
        "n_slots": n_slots,
        "serial_seconds": serial,
        "jobs4_seconds": sharded,
        "speedup": speedup,
    })
    # the 2x bar is checked on the artifact, on hosts with >= 4 cores


#: every instrumentation entry point of the telemetry singleton
_TELEMETRY_CALLS = ("span", "instant", "inc", "gauge", "observe",
                    "resilience_event", "metrics_scope",
                    "progress_reporter")


def _telemetry_calls(spec: RolloutSpec, n_seeds: int,
                     batch_size: int) -> int:
    """Instrumentation calls made by one serial traced ``run_many``."""
    calls = [0]

    def counting(original):
        def call(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        return call

    TELEMETRY.reset()
    TELEMETRY.enable_tracing()
    try:
        for name in _TELEMETRY_CALLS:
            setattr(TELEMETRY, name, counting(getattr(TELEMETRY, name)))
        SweepRunner(batch_size=batch_size).run_many(spec, range(n_seeds))
    finally:
        for name in _TELEMETRY_CALLS:
            delattr(TELEMETRY, name)
        TELEMETRY.reset()
    return calls[0]


def test_telemetry_overhead():
    """Telemetry is instrumented per *chunk*, never per slot.

    The assertion is deterministic: with tracing on, every
    instrumentation call of a serial sweep is counted.  The count must
    not depend on the horizon, and must grow linearly with the number of
    chunks.  Per-chunk instrumentation keeps telemetry (nearly) free at
    any horizon; wall-clock bars on a shared host were too noisy to
    gate on.

    The timed A/B is still recorded into the artifact (not asserted),
    min-of-N each, for the same serial multi-chunk sweep.  Each repeat
    runs all three variants back to back, so host drift over the
    measurement lands on every variant alike:

    - **baseline** — every instrumentation point stubbed to a no-op on
      the singleton, approximating the pre-telemetry runtime;
    - **disabled** — the shipped default (tracing off, counting metrics
      on);
    - **enabled** — tracing on: span records and buffer appends.
    """
    short, long_ = _sweep_spec(200), _sweep_spec(2_000)
    assert _telemetry_calls(short, 4, 2) == _telemetry_calls(long_, 4, 2)
    one, two, four = (_telemetry_calls(short, 2 * k, 2) for k in (1, 2, 4))
    assert two > one
    assert four - two == 2 * (two - one), (one, two, four)
    per_chunk = two - one

    n_seeds, batch_size, n_slots, repeats = 4, 2, 4_000, 5
    spec = _sweep_spec(n_slots)
    runner = SweepRunner(batch_size=batch_size)
    seeds = list(range(n_seeds))

    def disabled_seconds() -> float:
        start = time.perf_counter()
        runner.run_many(spec, seeds)
        return time.perf_counter() - start

    TELEMETRY.reset()
    null_span = TELEMETRY.span("off")  # the shared no-op handle
    stubs = {
        "span": lambda *a, **k: null_span,
        "instant": lambda *a, **k: None,
        "inc": lambda *a, **k: None,
        "gauge": lambda *a, **k: None,
        "observe": lambda *a, **k: None,
        "resilience_event": lambda payload: payload,
    }

    def baseline_seconds() -> float:
        try:
            for name, stub in stubs.items():
                setattr(TELEMETRY, name, stub)
            return disabled_seconds()
        finally:
            for name in stubs:
                delattr(TELEMETRY, name)

    def enabled_seconds() -> float:
        TELEMETRY.enable_tracing()
        try:
            return disabled_seconds()
        finally:
            TELEMETRY.reset()

    variants = {"baseline": baseline_seconds, "disabled": disabled_seconds,
                "enabled": enabled_seconds}
    best = dict.fromkeys(variants, float("inf"))
    for _ in range(repeats):
        for name, seconds in variants.items():
            best[name] = min(best[name], seconds())
    baseline, disabled, enabled = (best[name] for name in variants)

    disabled_overhead = disabled / baseline - 1.0
    enabled_overhead = enabled / baseline - 1.0
    print()
    print(
        f"telemetry: {per_chunk} instrumentation calls per chunk; "
        f"overhead ({n_seeds} seeds x {n_slots} slots, batch "
        f"{batch_size}): baseline {baseline * 1e3:.1f}ms, disabled "
        f"{disabled * 1e3:.1f}ms ({disabled_overhead:+.2%}), enabled "
        f"{enabled * 1e3:.1f}ms ({enabled_overhead:+.2%})"
    )
    _record_bench("telemetry_overhead", {
        "n_seeds": n_seeds,
        "batch_size": batch_size,
        "n_slots": n_slots,
        "calls_per_chunk": per_chunk,
        "baseline_seconds": baseline,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
    })


def test_quick_throughput_snapshot():
    """Small, assertion-light snapshot so a ``-m "not slow"`` run (the CI
    bench job) still writes the ``BENCH_engine.json`` artifact."""
    n_slots = 2_000
    scalar = _scalar_slots_per_sec(n_slots=n_slots, repeats=1)
    batched = _batched_slots_per_sec(16, n_slots=n_slots)
    serial = _sweep_seconds(1, n_seeds=4, batch_size=2, n_slots=n_slots)
    sharded = _sweep_seconds(2, n_seeds=4, batch_size=2, n_slots=n_slots)
    _record_bench("quick_snapshot", {
        "n_slots": n_slots,
        "scalar_slots_per_sec": scalar,
        "batched_replica_B16_replica_slots_per_sec": batched,
        "sweep_serial_seconds": serial,
        "sweep_jobs2_seconds": sharded,
    })
    assert scalar > 0 and batched > 0
    assert BENCH_PATH.exists()
    data = json.loads(BENCH_PATH.read_text())
    assert "quick_snapshot" in data and "cpu_count" in data
    # host metadata makes artifacts from different runners comparable
    host = data["host"]
    assert host["platform"] and host["python_version"] and host["timestamp_utc"]


@pytest.mark.parametrize("cores, speedup, failed", [
    (2, 1.4, False), (4, 1.4, True), (4, 2.1, False), (8, 1.9, True),
])
def test_sharded_bar_is_checked_on_the_artifact(tmp_path, cores, speedup,
                                                failed):
    """The sharded sweep's 2x bar lives in the artifact checker and
    applies only to speedups recorded on a host with >= 4 cores."""
    for name, keys in EXPECTED_KEYS.items():
        data = {key: {"speedup": 10.0} for key in keys}
        data["host"] = {"cpu_count": cores}
        if name == BENCH_PATH.name:
            data["engine_throughput"]["batched_replica_slots_per_sec"] = {
                "replica_B32": 1.0, "replica_B128": 2.0}
            data["sharded_sweep"] = {"speedup": speedup}
        (tmp_path / name).write_text(json.dumps(data))
    problems = check_artifacts(tmp_path)
    assert bool(problems) == failed
    assert all("sharded_sweep" in p for p in problems)
