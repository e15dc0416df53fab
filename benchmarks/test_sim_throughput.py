"""Event-sim throughput bench: scalar event loop vs. vectorized engines.

The tentpole claims of the vectorized event-driven runtime, measured:

- on a >= 10k-request Poisson trace with a break-even timeout policy,
  the busy-period kernel (:mod:`repro.runtime.eventsim`) sustains >= 5x
  the request throughput of the scalar :class:`~repro.sim.DPMSimulator`
  event loop (measured ~100-800x — the bar is deliberately
  conservative);
- for the *stateful* adaptive-timeout baseline, the lock-step
  cross-replication engine (:func:`~repro.runtime.run_step_batched`) at
  R = 64 seeded replications sustains >= 5x the scalar loop's request
  throughput (measured ~15x — the replication axis is the only
  batchable one for stateful policies, and the scalar loop is
  comparatively quick here because short replication traces keep its
  event heap small).

A further case times the sharded (device x trace x policy) sweep
(:class:`~repro.runtime.SimSweepRunner`) at 1 and 2 jobs.

Numbers are recorded into ``BENCH_sim.json`` at the repo root (sibling
of ``BENCH_engine.json``), with host metadata so artifacts from
different CI runners are comparable.  None of the cases is slow-marked:
a ``-m "not slow"`` CI run still produces the full artifact, and
``check_bench_artifacts.py`` gates CI on the recorded speedups staying
above their bars (``SPEEDUP_BARS``).  The test bodies record the
speedups without asserting the bars: one wall-clock reading on a shared
2-core host can dip below a bar the code clears.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from _bench_util import REPO_ROOT, SPEEDUP_BARS, record_bench
from repro.baselines import (
    AdaptiveTimeout,
    AlwaysOn,
    FixedTimeout,
    GreedySleep,
    OracleShutdown,
)
from repro.device import get_preset
from repro.runtime import (
    PolicySpec,
    SimSweepRunner,
    SimSweepSpec,
    TraceSpec,
    run_step_batched,
    run_vectorized,
)
from repro.sim import DPMSimulator
from repro.workload import Exponential, renewal_trace

BENCH_PATH = REPO_ROOT / "BENCH_sim.json"
BARS = SPEEDUP_BARS["BENCH_sim.json"]

DEVICE = "mobile_hdd"
SERVICE_TIME = 0.4
RATE = 0.05
DURATION = 220_000.0  # ~11k expected requests at rate 0.05


def _poisson_trace():
    trace = renewal_trace(Exponential(RATE), DURATION, np.random.default_rng(11))
    assert len(trace) >= 10_000, "bench trace must carry >= 10k requests"
    return trace


def _scalar_requests_per_sec(trace) -> float:
    sim = DPMSimulator(get_preset(DEVICE), FixedTimeout(),
                       service_time=SERVICE_TIME)
    start = time.perf_counter()
    sim.run(trace)
    return len(trace) / (time.perf_counter() - start)


def _vectorized_requests_per_sec(trace, repeats: int = 3) -> float:
    device = get_preset(DEVICE)
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        report = run_vectorized(device, FixedTimeout(), trace,
                                service_time=SERVICE_TIME)
        elapsed = time.perf_counter() - start
        assert report is not None, "timeout policy must ride the kernel"
        best = max(best, len(trace) / elapsed)
    return best


def test_event_sim_kernel_speedup():
    """Vectorized kernel vs. the scalar loop on >= 10k requests (its 5x
    bar is checked on the artifact)."""
    trace = _poisson_trace()
    scalar = _scalar_requests_per_sec(trace)
    vectorized = _vectorized_requests_per_sec(trace)
    speedup = vectorized / scalar
    print()
    print(f"scalar event loop:   {scalar:12,.0f} requests/sec")
    print(f"vectorized kernel:   {vectorized:12,.0f} requests/sec "
          f"({speedup:,.0f}x)")
    record_bench(BENCH_PATH, "event_sim_kernel", {
        "device": DEVICE,
        "n_requests": len(trace),
        "trace_duration": DURATION,
        "policy": "timeout_break_even",
        "scalar_requests_per_sec": scalar,
        "vectorized_requests_per_sec": vectorized,
        "speedup": speedup,
    })


STATEFUL_R = 64                  #: replication count of the lock-step case
STATEFUL_DURATION = 8_000.0      #: ~400 expected requests per replication


def _stateful_traces():
    traces = [
        renewal_trace(Exponential(RATE), STATEFUL_DURATION,
                      np.random.default_rng(500 + i))
        for i in range(STATEFUL_R)
    ]
    assert sum(len(t) for t in traces) >= 20_000
    return traces


def test_stateful_batch_speedup():
    """Lock-step engine vs. the scalar event loop on R = 64
    adaptive-timeout replications (its 5x bar is checked on the
    artifact)."""
    device = get_preset(DEVICE)
    traces = _stateful_traces()
    n_requests = sum(len(t) for t in traces)

    start = time.perf_counter()
    for trace in traces:
        DPMSimulator(device, AdaptiveTimeout(initial_timeout=2.0),
                     service_time=SERVICE_TIME).run(trace)
    scalar = n_requests / (time.perf_counter() - start)

    batched = 0.0
    for _ in range(3):
        start = time.perf_counter()
        reports = run_step_batched(
            device, AdaptiveTimeout(initial_timeout=2.0), traces,
            service_time=SERVICE_TIME,
        )
        elapsed = time.perf_counter() - start
        assert reports is not None, "adaptive must ride the lock-step engine"
        batched = max(batched, n_requests / elapsed)

    speedup = batched / scalar
    print()
    print(f"scalar event loop:   {scalar:12,.0f} requests/sec")
    print(f"lock-step batched:   {batched:12,.0f} requests/sec "
          f"({speedup:,.0f}x at R={STATEFUL_R})")
    record_bench(BENCH_PATH, "stateful_batch", {
        "device": DEVICE,
        "policy": "adaptive_timeout",
        "n_replications": STATEFUL_R,
        "n_requests_total": n_requests,
        "trace_duration": STATEFUL_DURATION,
        "scalar_requests_per_sec": scalar,
        "batched_requests_per_sec": batched,
        "speedup": speedup,
    })


def _sweep_seconds(n_jobs: int, spec: SimSweepSpec):
    runner = SimSweepRunner(chunk_size=2, n_jobs=n_jobs)
    start = time.perf_counter()
    result = runner.run(spec)
    return time.perf_counter() - start, result.execution


def test_sim_sweep_sharded_timings():
    """Wall-clock of the (device x trace x policy) sweep at 1 and 2 jobs.

    Recorded, not asserted: speedup needs real cores, and the reference
    container has one.  The artifact still tracks the trajectory — and
    since PR 5 the runner may *degrade* the 2-job request to in-process
    execution (single-core host / tiny chunks); the recorded decision
    says which configuration actually ran.
    """
    spec = SimSweepSpec(
        devices=("mobile_hdd", "wlan"),
        traces=(TraceSpec("exp", Exponential(RATE), 20_000.0),),
        policies=(
            PolicySpec("always_on", AlwaysOn()),
            PolicySpec("greedy", GreedySleep()),
            PolicySpec("timeout", FixedTimeout()),
            PolicySpec("oracle", OracleShutdown(), oracle=True),
        ),
        n_traces=8,
        seed=3,
        service_time=SERVICE_TIME,
    )
    serial, _ = _sweep_seconds(1, spec)
    sharded, execution = _sweep_seconds(2, spec)
    print()
    n_cells = len(spec.devices) * len(spec.traces) * len(spec.policies)
    print(f"sim sweep ({n_cells} cells x {spec.n_traces} traces): "
          f"serial {serial:.2f}s vs 2 jobs {sharded:.2f}s "
          f"({serial / sharded:.2f}x, decision={execution['decision']})")
    record_bench(BENCH_PATH, "sim_sweep", {
        "n_cells": len(spec.devices) * len(spec.traces) * len(spec.policies),
        "n_traces": spec.n_traces,
        "trace_duration": 20_000.0,
        "serial_seconds": serial,
        "jobs2_seconds": sharded,
        "speedup": serial / sharded,
        "jobs2_decision": execution["decision"],
        "jobs2_effective": execution["n_jobs_effective"],
    })
    assert serial > 0 and sharded > 0


def test_bench_sim_artifact_shape():
    """The artifact the CI bench job gates on: expected top-level keys,
    and a recorded speedup for every barred section."""
    assert BENCH_PATH.exists()
    data = json.loads(BENCH_PATH.read_text())
    for key in ("host", "event_sim_kernel", "stateful_batch", "sim_sweep"):
        assert key in data, f"BENCH_sim.json missing {key!r}"
    for section in BARS:
        assert isinstance(data[section]["speedup"], float), section
