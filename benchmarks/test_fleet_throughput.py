"""Fleet throughput bench: vectorized fleet paths vs. scalar references,
plus the per-request fault-aware routing loop timed on its own.

The tentpole claims of the fleet subsystem, measured at N=64 replicas:

- ``fleet_kernel`` — routing one high-rate arrival stream across the
  fleet and evaluating every sub-trace on the vectorized busy-period
  kernel sustains >= 5x the request throughput of the scalar reference
  dispatcher (scalar routing loop + one
  :class:`~repro.sim.DPMSimulator` event loop per device).
- ``queue_aware_routing`` — the epoch-advance ``route_step_batch``
  path (a shared completion heap + a scan over per-device Python
  lists) assigns requests >= 5x faster than the scalar per-request
  reference loop for ``jsq`` (the ``power_aware`` rate is recorded
  alongside).

Both speedups are recorded here and enforced by
``check_bench_artifacts.py`` against ``SPEEDUP_BARS``, not asserted in
the test bodies: one wall-clock reading on a shared 2-core host can
dip below a bar the code clears.  Three further cases are recorded
only:

- ``fault_tolerant_routing`` — failover-only dispatch (seeded fault
  schedule + failover retries) through the fault-aware routing loop:
  its seconds (min of 3) and its retry/drop counts.
- ``overload_resilience`` — the full graceful-degradation stack
  (brownout-capable faults, circuit breakers, a fleet-wide retry
  budget, deadline-aware shedding) on the same loop: its seconds and
  counts, with the degradation machinery demonstrably exercised
  (trips, retries, and budget sheds all non-zero).  The loop's
  outcomes are pinned by tests/test_fleet_overload_replay.py.
- ``fleet_sweep`` — the (fleet size x router x policy) sweep at 1 and
  2 jobs (speedup needs real cores).

Numbers are recorded into ``BENCH_fleet.json`` at the repo root
(sibling of ``BENCH_engine.json`` / ``BENCH_sim.json``), with host
metadata so artifacts from different CI runners are comparable.  None
of the cases is slow-marked: a ``-m "not slow"`` CI run still produces
the full artifact.
"""

from __future__ import annotations

import json
import time

import numpy as np

from _bench_util import REPO_ROOT, SPEEDUP_BARS, record_bench
from repro.baselines import AlwaysOn, FixedTimeout, OracleShutdown
from repro.device import get_preset
from repro.fleet import (
    BreakerConfig,
    Dispatcher,
    FailoverConfig,
    FleetSweepRunner,
    FleetSweepSpec,
    OverloadConfig,
    RetryBudgetConfig,
    make_router,
    run_fleet,
)
from repro.runtime import PolicySpec, TraceSpec
from repro.workload import Exponential, FaultProcess, renewal_trace

BENCH_PATH = REPO_ROOT / "BENCH_fleet.json"
BARS = SPEEDUP_BARS["BENCH_fleet.json"]

DEVICE = "mobile_hdd"
SERVICE_TIME = 0.4
N_DEVICES = 64
RATE = 2.0            #: fleet-wide requests/sec shared by the replicas
DURATION = 8_000.0    #: ~16k expected requests, ~250 per device


def _fleet_trace():
    trace = renewal_trace(Exponential(RATE), DURATION, np.random.default_rng(13))
    assert len(trace) >= 10_000, "bench trace must carry >= 10k requests"
    return trace


def _requests_per_sec(trace, engine: str, repeats: int = 1) -> float:
    device = get_preset(DEVICE)
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        report = run_fleet(
            device, FixedTimeout(), trace, make_router("round_robin"),
            N_DEVICES, service_time=SERVICE_TIME, route_seed=1, engine=engine,
        )
        elapsed = time.perf_counter() - start
        assert report.n_requests == len(trace)
        best = max(best, len(trace) / elapsed)
    return best


def test_fleet_vectorized_speedup():
    """Vectorized fleet vs. the scalar loop at N=64 devices (its 5x bar
    is checked on the artifact)."""
    trace = _fleet_trace()
    scalar = _requests_per_sec(trace, "scalar")
    vectorized = _requests_per_sec(trace, "auto", repeats=3)
    speedup = vectorized / scalar
    print()
    print(f"scalar fleet (64 event loops): {scalar:12,.0f} requests/sec")
    print(f"vectorized fleet path:         {vectorized:12,.0f} requests/sec "
          f"({speedup:,.0f}x)")
    record_bench(BENCH_PATH, "fleet_kernel", {
        "device": DEVICE,
        "n_devices": N_DEVICES,
        "router": "round_robin",
        "policy": "timeout_break_even",
        "n_requests": len(trace),
        "trace_duration": DURATION,
        "scalar_requests_per_sec": scalar,
        "vectorized_requests_per_sec": vectorized,
        "speedup": speedup,
    })


def _route_seconds(router_name: str, trace, vectorized: bool,
                   repeats: int = 1) -> float:
    dispatcher = Dispatcher(
        router_name, N_DEVICES, get_preset(DEVICE),
        service_time=SERVICE_TIME, seed=7,
    )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = dispatcher.assignments(trace, vectorized=vectorized)
        best = min(best, time.perf_counter() - start)
        assert out.size == len(trace)
    return best


def test_queue_aware_routing_speedup():
    """Epoch-advance routing vs. the scalar reference loop for jsq at
    N=64 (power_aware recorded alongside; the 5x jsq bar is checked on
    the artifact) — with bit-identical assignments."""
    trace = _fleet_trace()
    timings = {}
    for name in ("jsq", "power_aware"):
        dispatcher = Dispatcher(name, N_DEVICES, get_preset(DEVICE),
                                service_time=SERVICE_TIME, seed=7)
        assert np.array_equal(
            dispatcher.assignments(trace, vectorized=True),
            dispatcher.assignments(trace, vectorized=False),
        ), f"{name}: epoch path diverged from the scalar reference"
        scalar = _route_seconds(name, trace, vectorized=False)
        stepped = _route_seconds(name, trace, vectorized=True, repeats=3)
        timings[name] = (scalar, stepped, scalar / stepped)
    print()
    for name, (scalar, stepped, speedup) in timings.items():
        print(f"{name:12s} scalar route: {scalar:6.3f}s   "
              f"epoch-advance: {stepped:6.3f}s   ({speedup:,.1f}x)")
    jsq_speedup = timings["jsq"][2]
    record_bench(BENCH_PATH, "queue_aware_routing", {
        "device": DEVICE,
        "n_devices": N_DEVICES,
        "n_requests": len(trace),
        "jsq_scalar_seconds": timings["jsq"][0],
        "jsq_step_seconds": timings["jsq"][1],
        "power_aware_scalar_seconds": timings["power_aware"][0],
        "power_aware_step_seconds": timings["power_aware"][1],
        "power_aware_speedup": timings["power_aware"][2],
        "speedup": jsq_speedup,
    })


def _min_seconds(route, repeats: int = 3):
    """``(best seconds, outcome)`` of ``repeats`` calls of ``route``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _, outcome = route()
        best = min(best, time.perf_counter() - start)
    return best, outcome


def test_fault_tolerant_routing():
    """Failover-only routing through the fault-aware loop at N=64:
    seconds and counts recorded."""
    trace = _fleet_trace()
    faults = FaultProcess(mtbf=2_000.0, mttr=200.0)
    dispatcher = Dispatcher("jsq", N_DEVICES, get_preset(DEVICE),
                            service_time=SERVICE_TIME, seed=7)
    seconds, out = _min_seconds(lambda: dispatcher.dispatch_with_faults(
        trace, faults, fault_seed=5,
    ))
    assert out.n_retries > 0

    print()
    print(f"fault-tolerant routing (jsq, {len(trace):,} requests, "
          f"{out.n_retries} retries, {out.n_dropped} drops): "
          f"{seconds:.3f}s")
    record_bench(BENCH_PATH, "fault_tolerant_routing", {
        "device": DEVICE,
        "n_devices": N_DEVICES,
        "router": "jsq",
        "mtbf": 2_000.0,
        "mttr": 200.0,
        "n_requests": len(trace),
        "n_retries": int(out.n_retries),
        "n_dropped": int(out.n_dropped),
        "seconds": seconds,
    })


def test_overload_resilience():
    """The graceful-degradation stack at N=64 with breakers, a tight
    retry budget, and deadlines all armed: seconds and counts recorded.
    The scenario must actually exercise them (trips, retries, and
    budget sheds > 0), or the bench times a no-op."""
    trace = _fleet_trace()
    faults = FaultProcess(mtbf=500.0, mttr=120.0)
    config = OverloadConfig(
        failover=FailoverConfig(max_retries=3, backoff_base=0.25,
                                backoff_cap=2.0),
        breaker=BreakerConfig(failure_threshold=3, recovery_time=30.0,
                              latency_threshold=2.0),
        retry_budget=RetryBudgetConfig(capacity=8.0, refill_rate=0.02),
        slo=4.0,
    )
    dispatcher = Dispatcher("jsq", N_DEVICES, get_preset(DEVICE),
                            service_time=SERVICE_TIME, seed=7)
    seconds, out = _min_seconds(lambda: dispatcher.dispatch_with_overload(
        trace, faults, config, fault_seed=5,
    ))
    # the degradation machinery must be live, not configured away
    assert out.n_breaker_trips > 0
    assert out.n_retries > 0
    assert out.n_budget_shed > 0

    print()
    print(f"overload routing (jsq, {len(trace):,} requests, "
          f"{out.n_breaker_trips} trips, {out.n_shed} shed, "
          f"goodput {out.goodput:.4f}): {seconds:.3f}s")
    record_bench(BENCH_PATH, "overload_resilience", {
        "device": DEVICE,
        "n_devices": N_DEVICES,
        "router": "jsq",
        "mtbf": 500.0,
        "mttr": 120.0,
        "slo": 4.0,
        "n_requests": len(trace),
        "n_retries": int(out.n_retries),
        "n_shed": int(out.n_shed),
        "n_budget_shed": int(out.n_budget_shed),
        "n_breaker_trips": int(out.n_breaker_trips),
        "goodput": float(out.goodput),
        "seconds": seconds,
    })


def _sweep_seconds(n_jobs: int, spec: FleetSweepSpec):
    runner = FleetSweepRunner(chunk_size=2, n_jobs=n_jobs)
    start = time.perf_counter()
    result = runner.run(spec)
    return time.perf_counter() - start, result.execution


def test_fleet_sweep_sharded_timings():
    """Wall-clock of the (fleet x router x policy) sweep at 1 and 2 jobs.

    Recorded, not asserted: speedup needs real cores, and the reference
    container has one.  The artifact still tracks the trajectory — and
    since PR 5 the runner may *degrade* the 2-job request to in-process
    execution (single-core host / tiny chunks); the recorded decision
    says which configuration actually ran.
    """
    spec = FleetSweepSpec(
        device=DEVICE,
        fleet_sizes=(4, 16),
        routers=("round_robin", "power_aware"),
        policies=(
            PolicySpec("always_on", AlwaysOn()),
            PolicySpec("timeout", FixedTimeout()),
            PolicySpec("oracle", OracleShutdown(), oracle=True),
        ),
        trace=TraceSpec("exp", Exponential(1.0), 2_000.0),
        n_traces=8,
        seed=3,
        service_time=SERVICE_TIME,
    )
    serial, _ = _sweep_seconds(1, spec)
    sharded, execution = _sweep_seconds(2, spec)
    n_cells = len(spec.fleet_sizes) * len(spec.routers) * len(spec.policies)
    print()
    print(f"fleet sweep ({n_cells} cells x {spec.n_traces} traces): "
          f"serial {serial:.2f}s vs 2 jobs {sharded:.2f}s "
          f"({serial / sharded:.2f}x, decision={execution['decision']})")
    record_bench(BENCH_PATH, "fleet_sweep", {
        "n_cells": n_cells,
        "n_traces": spec.n_traces,
        "trace_duration": 2_000.0,
        "serial_seconds": serial,
        "jobs2_seconds": sharded,
        "speedup": serial / sharded,
        "jobs2_decision": execution["decision"],
        "jobs2_effective": execution["n_jobs_effective"],
    })
    assert serial > 0 and sharded > 0


def test_bench_fleet_artifact_shape():
    """The artifact the CI bench job gates on: expected top-level keys,
    and a recorded speedup for every barred section."""
    assert BENCH_PATH.exists()
    data = json.loads(BENCH_PATH.read_text())
    for key in ("host", "fleet_kernel", "queue_aware_routing",
                "fault_tolerant_routing", "overload_resilience",
                "fleet_sweep"):
        assert key in data, f"BENCH_fleet.json missing {key!r}"
    for section in BARS:
        assert isinstance(data[section]["speedup"], float), section
