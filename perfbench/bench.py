"""Measure one workload and print its metrics as one JSON line.

One run: build the workload's configs from the seed; a warm-up iteration
that checks the simulated results (against the pinned fingerprint when
the seed has one, and always through the runners' always-on invariants
and sampled shadow run against the scalar reference); timed iterations
for ``--seconds``, each compared with the checked results outside its
timed section; then the set-up probes.  Times are CPU seconds (see
:func:`~perfbench.workloads.cpu_seconds`) scaled to the reference host's
speed (see :mod:`perfbench.hostspeed`), and each metric is the median
over the run's iterations or probes.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics, timed by the wall
clock, instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.telemetry import TELEMETRY

from . import layers
from .hostspeed import SpeedSampler, pin_to_one_core
from .workloads import (REL_TOL, WORKLOADS, Recorder, Workload, cpu_seconds,
                        failed_units)

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
PINNED = Path(__file__).resolve().parent / "fingerprints.json"
#: set-up probes per run
SETUP_PROBES = 5
#: fewest timed rounds per run, whatever ``--seconds`` says
MIN_ROUNDS = 3


def run_iteration(calls, recorder: Recorder,
                  tracer: Optional[layers.LayerTracer] = None) -> float:
    """Run and render every experiment call; returns the wall seconds."""
    recorder.begin()
    start = time.perf_counter()
    for entry, config in calls:
        result = entry(config)
        if tracer is None:
            result.render()
        else:
            tracer.wrap("analysis.render", result.render)()
    return time.perf_counter() - start


def scaled_iteration(calls, recorder: Recorder,
                     speed: SpeedSampler) -> Tuple[float, float, float]:
    """Run and render every experiment call; returns its CPU seconds as
    measured, then those of the whole and of the sweep runners in it at
    the reference speed."""
    since = speed.reading()
    start = cpu_seconds()
    run_iteration(calls, recorder)
    spent = cpu_seconds() - start
    scale = speed.factor(since)
    return spent, spent * scale, recorder.seconds * scale


def traced_iteration(calls, recorder: Recorder,
                     tracer: layers.LayerTracer) -> float:
    """:func:`run_iteration` with the layer wrappers and the program's
    own telemetry spans switched on (the executor needs the spans to
    ship worker counters home)."""
    tracer.install()
    was_tracing = TELEMETRY.tracing
    TELEMETRY.enable_tracing()
    try:
        return run_iteration(calls, recorder, tracer)
    finally:
        if not was_tracing:
            TELEMETRY.disable_tracing()
        tracer.restore()


def pinned_fingerprint(workload: str, seed: int) -> Optional[List[list]]:
    """The pinned fingerprint of ``workload`` if it was pinned at ``seed``."""
    if not PINNED.exists():
        return None
    entry = json.loads(PINNED.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["units"]


def pin(workload: Workload, seed: int) -> None:
    """Record the checked warm-up fingerprint of ``workload`` at ``seed``."""
    recorder = Recorder()
    with recorder.installed():
        run_iteration(workload.calls(seed, True), recorder)
    data = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    data[workload.name] = {"seed": seed, "units": recorder.fingerprint}
    lines = [f"{json.dumps(k)}: {json.dumps(data[k])}" for k in sorted(data)]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


class Tally:
    """Work units attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, got: List[list], want: List[list], rel: float) -> None:
        self.attempted += sum(n for _, n, _ in want)
        self.failed += failed_units(got, want, rel)

    def fail(self, want: List[list]) -> None:
        units = sum(n for _, n, _ in want)
        self.attempted += units
        self.failed += units


def check_jobs(workload: Workload, recorder: Recorder) -> None:
    """Raise unless every fleet sweep ran on the workload's worker count."""
    if any(jobs != workload.jobs for jobs in recorder.fleet_jobs):
        raise RuntimeError(
            f"{workload.name}: fleet sweeps ran on {recorder.fleet_jobs} "
            f"worker processes, expected {workload.jobs}")


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Warm up, check, and time iterations of ``workload``."""
    recorder = Recorder()
    tracer = layers.LayerTracer() if trace else None
    rel = REL_TOL[workload.kind]
    tally = Tally()
    cpus: List[float] = []
    raw: List[float] = []
    walls: List[float] = []
    rates: List[float] = []
    traced_walls: List[float] = []

    def one_round(calls, reference, speed) -> None:
        if speed is not None:
            spent, cpu, runner = scaled_iteration(calls, recorder, speed)
            raw.append(spent)
            cpus.append(cpu)
            rates.append(recorder.work / runner)
        else:
            walls.append(run_iteration(calls, recorder))
        check_jobs(workload, recorder)
        tally.check(recorder.fingerprint, reference, rel)
        if tracer is not None:
            traced_walls.append(traced_iteration(calls, recorder, tracer))
            check_jobs(workload, recorder)
            tally.check(recorder.fingerprint, reference, rel)

    with recorder.installed():
        run_iteration(workload.calls(seed, True), recorder)
        reference = recorder.fingerprint
        pinned = pinned_fingerprint(workload.name, seed)
        if pinned is not None:
            tally.check(reference, pinned, rel)
            reference = pinned
        calls = workload.calls(seed, False)
        TELEMETRY.tracer.reset()
        before = layers.counters()
        if not trace:
            # CPU seconds do not depend on how many cores run the work,
            # and the sampler tracks the speed of the core it shares
            pin_to_one_core()
        speed = None if trace else SpeedSampler()
        with speed or contextlib.nullcontext():
            start = time.perf_counter()
            rounds = 0
            while True:
                try:
                    one_round(calls, reference, speed)
                except Exception:
                    traceback.print_exc()
                    tally.fail(reference)
                    break
                rounds += 1
                elapsed = time.perf_counter() - start
                if (rounds >= MIN_ROUNDS
                        and elapsed * (rounds + 1) / rounds > seconds):
                    break
            # before the sampler ends: it is a child process too
            rss = peak_rss_mb()
    if not (traced_walls if trace else cpus):
        raise RuntimeError(f"{workload.name}: no iteration completed")
    result: Dict[str, Any] = {"tally": tally, "walls": walls, "cpus": cpus,
                              "raw_cpus": raw}
    if trace:
        busy = sum(r.dur_us for r in TELEMETRY.tracer.records()
                   if r.name == "worker-run") / 1e6
        after = layers.counters()
        delta = {k: v - before.get(k, 0.0) for k, v in after.items()
                 if v != before.get(k, 0.0)}
        result["metrics"] = layers.per_layer(
            delta, traced_walls, walls, busy,
            layers.pickled_bytes(tracer.pool_results))
        result["traced_walls"] = traced_walls
    else:
        result["metrics"] = {
            "cpu_s": statistics.median(cpus),
            "throughput": statistics.median(rates),
            "peak_rss_mb": rss,
        }
    return result


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child that
    has ended: the pool workers (the sampler process and the set-up
    probes end later)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median CPU seconds, at the reference speed, of fresh processes
    that start the interpreter, import the program and build the
    workload's configs."""
    cmd = [sys.executable, str(RUN_PY), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    pin_to_one_core()
    times = []
    with SpeedSampler() as speed:
        for _ in range(SETUP_PROBES):
            since = speed.reading()
            start = cpu_seconds()
            subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
            times.append((cpu_seconds() - start) * speed.factor(since))
    return statistics.median(times)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload; the last stdout line is "
                    "the JSON result.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record the workload's fingerprint at --seed "
                             "in fingerprints.json and exit")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workload.calls(args.seed, False)
    if args.probe_setup:
        return 0
    if args.pin:
        pin(workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = measure(workload, args.seed, args.seconds, bool(args.trace))
    metrics = measured["metrics"]
    if args.trace:
        table = spec["per_layer"]
        print(f"perfbench: {workload.name} seed {args.seed} walls "
              f"{json.dumps(measured['walls'])} traced walls "
              f"{json.dumps(measured['traced_walls'])}", file=sys.stderr)
    else:
        table = spec["end_to_end"]
        metrics["setup_s"] = setup_seconds(workload.name, args.seed)
        print(f"perfbench: {workload.name} seed {args.seed} scaled cpu "
              f"{json.dumps(measured['cpus'])} raw cpu "
              f"{json.dumps(measured['raw_cpus'])}", file=sys.stderr)
    tally = measured["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in table},
    }))
    return 0
