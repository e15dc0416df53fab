"""Deterministic self-checks of the benchmark; no timing is asserted."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.telemetry import TELEMETRY

from perfbench import bench, layers
from perfbench.workloads import REL_TOL, WORKLOADS, Recorder, failed_units

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture
def clean_telemetry():
    TELEMETRY.reset()
    yield
    TELEMETRY.reset()


def test_names_are_well_formed_and_match_the_workloads():
    names = [w["name"] for w in BENCHMARK["workloads"]] + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_repeats_traced_or_not(name, clean_telemetry):
    workload = WORKLOADS[name]
    calls = workload.calls(0, False)
    recorder = Recorder()
    tracer = layers.LayerTracer()
    with recorder.installed():
        before = layers.counters()
        untraced = [bench.run_iteration(calls, recorder)]
        first = recorder.fingerprint
        # the fleet workload must reach the process pool, the others
        # run serially
        bench.check_jobs(workload, recorder)
        traced = [bench.traced_iteration(calls, recorder, tracer)]
        second = recorder.fingerprint
    after = layers.counters()
    assert first == second
    pinned = bench.pinned_fingerprint(name, 0)
    assert failed_units(first, pinned, REL_TOL[workload.kind]) == 0

    delta = {k: v - before.get(k, 0.0) for k, v in after.items()}
    metrics = layers.per_layer(delta, traced, untraced, 0.0, 0)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    if workload.kind == "fleet":
        # every (fleet size, router) pair routes each seed's trace once
        # per policy: 2 x 4 x 8 distinct routings of 256
        assert metrics["fleet.route_useful_ratio"] == 0.25
        # the trace depends on the seed alone, yet it is realized for
        # every cell: 8 distinct seeds of 256 realizations
        assert metrics["workload.realize_useful_ratio"] == 8 / 256
    else:
        assert metrics["slotted.lockstep_slots"] > 0


def test_sampler_leaves_no_process_behind():
    # a spawned sampler would start multiprocessing's resource tracker,
    # a child process that outlives the run; after the sampler stops,
    # the process must have no child at all, running or unreaped
    code = ("import os\n"
            "from perfbench.hostspeed import SpeedSampler\n"
            "with SpeedSampler():\n"
            "    pass\n"
            "try:\n"
            "    print(os.waitpid(-1, os.WNOHANG))\n"
            "except ChildProcessError:\n"
            "    print('no child')\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "no child"


def test_mismatched_units_count_as_failed():
    want = [["a", 2, {"x": 1.0, "n": 3}], ["b", 1, [[1, 0.5]]]]
    assert failed_units(want, want, 0.0) == 0
    nudged = [["a", 2, {"x": 1.0 + 1e-12, "n": 3}], ["b", 1, [[1, 0.5]]]]
    assert failed_units(nudged, want, 0.0) == 2
    assert failed_units(nudged, want, 1e-9) == 0
    assert failed_units([["a", 2, {"x": 1.0, "n": 4}]], want, 1e-9) == 3
