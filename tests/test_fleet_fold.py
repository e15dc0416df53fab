"""The fleet fold on degenerate fleet shapes, against two oracles.

:func:`~repro.fleet.evaluate.evaluate_fleet_batch` hands the batched
engines' per-run totals straight to
:func:`~repro.fleet.report.build_fleet_report`.  On every case below its
report must be ``==`` the fold of
:func:`~repro.runtime.eventsim.simulate_traces_batch`'s per-device
reports, and match the scalar reference
dispatcher (``run_fleet(engine="scalar")``, one
:class:`~repro.sim.DPMSimulator` per device) at rel <= 1e-9.  The shapes
are the ones a fleet fold can get wrong: one device, a device that
receives no request, a trace without arrivals and simultaneous arrivals,
under a gap-mode, a step-mode and a scalar-only policy.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.sim.stats
from repro.baselines import AdaptiveTimeout, FixedTimeout, GreedySleep
from repro.device import get_preset
from repro.fleet import build_fleet_report, make_router, run_fleet
from repro.fleet.evaluate import evaluate_fleet_batch, route_fleet_batch
from repro.runtime import simulate_traces_batch
from repro.runtime.telemetry import TELEMETRY
from repro.workload import Exponential, Trace, renewal_trace

from test_fleet_sweep import assert_fleet_reports_match
from test_runtime_eventsim_batch import _StatefulScalarOnly


def _renewal(seed: int, rate: float = 0.4, duration: float = 150.0) -> Trace:
    return renewal_trace(Exponential(rate), duration,
                         np.random.default_rng(seed))


#: case -> (trace factory, router, fleet size)
CASES = {
    "one_device": (lambda: _renewal(3), "jsq", 1),
    "one_device_empty": (lambda: Trace([], duration=25.0), "round_robin", 1),
    # round robin over 8 devices with 3 arrivals: 5 devices get none
    "idle_devices": (lambda: Trace([1.0, 5.0, 9.0], duration=30.0),
                     "round_robin", 8),
    "no_arrivals": (lambda: Trace([], duration=20.0), "jsq", 4),
    "simultaneous": (lambda: Trace([2.0, 2.0, 2.0, 7.5, 7.5, 20.0, 20.0],
                                   duration=40.0), "jsq", 2),
    "simultaneous_one_device": (
        lambda: Trace([0.0, 0.0, 3.0, 3.0, 3.0], duration=12.0),
        "round_robin", 1),
}

#: policy -> (factory, the event engine that serves it)
POLICIES = {
    "gap_timeout": (lambda: FixedTimeout(), "vector"),
    "gap_greedy": (lambda: GreedySleep(), "vector"),
    "step_adaptive": (lambda: AdaptiveTimeout(initial_timeout=2.0),
                      "lockstep"),
    "scalar_only": (lambda: _StatefulScalarOnly(), "scalar"),
}


def _fold_of_reports(device, policy, routed):
    """The fleet reports folded from per-device ``SimReport`` objects."""
    reports = simulate_traces_batch(device, policy, routed.sub_traces)
    home_power = device.state(device.initial_state).power
    n = routed.n_devices
    return [
        build_fleet_report(routed.router, policy.name, home_power,
                           reports[r * n:(r + 1) * n], **fields)
        for r, fields in enumerate(routed.fields)
    ]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_fold_matches_both_oracles(case, policy_name):
    make_trace, router, n_devices = CASES[case]
    make_policy, engine = POLICIES[policy_name]
    device = get_preset("mobile_hdd")
    trace = make_trace()
    routed = route_fleet_batch(device, [trace], make_router(router),
                               n_devices)
    with TELEMETRY.metrics_scope() as registry:
        fast = evaluate_fleet_batch(device, make_policy(), routed)
    assert registry.snapshot()["counters"] == {
        f"engine.eventsim.{engine}": n_devices}
    assert fast == _fold_of_reports(device, make_policy(), routed)
    ref = run_fleet(device, make_policy(), trace, make_router(router),
                    n_devices, engine="scalar")
    assert_fleet_reports_match(ref, fast[0])
    assert fast[0].requests_per_device == ref.requests_per_device
    assert sum(fast[0].requests_per_device) == len(trace)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_batch_of_degenerate_traces_folds_per_trace(policy_name):
    """All cases' traces routed across one 4-device fleet in one batch:
    each fleet report is the one of its trace evaluated alone."""
    make_policy, _ = POLICIES[policy_name]
    device = get_preset("mobile_hdd")
    traces = [make_trace() for make_trace, _, _ in CASES.values()]
    routed = route_fleet_batch(device, traces, make_router("jsq"), 4,
                               route_seeds=range(len(traces)))
    batched = evaluate_fleet_batch(device, make_policy(), routed)
    assert batched == _fold_of_reports(device, make_policy(), routed)
    for trace, seed, report in zip(traces, range(len(traces)), batched):
        alone = route_fleet_batch(device, [trace], make_router("jsq"), 4,
                                  route_seeds=[seed])
        assert evaluate_fleet_batch(device, make_policy(), alone) == [report]


def test_gap_mode_fleet_builds_no_per_device_report(monkeypatch):
    """The gap-mode fleet path folds the kernel's totals: a
    ``compile_report`` that raises is never reached."""

    def refuse(*args, **kwargs):
        raise AssertionError("compile_report reached")

    original = repro.sim.stats.compile_report
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "compile_report", None) is original):
            monkeypatch.setattr(module, "compile_report", refuse)
    device = get_preset("mobile_hdd")
    traces = [_renewal(seed) for seed in range(3)]
    for n_devices, router in ((1, "jsq"), (4, "round_robin"), (8, "jsq")):
        routed = route_fleet_batch(device, traces, make_router(router),
                                   n_devices, route_seeds=[0, 1, 2])
        reports = evaluate_fleet_batch(device, GreedySleep(), routed)
        assert [r.n_requests for r in reports] == [len(t) for t in traces]
    # the patch does cover the per-device report path
    with pytest.raises(AssertionError, match="compile_report reached"):
        simulate_traces_batch(device, GreedySleep(), traces)
