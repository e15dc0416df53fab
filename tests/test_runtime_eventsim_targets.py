"""Shutdown targets the many-trace kernel accepts, declines and ignores.

:func:`~repro.runtime.eventsim.run_gap_batched` looks every decision's
``target_idx`` up in one per-call table of the device's states.  It must
decline (return None, so the caller falls back to the scalar loop)
exactly when some gap names a target outside the shapes it models: an
index past the last state, the home state, the wait state, or a state
without a wait -> target and target -> home edge.  Any negative index
means "stay in the wait state", as -1 does.  The rule is restated here
from the device alone, independently of the kernel's table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import PRESETS, get_preset
from repro.runtime import run_gap_batched, simulate_traces_batch
from repro.runtime.telemetry import TELEMETRY
from repro.sim.policy_api import BatchIdleDecision, EventPolicy, IdleDecision
from repro.sim.simulator import default_wait_state
from repro.workload import Exponential, Trace, renewal_trace


class Targets(EventPolicy):
    """Gap ``i`` of each pass gets ``targets[i % len(targets)]`` after
    ``timeout`` seconds; the scalar fallback stays in the wait state."""

    name = "targets"

    def __init__(self, targets, timeout=0.5):
        self.targets = np.asarray(targets, dtype=np.int64)
        self.timeout = timeout

    def on_idle(self, ctx):
        return IdleDecision(target_state=None, timeout=0.0)

    def decide_batch(self, ctx):
        n = ctx.gap_starts.size
        reps = -(-n // self.targets.size)
        return BatchIdleDecision(
            target_idx=np.tile(self.targets, reps)[:n],
            timeouts=np.full(n, self.timeout),
        )


def traces():
    rng = np.random.default_rng(7)
    return [renewal_trace(Exponential(0.5), 120.0, rng),
            Trace([], duration=5.0),
            renewal_trace(Exponential(0.2), 300.0, rng)]


def modeled(device, idx):
    """The kernel's rule for one target index, from the device alone."""
    if idx < 0:
        return True
    if idx >= len(device.state_names):
        return False
    name = device.state_names[idx]
    home, wait = device.initial_state, default_wait_state(device)
    return (name not in (home, wait)
            and device.can_transition(wait, name)
            and device.can_transition(name, home))


@pytest.mark.parametrize("device_name", sorted(PRESETS))
def test_each_target_index_accepted_or_declined(device_name):
    device = get_preset(device_name)
    n_states = len(device.state_names)
    for idx in range(-3, n_states + 3):
        reports = run_gap_batched(device, Targets([idx]), traces())
        assert (reports is not None) == modeled(device, idx), idx


@pytest.mark.parametrize("device_name", ["mobile_hdd", "abstract3", "wlan"])
def test_home_wait_and_out_of_range_decline(device_name):
    device = get_preset(device_name)
    names = device.state_names
    bad = [names.index(device.initial_state),
           names.index(default_wait_state(device)), len(names), 10**6]
    good = next(i for i in range(len(names)) if modeled(device, i))
    for idx in bad:
        # one bad gap among good ones declines the whole batch ...
        assert run_gap_batched(device, Targets([good, -1, idx]), traces()) is None
        # ... even when its timeout never fires
        assert run_gap_batched(
            device, Targets([idx], timeout=np.inf), traces()) is None


@pytest.mark.parametrize("device_name", sorted(PRESETS))
def test_any_negative_index_stays(device_name):
    device = get_preset(device_name)
    stay = run_gap_batched(device, Targets([-1]), traces())
    assert stay is not None
    assert run_gap_batched(device, Targets([-2]), traces()) == stay
    assert run_gap_batched(device, Targets([-7, -1, -2]), traces()) == stay
    assert all(r.n_shutdowns == 0 for r in stay)
    good = [i for i in range(len(device.state_names)) if modeled(device, i)]
    for idx in good:
        mixed = run_gap_batched(device, Targets([idx, -1, idx, -1]), traces())
        assert mixed is not None
        assert run_gap_batched(
            device, Targets([idx, -2, idx, -9]), traces()) == mixed


def test_declined_target_counted_and_served_by_scalar_loop():
    device = get_preset("mobile_hdd")
    home = device.state_names.index(device.initial_state)
    with TELEMETRY.metrics_scope() as registry:
        reports = simulate_traces_batch(device, Targets([home]), traces())
    assert registry.snapshot()["counters"] == {
        "engine.eventsim.vector_declined": 1,
        "engine.eventsim.scalar": 3,
    }
    assert len(reports) == 3
