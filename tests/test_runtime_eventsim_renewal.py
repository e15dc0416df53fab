"""Closed-form renewal oracle for the event kernel and the scalar loop.

Under Poisson(lam) arrivals every idle period is exponential with mean
1/lam: it starts when the queue drains, a stopping time of the arrival
process, so by memorylessness the wait for the next arrival is Exp(lam)
whatever came before.  A :class:`~repro.baselines.FixedTimeout` of T
shuts the device down in exactly the idle periods longer than T, so

- ``n_shutdowns / n_idle_periods`` -> P(I > T) = exp(-lam T), a binomial
  proportion with standard error sqrt(p (1 - p) / n);
- ``mean_idle_length`` -> 1/lam, with standard error (1/lam) / sqrt(n);
- the energy per idle period -> its renewal-reward mean (derived below:
  wait power over min(I, T), the sleep tail beyond T, and one down/up
  trip with probability exp(-lam T)).

The first two are checked against :func:`~repro.runtime.run_vectorized`
(the busy-period kernel at R = 1), the energy against the kernel's
many-trace form (:func:`~repro.runtime.run_gap_batched`, R > 1 pooled),
and all three against :class:`~repro.sim.DPMSimulator` (the scalar event
loop) at a fixed seed, within ``Z_TOL`` standard errors.  The closed
forms share no code with either path.  The kernel gets a long horizon
because it is cheap; the scalar loop a shorter one.  A closed form with
the sleep and idle powers swapped, or with the timeout shifted by one
service time, must fall outside the tolerance, so the energy check has
the power to catch those bugs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.baselines import FixedTimeout
from repro.device import get_preset
from repro.runtime import run_gap_batched, run_vectorized
from repro.sim import DPMSimulator
from repro.workload import Exponential, renewal_trace

#: CLT tolerance, in standard errors
Z_TOL = 4.0
#: (arrival rate lam, timeout T): lam T in {0.25, 0.6, 1.0}
RATES_AND_TIMEOUTS = ((0.05, 5.0), (0.1, 6.0), (0.2, 5.0))
#: simulated seconds per engine (~9k-32k idle periods for the kernel,
#: ~0.9k-3.3k for the scalar loop)
HORIZONS = {"kernel": 200_000.0, "scalar": 20_000.0}
SERVICE_TIME = 0.5
SEED = 11


def _run(engine, device, policy, trace):
    if engine == "kernel":
        report = run_vectorized(device, policy, trace,
                                service_time=SERVICE_TIME)
        assert report is not None, "the kernel declined the run"
        return report
    return DPMSimulator(device, policy, service_time=SERVICE_TIME).run(trace)


@pytest.mark.parametrize("engine", sorted(HORIZONS))
@pytest.mark.parametrize("device_name", ("mobile_hdd", "abstract3"))
@pytest.mark.parametrize("lam, timeout", RATES_AND_TIMEOUTS,
                         ids=[f"lamT={lam * t:g}"
                              for lam, t in RATES_AND_TIMEOUTS])
def test_fixed_timeout_matches_renewal_closed_form(engine, device_name,
                                                   lam, timeout):
    trace = renewal_trace(Exponential(lam), HORIZONS[engine],
                          np.random.default_rng(SEED))
    report = _run(engine, get_preset(device_name), FixedTimeout(timeout),
                  trace)
    n = report.n_idle_periods
    assert n > 500

    p = math.exp(-lam * timeout)
    z_shutdowns = (report.n_shutdowns / n - p) / math.sqrt(p * (1 - p) / n)
    assert abs(z_shutdowns) <= Z_TOL, (
        f"shutdown fraction {report.n_shutdowns / n:.4f} vs "
        f"exp(-lam T) = {p:.4f} (z = {z_shutdowns:+.2f}, n = {n})"
    )

    z_idle = (report.mean_idle_length - 1 / lam) / (1 / lam / math.sqrt(n))
    assert abs(z_idle) <= Z_TOL, (
        f"mean idle length {report.mean_idle_length:.4f} vs 1/lam = "
        f"{1 / lam:.4f} (z = {z_idle:+.2f}, n = {n})"
    )


# ---- expected energy per idle period ---------------------------------- #
#
# With X ~ Exp(lam) the idle length, a FixedTimeout(T) to a target state
# s (wait-state power p_wait, sleep power p_sleep, down latency d, down +
# up transition energy c) spends, per idle period,
#
#     e(X) = p_wait min(X, T) + 1{X > T} (c + p_sleep (X - T - d)^+)
#
# (an arrival during the down transition still pays the whole trip), so
#
#     E[e] = p_wait (1 - exp(-lam T)) / lam
#            + exp(-lam T) c + p_sleep exp(-lam (T + d)) / lam.
#
# The simulated figure is (total energy - busy energy) / n_idle_periods,
# busy energy being the home power over n_requests service times; the
# trailing idle period (window-truncated, no wake-up) biases it by O(1/n).

#: kernel replications pooled into one many-trace call (R > 1), and
#: their total horizon: ~90k-320k idle periods, enough to resolve a
#: 0.5 s timeout shift where the energy is not flat in T
KERNEL_REPS = 4
ENERGY_KERNEL_HORIZON = 2_000_000.0


def _idle_costs(device):
    """(p_wait, p_sleep, d, c) of FixedTimeout's default target, the
    lowest-power state (both presets reach it from the wait state)."""
    from repro.sim.simulator import default_wait_state

    home, wait = device.initial_state, default_wait_state(device)
    target = min(device.state_names, key=lambda s: device.state(s).power)
    down, up = device.transition(wait, target), device.transition(target, home)
    return (device.state(wait).power, device.state(target).power,
            down.latency, down.energy + up.energy)


def expected_idle_energy(lam, timeout, p_wait, p_sleep, d, c):
    """E[e(X)], X ~ Exp(lam): the closed form above."""
    survive = math.exp(-lam * timeout)
    return (p_wait * (1 - survive) / lam + survive * c
            + p_sleep * math.exp(-lam * (timeout + d)) / lam)


def idle_energy_sd(lam, timeout, p_wait, p_sleep, d, c):
    """Standard deviation of e(X), by quadrature of its second moment."""
    from scipy.integrate import quad

    def e(x):
        if x <= timeout:
            return p_wait * x
        return p_wait * timeout + c + p_sleep * max(0.0, x - timeout - d)

    second = sum(
        quad(lambda x: e(x) ** 2 * lam * math.exp(-lam * x), lo, hi)[0]
        for lo, hi in ((0.0, timeout), (timeout, timeout + d),
                       (timeout + d, math.inf))
    )
    mean = expected_idle_energy(lam, timeout, p_wait, p_sleep, d, c)
    return math.sqrt(second - mean ** 2)


@functools.lru_cache(maxsize=None)
def _idle_energy_runs(engine, device_name, timeout, lam):
    """(pooled idle energy, pooled idle periods) of one engine's runs."""
    device = get_preset(device_name)
    if engine == "kernel":
        seeds = [SEED + k for k in range(KERNEL_REPS)]
        horizon = ENERGY_KERNEL_HORIZON / KERNEL_REPS
    else:
        seeds, horizon = [SEED], HORIZONS["scalar"]
    traces = [renewal_trace(Exponential(lam), horizon,
                            np.random.default_rng(s)) for s in seeds]
    if engine == "kernel":
        reports = run_gap_batched(device, FixedTimeout(timeout), traces,
                                  service_time=SERVICE_TIME)
        assert reports is not None, "the kernel declined the batch"
    else:
        reports = [DPMSimulator(device, FixedTimeout(timeout),
                                service_time=SERVICE_TIME).run(t)
                   for t in traces]
    home_power = device.state(device.initial_state).power
    energy = sum(r.total_energy - home_power * r.n_requests * SERVICE_TIME
                 for r in reports)
    return energy, sum(r.n_idle_periods for r in reports)


def _z(energy, n, lam, timeout, costs):
    mean = expected_idle_energy(lam, timeout, *costs)
    return (energy / n - mean) / (idle_energy_sd(lam, timeout, *costs)
                                  / math.sqrt(n))


@pytest.mark.parametrize("engine", sorted(HORIZONS))
@pytest.mark.parametrize("device_name", ("mobile_hdd", "abstract3"))
@pytest.mark.parametrize("lam, timeout", RATES_AND_TIMEOUTS,
                         ids=[f"lamT={lam * t:g}"
                              for lam, t in RATES_AND_TIMEOUTS])
def test_idle_energy_matches_renewal_closed_form(engine, device_name,
                                                 lam, timeout):
    costs = _idle_costs(get_preset(device_name))
    energy, n = _idle_energy_runs(engine, device_name, timeout, lam)
    z = _z(energy, n, lam, timeout, costs)
    assert abs(z) <= Z_TOL, (
        f"idle energy per period {energy / n:.4f} vs closed form "
        f"{expected_idle_energy(lam, timeout, *costs):.4f} "
        f"(z = {z:+.2f}, n = {n})"
    )


@pytest.mark.parametrize("device_name", ("mobile_hdd", "abstract3"))
@pytest.mark.parametrize("lam, timeout", RATES_AND_TIMEOUTS,
                         ids=[f"lamT={lam * t:g}"
                              for lam, t in RATES_AND_TIMEOUTS])
def test_idle_energy_oracle_rejects_planted_mutants(device_name, lam,
                                                    timeout):
    """The oracle has the power to fail: a closed form with the sleep
    and idle powers swapped, or with the timeout shifted by one service
    time, sits outside the tolerance on the kernel's pooled runs.  At
    lam T = 1 the timeout is close to the energy-optimal one, so E[e] is
    flat in T there and only the swap is checked."""
    p_wait, p_sleep, d, c = _idle_costs(get_preset(device_name))
    energy, n = _idle_energy_runs("kernel", device_name, timeout, lam)
    swapped = _z(energy, n, lam, timeout, (p_sleep, p_wait, d, c))
    assert abs(swapped) > Z_TOL, swapped
    if lam * timeout < 1.0:
        for shift in (-SERVICE_TIME, SERVICE_TIME):
            shifted = _z(energy, n, lam, timeout + shift,
                         (p_wait, p_sleep, d, c))
            assert abs(shifted) > Z_TOL, (shift, shifted)
