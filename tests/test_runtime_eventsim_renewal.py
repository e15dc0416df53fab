"""Closed-form renewal oracle for the event kernel and the scalar loop.

Under Poisson(lam) arrivals every idle period is exponential with mean
1/lam: it starts when the queue drains, a stopping time of the arrival
process, so by memorylessness the wait for the next arrival is Exp(lam)
whatever came before.  A :class:`~repro.baselines.FixedTimeout` of T
shuts the device down in exactly the idle periods longer than T, so

- ``n_shutdowns / n_idle_periods`` -> P(I > T) = exp(-lam T), a binomial
  proportion with standard error sqrt(p (1 - p) / n);
- ``mean_idle_length`` -> 1/lam, with standard error (1/lam) / sqrt(n).

Both statistics are checked against :func:`~repro.runtime.run_vectorized`
(the busy-period kernel) and :class:`~repro.sim.DPMSimulator` (the scalar
event loop) at a fixed seed, within ``Z_TOL`` standard errors.  The
closed forms share no code with either path.  The kernel gets a long
horizon because it is cheap; the scalar loop a shorter one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import FixedTimeout
from repro.device import get_preset
from repro.runtime import run_vectorized
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
