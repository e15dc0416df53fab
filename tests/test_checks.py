"""Every entry point refuses a non-finite service time or window and a
fractional count, through the one rule of :mod:`repro.checks` — rather
than simulating with NaN demands, generating without end, failing late,
or truncating a count."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import FixedTimeout
from repro.checks import check_count
from repro.device import get_preset
from repro.env import SlottedDPMEnv, build_dpm_model
from repro.fleet import Dispatcher, FleetSweepRunner
from repro.fleet.dispatch import PowerAwareRouter
from repro.runtime import (
    BatchedSlottedEnv,
    GridRunner,
    SimSweepRunner,
    SweepRunner,
    TraceSpec,
    run_gap_batched,
    run_step_batched,
)
from repro.runtime.executor import MultiprocessExecutor
from repro.sim import DPMSimulator
from repro.workload import (
    ConstantRate,
    Deterministic,
    Exponential,
    FaultProcess,
    FaultSchedule,
    HyperExponential,
    Pareto,
    SinusoidalRate,
    Trace,
    Uniform,
    Weibull,
    no_faults,
    renewal_trace,
)

from test_fleet_sweep import small_spec as fleet_spec
from test_runtime_simsweep import small_spec as sim_spec

DEVICE = get_preset("mobile_hdd")
TRACE = Trace([1.0, 2.0], duration=5.0)

SERVICE_TIME_ENTRY_POINTS = {
    "DPMSimulator": lambda v: DPMSimulator(
        DEVICE, FixedTimeout(), service_time=v
    ).run(TRACE),
    "run_gap_batched": lambda v: run_gap_batched(
        DEVICE, FixedTimeout(), [TRACE], service_time=v
    ),
    "run_step_batched": lambda v: run_step_batched(
        DEVICE, FixedTimeout(), [TRACE], service_time=v
    ),
    "SimSweepSpec": lambda v: sim_spec(service_time=v),
    "FleetSweepSpec": lambda v: fleet_spec(service_time=v),
    "Dispatcher": lambda v: Dispatcher("jsq", 2, DEVICE, service_time=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(SERVICE_TIME_ENTRY_POINTS))
def test_bad_service_time_rejected(entry, value):
    with pytest.raises(ValueError, match="service_time"):
        SERVICE_TIME_ENTRY_POINTS[entry](value)


#: (argument name, call) per entry point that takes a time window; an
#: infinite window is refused before any draw, so no case generates
WINDOW_ENTRY_POINTS = {
    "TraceSpec": ("duration", lambda v: TraceSpec(
        "exp", Exponential(1.0), v).realize(0)),
    "renewal_trace": ("duration", lambda v: renewal_trace(
        Exponential(1.0), v, np.random.default_rng(0))),
    "FaultSchedule": ("horizon", lambda v: FaultSchedule(
        [[(0.0, 1.0)]], v).availability()),
    "FaultProcess.realize": ("horizon", lambda v: FaultProcess(
        10.0, 1.0).realize(1, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(WINDOW_ENTRY_POINTS))
def test_bad_window_rejected(entry, value):
    name, call = WINDOW_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        call(value)


COUNT_ENTRY_POINTS = {
    "Dispatcher.n_devices": lambda v: Dispatcher("jsq", v, DEVICE),
    "SweepRunner.batch_size": lambda v: SweepRunner(batch_size=v),
    "GridRunner.batch_size": lambda v: GridRunner(batch_size=v),
    "SimSweepRunner.chunk_size": lambda v: SimSweepRunner(chunk_size=v),
    "FleetSweepRunner.n_jobs": lambda v: FleetSweepRunner(n_jobs=v),
    "MultiprocessExecutor.n_jobs": lambda v: MultiprocessExecutor(v),
    "FleetSweepSpec.fleet_sizes": lambda v: fleet_spec(fleet_sizes=(2, v)),
    "FleetSweepSpec.n_traces": lambda v: fleet_spec(n_traces=v),
    "FleetSweepSpec.seed_stride": lambda v: fleet_spec(seed_stride=v),
    "SimSweepSpec.n_traces": lambda v: sim_spec(n_traces=v),
    "SimSweepSpec.seed_stride": lambda v: sim_spec(seed_stride=v),
    "PowerAwareRouter.max_queue": lambda v: PowerAwareRouter(max_queue=v),
    "FaultProcess.realize": lambda v: FaultProcess(10.0, 1.0).realize(v, 100.0),
    "no_faults": lambda v: no_faults(v, 10.0),
    "SlottedDPMEnv.queue_capacity": lambda v: SlottedDPMEnv(
        DEVICE, queue_capacity=v),
    "BatchedSlottedEnv.queue_capacity": lambda v: BatchedSlottedEnv(
        DEVICE, queue_capacity=v),
    "BatchedSlottedEnv.n_replicas": lambda v: BatchedSlottedEnv(
        DEVICE, n_replicas=v),
    "build_dpm_model.queue_capacity": lambda v: build_dpm_model(
        DEVICE, 0.1, queue_capacity=v),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, 0, "3", None])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_fractional_or_invalid_count_rejected(entry, value):
    with pytest.raises(ValueError, match="must be an integer"):
        COUNT_ENTRY_POINTS[entry](value)


#: the slotted environments and their exact model take the same reward
#: weights
WEIGHT_ENTRY_POINTS = {
    "SlottedDPMEnv": lambda **kw: SlottedDPMEnv(DEVICE, **kw),
    "BatchedSlottedEnv": lambda **kw: BatchedSlottedEnv(DEVICE, **kw),
    "build_dpm_model": lambda **kw: build_dpm_model(DEVICE, 0.1, **kw),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", ["perf_weight", "loss_penalty"])
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_bad_reward_weight_rejected(entry, name, value):
    """A NaN weight used to be accepted and turn every reward into NaN."""
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        WEIGHT_ENTRY_POINTS[entry](**{name: value})
    WEIGHT_ENTRY_POINTS[entry](**{name: 0})


@pytest.mark.parametrize("queue", [2.5, math.nan, -1, 4])
@pytest.mark.parametrize("batched", [False, True])
def test_bad_reset_queue_changes_nothing(batched, queue):
    """``reset(queue=2.5)`` used to start at queue 2, and a refused
    reset used to reseed the scalar env or rebuild the batched env's
    draw block before it raised."""
    if batched:
        def make():
            return BatchedSlottedEnv(DEVICE, ConstantRate(0.4),
                                     n_replicas=2, queue_capacity=3, seeds=1)
        reseed = {"seeds": 7}
    else:
        def make():
            return SlottedDPMEnv(DEVICE, ConstantRate(0.4),
                                 queue_capacity=3, seed=1)
        reseed = {"seed": 7}
    env, twin = make(), make()
    home = env.mode_space.action_index(DEVICE.initial_state)
    action = np.full(2, home) if batched else home
    for _ in range(5):
        env.step(action)
        twin.step(action)
    with pytest.raises(ValueError, match="queue"):
        env.reset(queue=queue, **reseed)
    for _ in range(20):
        state, reward, _ = env.step(action)
        twin_state, twin_reward, _ = twin.step(action)
        assert np.array_equal(state, twin_state)
        assert np.array_equal(reward, twin_reward)
    assert env.current_slot == twin.current_slot == 25


@pytest.mark.parametrize("value", [1.5, math.nan, math.inf, -1, "two"])
@pytest.mark.parametrize("spec", [sim_spec, fleet_spec])
def test_bad_seed_rejected(spec, value):
    """Seed 0 is valid; a fractional seed used to yield float
    replication seeds and fail inside the first chunk."""
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        spec(seed=value)
    assert spec(seed=0).seeds()[0] == 0


def test_whole_counts_normalized_to_int():
    """A whole float is accepted and stored as the int it names, so
    seeds stay ints."""
    spec = fleet_spec(fleet_sizes=[2.0], n_traces=2.0, seed_stride=3.0)
    assert spec.fleet_sizes == (2,)
    assert spec.seeds() == [5, 8]
    assert all(type(s) is int for s in spec.seeds())
    assert sim_spec(n_traces=2.0, seed_stride=1.0).seeds() == [5, 6]
    assert Dispatcher("jsq", 3.0, DEVICE).n_devices == 3
    assert SweepRunner(batch_size=4.0).batch_size == 4


def test_zero_minimum_counts():
    assert check_count("n", 0, minimum=0) == 0
    assert FleetSweepRunner(max_retries=0).max_retries == 0
    with pytest.raises(ValueError, match="max_retries"):
        FleetSweepRunner(max_retries=0.5)


#: (argument name, constructor) per inter-arrival parameter that must be
#: finite and > 0
ARRIVAL_PARAMETERS = {
    "Exponential.rate": ("rate", lambda v: Exponential(v)),
    "Deterministic.period": ("period", lambda v: Deterministic(v)),
    "Uniform.high": ("high", lambda v: Uniform(0.0, v)),
    "Pareto.alpha": ("alpha", lambda v: Pareto(v, 1.0)),
    "Pareto.xm": ("xm", lambda v: Pareto(2.0, v)),
    "HyperExponential.rates": ("rates",
                               lambda v: HyperExponential([1.0, v], [0.5, 0.5])),
    "Weibull.shape": ("shape", lambda v: Weibull(v, 1.0)),
    "Weibull.scale": ("scale", lambda v: Weibull(1.0, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(ARRIVAL_PARAMETERS))
def test_bad_arrival_parameter_rejected(entry, value):
    """``Exponential(nan)`` used to build, sample NaN gaps and realize
    an empty trace without error."""
    name, build = ARRIVAL_PARAMETERS[entry]
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        build(value)


@pytest.mark.parametrize("low", [math.nan, -1.0, 3.0])
def test_bad_uniform_low_rejected(low):
    with pytest.raises(ValueError, match="0 <= low <= high"):
        Uniform(low, 2.0)


@pytest.mark.parametrize("probs", [[math.nan, 0.5], [math.inf, 0.5], [-0.5, 1.5]])
def test_bad_hyperexponential_probs_rejected(probs):
    with pytest.raises(ValueError, match="probs"):
        HyperExponential([1.0, 2.0], probs)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -0.1])
def test_bad_sinusoid_amplitude_rejected(amplitude):
    """A NaN amplitude used to build a schedule whose ``rate_at`` read
    0.0 in every slot."""
    with pytest.raises(ValueError, match="amplitude must be finite and >= 0"):
        SinusoidalRate(0.3, amplitude, 10)


def test_valid_arrival_parameters_kept_as_given():
    assert Exponential(2).params() == {"rate": 2}
    assert Uniform(0, 2).params() == {"low": 0, "high": 2}
    assert SinusoidalRate(0.3, 0.0, 10).rate_at(3) == 0.3
    assert no_faults(2.0, 10.0).n_devices == 2
    assert FaultProcess(10.0, 1.0).realize(3.0, 100.0).n_devices == 3
