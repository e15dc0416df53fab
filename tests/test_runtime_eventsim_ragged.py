"""Many-trace busy-period kernel: the batch's makeup never matters.

:func:`~repro.runtime.eventsim.run_gap_batched` lays R traces end to end
in flat arrays (no padding) and resolves all of their idle gaps with one
policy call per fixpoint pass.  Each trace's report must be ``==`` the
report of the same trace run alone, whatever else shares the batch:
empty traces, a batch of only empty traces, R = 1, one long trace among
many short ones (the shape a skewed fleet router produces), simultaneous
arrivals and zero demands, oracle and causal runs.  The long trace is
long enough (> 128 requests) that NumPy's pairwise summation splits
recursively, so a per-trace sum that leaked into its neighbours' blocks
would show.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AlwaysOn,
    FixedTimeout,
    GreedySleep,
    OracleShutdown,
)
from repro.device import get_preset
from repro.runtime import run_gap_batched, run_vectorized, simulate_traces_batch
from repro.runtime.telemetry import TELEMETRY
from repro.workload import Trace

#: (policy factory, oracle run)
POLICIES = (
    (AlwaysOn, False),
    (GreedySleep, False),
    (FixedTimeout, False),
    (lambda: FixedTimeout(1.0), False),
    (lambda: FixedTimeout(0.3), True),
    (OracleShutdown, False),
    (OracleShutdown, True),
)
DEVICES = ("mobile_hdd", "abstract3", "two_state", "wlan")
#: inter-arrival gaps; 0.0 makes simultaneous arrivals
GAPS = (0.0, 0.05, 0.3, 1.0, 4.0, 25.0)
#: per-request demands; 0.0 falls back to the service time
DEMANDS = (0.0, 0.2, 0.5, 2.0)


@st.composite
def short_traces(draw):
    gaps = draw(st.lists(st.sampled_from(GAPS), max_size=25))
    times = np.cumsum(gaps)
    tail = draw(st.sampled_from((0.0, 0.5, 10.0, 100.0)))
    duration = (float(times[-1]) if times.size else 0.0) + tail
    demands = None
    if times.size and draw(st.booleans()):
        demands = draw(st.lists(st.sampled_from(DEMANDS),
                                min_size=times.size, max_size=times.size))
    return Trace(times, duration=duration, service_demands=demands)


def long_trace(seed: int) -> Trace:
    """~600 requests at a busy rate, with bursts of simultaneous ones."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0, 600)
    gaps[rng.random(600) < 0.1] = 0.0
    times = np.cumsum(gaps)
    return Trace(times, duration=float(times[-1]) + 20.0)


@st.composite
def batches(draw):
    traces = draw(st.lists(short_traces(), min_size=1, max_size=6))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(traces)))
        traces.insert(at, long_trace(draw(st.integers(0, 2**16))))
    return traces


def assert_batch_matches_alone(device_name, policy_factory, oracle, traces):
    device = get_preset(device_name)
    batch = run_gap_batched(device, policy_factory(), traces,
                            service_time=0.4, oracle=oracle)
    assert batch is not None, "the kernel declined a qualifying batch"
    assert len(batch) == len(traces)
    for i, trace in enumerate(traces):
        alone = run_vectorized(device, policy_factory(), trace,
                               service_time=0.4, oracle=oracle)
        assert batch[i] == alone, f"trace {i} of {len(traces)}"


@settings(max_examples=150, deadline=None)
@given(traces=batches(), device_name=st.sampled_from(DEVICES),
       policy=st.sampled_from(POLICIES))
def test_each_report_equals_the_trace_run_alone(traces, device_name, policy):
    assert_batch_matches_alone(device_name, *policy, traces)


def test_only_empty_traces():
    traces = [Trace([], duration=d) for d in (0.0, 5.0, 120.0)]
    for device_name in DEVICES:
        for policy in POLICIES:
            assert_batch_matches_alone(device_name, *policy, traces)


def test_one_trace():
    traces = [long_trace(7)]
    for policy in POLICIES:
        assert_batch_matches_alone("mobile_hdd", *policy, traces)


def test_long_trace_among_short_ones():
    """The skewed shape: one device's sub-trace carries most requests."""
    rng = np.random.default_rng(3)
    short = [Trace(np.sort(rng.uniform(0.0, 300.0, k)), duration=300.0)
             for k in (0, 2, 5, 1, 9, 0, 3)]
    traces = short[:3] + [long_trace(11)] + short[3:]
    for device_name in DEVICES:
        for policy in POLICIES:
            assert_batch_matches_alone(device_name, *policy, traces)


def test_empty_batch():
    assert run_gap_batched(get_preset("mobile_hdd"), FixedTimeout(), []) == []


class TestEngineCounters:
    """``simulate_traces_batch`` counts the traces each engine served."""

    def _counters(self, policy, traces, device_name="mobile_hdd"):
        with TELEMETRY.metrics_scope() as registry:
            simulate_traces_batch(get_preset(device_name), policy, traces)
        return registry.snapshot()["counters"]

    def test_gap_mode_batch_counts_vector(self):
        traces = [long_trace(1), Trace([], duration=4.0), long_trace(2)]
        assert self._counters(FixedTimeout(), traces) == {
            "engine.eventsim.vector": 3}

    def test_declined_batch_is_counted(self):
        class Declines(FixedTimeout):
            def decide_batch(self, ctx):
                return None

        assert self._counters(Declines(), [long_trace(1)]) == {
            "engine.eventsim.vector_declined": 1,
            "engine.eventsim.scalar": 1,
        }

    def test_step_mode_batch_counts_lockstep(self):
        from repro.baselines import AdaptiveTimeout

        assert self._counters(AdaptiveTimeout(initial_timeout=2.0),
                              [long_trace(1), long_trace(2)]) == {
            "engine.eventsim.lockstep": 2}

    def test_fleet_sweep_metrics_report_every_subtrace_as_vector(self, capsys):
        """A quick fleet sweep: 4 policies x 4 traces x 2 devices = 32
        sub-traces, every one on the many-trace kernel."""
        from repro import cli

        assert cli.main(["fleet-sweep", "--quick", "--devices", "2",
                         "--router", "power_aware", "--jobs", "1",
                         "--metrics"]) == 0
        rows = {
            cells[0].strip(): cells[2].strip()
            for cells in (line.split("|")
                          for line in capsys.readouterr().err.splitlines())
            if len(cells) > 2 and cells[0].startswith("engine.eventsim.")
        }
        assert rows == {"engine.eventsim.vector": "32"}
