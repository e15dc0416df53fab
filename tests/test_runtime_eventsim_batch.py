"""Lock-step cross-replication engine: field-for-field equivalence with
the scalar :class:`~repro.sim.DPMSimulator` event loop for *stateful*
policies.

The contract mirrors the stateless busy-period kernel's: per replica,
:func:`~repro.runtime.eventsim.run_step_batched` must be
indistinguishable (rel tol <= 1e-9 on every
:class:`~repro.sim.SimReport` field, identical residency key sets) from
running the scalar event loop on that replica's trace alone — and
results must be invariant to how replications are chunked into batches
(the ``BatchedQDPM`` guarantee, carried over to the event simulator).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AdaptiveTimeout,
    AlwaysOn,
    FixedTimeout,
    GreedySleep,
    OracleShutdown,
    PredictiveShutdown,
)
from repro.device import get_preset
from repro.sim import NEVER, DPMSimulator, EventPolicy, IdleContext, IdleDecision
from repro.runtime import (
    policy_batch_mode,
    run_step_batched,
    run_vectorized,
    simulate_trace,
    simulate_traces_batch,
)
from repro.workload import Exponential, Pareto, Trace, renewal_trace

from test_runtime_eventsim import PRESETS, assert_reports_match

STATEFUL = [
    ("adaptive", lambda: AdaptiveTimeout(initial_timeout=2.0)),
    ("adaptive_tight", lambda: AdaptiveTimeout(
        initial_timeout=0.5, grow=2.0, shrink=0.5, max_timeout=20.0)),
    ("predictive", lambda: PredictiveShutdown(smoothing=0.5)),
    ("predictive_eager", lambda: PredictiveShutdown(
        smoothing=0.9, initial_prediction=100.0)),
]


def replication_traces(rng, n=6, duration=1_500.0, rate=0.05):
    return [renewal_trace(Exponential(rate), duration, rng) for _ in range(n)]


def run_both_batched(device_name, policy_factory, traces, service_time=0.4):
    """Scalar per-trace reports and the lock-step batch for one cell."""
    refs = [
        DPMSimulator(
            get_preset(device_name), policy_factory(),
            service_time=service_time,
        ).run(trace)
        for trace in traces
    ]
    batch = run_step_batched(
        get_preset(device_name), policy_factory(), traces,
        service_time=service_time,
    )
    return refs, batch


class TestStatefulEquivalence:
    @pytest.mark.parametrize("device_name", PRESETS)
    @pytest.mark.parametrize(
        "policy_factory", [f for _, f in STATEFUL],
        ids=[name for name, _ in STATEFUL],
    )
    def test_exponential_replications(self, device_name, policy_factory, rng):
        traces = replication_traces(rng)
        refs, batch = run_both_batched(device_name, policy_factory, traces)
        assert batch is not None, "stateful cell unexpectedly declined"
        assert len(batch) == len(traces)
        for ref, fast in zip(refs, batch):
            assert_reports_match(ref, fast)

    @pytest.mark.parametrize("device_name", ("mobile_hdd", "wlan"))
    @pytest.mark.parametrize(
        "policy_factory", [f for _, f in STATEFUL],
        ids=[name for name, _ in STATEFUL],
    )
    def test_heavy_tailed_replications(self, device_name, policy_factory, rng):
        traces = [
            renewal_trace(Pareto(1.6, 6.0), 1_500.0, rng) for _ in range(4)
        ]
        refs, batch = run_both_batched(device_name, policy_factory, traces)
        assert batch is not None
        for ref, fast in zip(refs, batch):
            assert_reports_match(ref, fast)

    def test_per_request_demands(self, rng):
        traces = []
        for _ in range(4):
            base = renewal_trace(Exponential(0.1), 900.0, rng)
            demands = rng.uniform(0.0, 1.2, size=len(base))  # zeros fall back
            traces.append(Trace(base.arrival_times, duration=900.0,
                                service_demands=demands))
        for _, factory in STATEFUL:
            refs, batch = run_both_batched("mobile_hdd", factory, traces)
            assert batch is not None
            for ref, fast in zip(refs, batch):
                assert_reports_match(ref, fast)

    def test_latencies_match_scalar_loop(self, rng):
        traces = replication_traces(rng, n=3, duration=800.0)
        refs, batch = run_both_batched(
            "mobile_hdd", lambda: AdaptiveTimeout(initial_timeout=1.0), traces
        )
        for ref, fast in zip(refs, batch):
            np.testing.assert_allclose(
                np.asarray(fast.latencies), np.asarray(ref.latencies),
                rtol=1e-9, atol=1e-12,
            )

    def test_wake_delay_merges_gaps(self):
        """Shutdown wake delays long enough to swallow following pure
        gaps: the merge path must still track the scalar loop (two_state
        round trips take 0.5 + 1.5 s against ~1-2 s gaps)."""
        traces = [
            Trace([10.0, 20.0, 21.5, 30.0, 31.0, 40.0, 50.0], duration=60.0),
            Trace([5.0, 14.0, 15.2, 24.0], duration=40.0),
        ]
        for factory in (
            lambda: AdaptiveTimeout(initial_timeout=8.0),
            lambda: PredictiveShutdown(0.9, initial_prediction=100.0),
        ):
            refs, batch = run_both_batched(
                "two_state", factory, traces, service_time=1.0
            )
            assert batch is not None
            for ref, fast in zip(refs, batch):
                assert_reports_match(ref, fast)
        # the crafted arrivals really do exercise merging: the realized
        # run has fewer idle periods than the zero-wake gap structure
        report = run_step_batched(
            get_preset("two_state"),
            PredictiveShutdown(0.9, initial_prediction=100.0),
            [traces[0]], service_time=1.0,
        )[0]
        assert report.n_idle_periods < 7


class TestDegenerateInputs:
    DEGENERATES = (
        Trace([], duration=50.0),            # empty trace, whole window idle
        Trace([100.0], duration=2_000.0),    # single gap each side of one job
        Trace([0.0, 0.0, 8.0], duration=30.0),  # t=0 arrivals, zero first gap
    )

    @pytest.mark.parametrize("device_name", PRESETS)
    def test_degenerate_traces(self, device_name):
        for _, factory in STATEFUL:
            refs, batch = run_both_batched(
                device_name, factory, list(self.DEGENERATES)
            )
            assert batch is not None
            for ref, fast in zip(refs, batch):
                assert_reports_match(ref, fast)

    def test_single_replication(self, rng):
        """R=1: the lock-step engine degenerates to one run, still exact."""
        trace = renewal_trace(Exponential(0.05), 2_000.0, rng)
        for _, factory in STATEFUL:
            refs, batch = run_both_batched("mobile_hdd", factory, [trace])
            assert batch is not None and len(batch) == 1
            assert_reports_match(refs[0], batch[0])

    def test_empty_batch(self):
        assert run_step_batched(
            get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=1.0), []
        ) == []
        assert simulate_traces_batch(
            get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=1.0), []
        ) == []

    def test_saturated_replications(self, rng):
        """Queueing regime: arrivals outrun service, gaps never open."""
        traces = [renewal_trace(Exponential(5.0), 120.0, rng) for _ in range(3)]
        refs, batch = run_both_batched(
            "mobile_hdd", lambda: AdaptiveTimeout(initial_timeout=1.0), traces
        )
        assert batch is not None
        for ref, fast in zip(refs, batch):
            assert fast.n_idle_periods == ref.n_idle_periods
            assert_reports_match(ref, fast)


class TestChunkingInvariance:
    def test_batch_composition_never_matters(self, rng):
        """One batch, two half-batches, and R single-trace batches all
        produce the exact same per-replica reports (dataclass equality,
        not just tolerance) — the property that makes sweep results
        independent of (chunk_size, n_jobs)."""
        traces = replication_traces(rng, n=8, duration=900.0)
        for _, factory in STATEFUL:
            def batch(ts):
                return simulate_traces_batch(
                    get_preset("mobile_hdd"), factory(), ts, service_time=0.4
                )
            full = batch(traces)
            halves = batch(traces[:4]) + batch(traces[4:])
            singles = [batch([t])[0] for t in traces]
            assert full == halves == singles

    def test_mixed_length_batch(self, rng):
        """Replications of wildly different sizes (padding exercised)."""
        traces = [
            Trace([], duration=300.0),
            renewal_trace(Exponential(0.5), 300.0, rng),
            renewal_trace(Exponential(0.02), 300.0, rng),
            Trace([150.0], duration=300.0),
        ]
        refs, batch = run_both_batched(
            "mobile_hdd", lambda: PredictiveShutdown(0.5), traces
        )
        assert batch is not None
        for ref, fast in zip(refs, batch):
            assert_reports_match(ref, fast)


STATELESS = [
    ("always_on", lambda: AlwaysOn(), False),
    ("greedy", lambda: GreedySleep(), False),
    ("timeout", lambda: FixedTimeout(2.0), False),
    ("oracle", lambda: OracleShutdown(), True),
]


class TestStatelessPoliciesInBatch:
    """Gap-mode policies in :func:`simulate_traces_batch`: the lock-step
    engine declines them, and each replica's report is exactly its
    per-trace :func:`simulate_trace` report (the busy-period kernel,
    which resolves all gaps of a trace at once)."""

    @pytest.mark.parametrize("device_name", PRESETS)
    @pytest.mark.parametrize(
        "policy_factory,oracle", [(f, o) for _, f, o in STATELESS],
        ids=[name for name, _, _ in STATELESS],
    )
    def test_batch_matches_per_trace_kernel(
        self, device_name, policy_factory, oracle, rng
    ):
        traces = replication_traces(rng)
        batch = simulate_traces_batch(
            get_preset(device_name), policy_factory(), traces,
            service_time=0.4, oracle=oracle,
        )
        refs = [
            simulate_trace(
                get_preset(device_name), policy_factory(), trace,
                service_time=0.4, oracle=oracle,
            )
            for trace in traces
        ]
        assert batch == refs

    @pytest.mark.parametrize("device_name", PRESETS)
    def test_degenerate_traces_in_batch(self, device_name):
        traces = list(TestDegenerateInputs.DEGENERATES)
        for _, factory, oracle in STATELESS:
            batch = simulate_traces_batch(
                get_preset(device_name), factory(), traces,
                service_time=0.4, oracle=oracle,
            )
            refs = [
                simulate_trace(
                    get_preset(device_name), factory(), trace,
                    service_time=0.4, oracle=oracle,
                )
                for trace in traces
            ]
            assert batch == refs

    def test_lockstep_declines_gap_mode(self, rng):
        """Stateless policies never enter the lock-step rounds — the
        per-trace all-gaps kernel is their engine."""
        traces = replication_traces(rng, n=2, duration=400.0)
        assert run_step_batched(
            get_preset("mobile_hdd"), FixedTimeout(2.0), traces,
            service_time=0.4,
        ) is None

    def test_step_mode_policies_take_lockstep(self, rng):
        """simulate_traces_batch hands step-mode policies to the
        lock-step engine unchanged."""
        traces = replication_traces(rng, n=3, duration=600.0)
        via_batch = simulate_traces_batch(
            get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=2.0),
            traces, service_time=0.4,
        )
        direct = run_step_batched(
            get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=2.0),
            traces, service_time=0.4,
        )
        assert via_batch == direct

    def test_lockstep_declines_scalar_only(self, rng):
        """A policy with neither batch hook has no lock-step form."""
        traces = replication_traces(rng, n=2, duration=400.0)
        assert run_step_batched(
            get_preset("mobile_hdd"), _StatefulScalarOnly(), traces,
            service_time=0.4,
        ) is None


class _StatefulScalarOnly(EventPolicy):
    """Stateful policy with neither batch hook (scalar loop only)."""

    name = "scalar_only"

    def __init__(self) -> None:
        self._last = 0.0

    def reset(self) -> None:
        self._last = 0.0

    def on_idle(self, ctx: IdleContext) -> IdleDecision:
        if self._last > 5.0:
            return IdleDecision(target_state="standby", timeout=1.0)
        return IdleDecision(target_state=None, timeout=NEVER)

    def on_idle_end(self, idle_length: float) -> None:
        self._last = idle_length


class TestDispatchAndFallback:
    def test_policy_batch_mode_classification(self):
        assert policy_batch_mode(FixedTimeout()) == "gap"
        assert policy_batch_mode(AdaptiveTimeout(initial_timeout=1.0)) == "step"
        assert policy_batch_mode(PredictiveShutdown()) == "step"
        assert policy_batch_mode(_StatefulScalarOnly()) == "scalar"

    def test_stateful_policies_still_decline_gap_batch(self, rng):
        """The all-gaps kernel must keep refusing stateful policies; the
        lock-step engine is the only batched path for them."""
        trace = renewal_trace(Exponential(0.05), 800.0, rng)
        for _, factory in STATEFUL:
            assert run_vectorized(
                get_preset("mobile_hdd"), factory(), trace, service_time=0.4
            ) is None

    def test_no_hook_policy_falls_back_scalar(self, rng):
        """simulate_traces_batch on a hook-less policy IS the scalar
        loop, trace by trace (exact dataclass equality)."""
        traces = replication_traces(rng, n=3, duration=600.0)
        batch = simulate_traces_batch(
            get_preset("mobile_hdd"), _StatefulScalarOnly(), traces,
            service_time=0.4,
        )
        refs = [
            DPMSimulator(
                get_preset("mobile_hdd"), _StatefulScalarOnly(),
                service_time=0.4,
            ).run(trace)
            for trace in traces
        ]
        assert batch == refs

    def test_stateless_policies_ride_per_trace_kernel(self, rng):
        """Gap-batchable policies take the per-trace kernel inside
        simulate_traces_batch (identical to calling it per trace)."""
        traces = replication_traces(rng, n=3, duration=600.0)
        batch = simulate_traces_batch(
            get_preset("mobile_hdd"), FixedTimeout(), traces, service_time=0.4
        )
        singles = [
            run_vectorized(
                get_preset("mobile_hdd"), FixedTimeout(), trace,
                service_time=0.4,
            )
            for trace in traces
        ]
        assert batch == singles

    def test_batched_run_never_touches_the_instance(self, rng):
        """Batch state is external: a lock-step run must leave the
        policy instance exactly as constructed (so a later scalar
        fallback or reuse cannot be contaminated)."""
        traces = replication_traces(rng, n=4, duration=900.0)
        adaptive = AdaptiveTimeout(initial_timeout=2.0)
        run_step_batched(get_preset("mobile_hdd"), adaptive, traces,
                         service_time=0.4)
        assert adaptive.current_timeout == 2.0
        predictive = PredictiveShutdown(smoothing=0.5)
        run_step_batched(get_preset("mobile_hdd"), predictive, traces,
                         service_time=0.4)
        assert predictive.prediction == 0.0

    def test_invalid_service_time_raises_like_simulator(self):
        with pytest.raises(ValueError):
            run_step_batched(
                get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=1.0),
                [Trace([1.0], duration=5.0)], service_time=0.0,
            )

    def test_keep_latencies_false_drops_only_the_array(self, rng):
        traces = replication_traces(rng, n=3, duration=600.0)
        kept = simulate_traces_batch(
            get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=1.0),
            traces, service_time=0.4,
        )
        dropped = simulate_traces_batch(
            get_preset("mobile_hdd"), AdaptiveTimeout(initial_timeout=1.0),
            traces, service_time=0.4, keep_latencies=False,
        )
        for a, b in zip(kept, dropped):
            assert len(a.latencies) == a.n_requests > 0
            assert b.latencies == ()
            assert b.p99_latency == a.p99_latency
            assert b.mean_latency == a.mean_latency
