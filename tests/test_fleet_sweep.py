"""Fleet evaluation and sweeps: engine equivalence, determinism, CIs.

The contract mirrors the event-sim kernel's: the vectorized fleet path
(NumPy trace partition + busy-period kernel per device) must be
indistinguishable from the scalar reference dispatcher (scalar routing
loop + scalar event loop per device) on every :class:`FleetReport`
field (rel tol <= 1e-9), and sweep results must be bit-identical for
every ``(chunk_size, n_jobs)`` combination.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

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
from repro.experiments import (
    FleetConfig,
    build_fleet_sweep_spec,
    run_fleet_sweep,
)
from repro.fleet import (
    ROUTERS,
    BreakerConfig,
    Dispatcher,
    FailoverConfig,
    FleetSweepRunner,
    FleetSweepSpec,
    OverloadConfig,
    Router,
    build_fleet_report,
    make_router,
    run_fleet,
    run_fleet_batch,
    run_fleet_chunk,
)
from repro.fleet.sweep import (
    SCALAR_ROUTE_SECONDS_PER_REQUEST,
    STEP_ROUTE_SECONDS_PER_REQUEST,
    route_seconds_per_request,
)
from repro.runtime import PolicySpec, TraceSpec
from repro.runtime.simsweep import estimate_request_seconds
from repro.sim import DPMSimulator
from repro.workload import (
    Exponential,
    FaultProcess,
    FaultSchedule,
    renewal_trace,
)

from test_runtime_eventsim_batch import _StatefulScalarOnly

FLEET_FIELDS = (
    "n_devices", "duration", "total_energy", "mean_power",
    "energy_saving_ratio", "n_requests", "mean_latency", "p50_latency",
    "p95_latency", "p99_latency", "max_latency", "n_shutdowns",
    "n_wrong_shutdowns", "requests_per_device",
)


def assert_fleet_reports_match(ref, fast, rel=1e-9):
    """Field-for-field FleetReport comparison (ints exact, floats tight)."""
    for name in FLEET_FIELDS:
        a, b = getattr(ref, name), getattr(fast, name)
        if isinstance(a, (int, tuple)):
            assert a == b, f"{name}: {a} != {b}"
        else:
            assert b == pytest.approx(a, rel=rel, abs=1e-12), name
    assert set(ref.state_residency) == set(fast.state_residency)
    for key, a in ref.state_residency.items():
        assert fast.state_residency[key] == pytest.approx(
            a, rel=rel, abs=1e-12
        ), key


def companion_traces(trace, n=2):
    """``n`` seeded renewal traces of ``trace``'s duration and rate."""
    rate = max(len(trace), 1) / trace.duration
    return [renewal_trace(Exponential(rate), trace.duration,
                          np.random.default_rng(1_000 + i))
            for i in range(n)]


def engine_pairs(engine, device, policy_factory, trace, router_name,
                 n_devices, route_seed=0, fault_seed=None, **kwargs):
    """``(scalar reference, fast report)`` pairs for one engine case.

    ``"auto"`` is one :func:`run_fleet` call on ``trace``.  ``"batch"``
    runs ``trace`` plus two companion traces through one
    :func:`run_fleet_batch` call — the multi-trace shape of a sweep
    chunk — with consecutive route (and fault) seeds, and pairs each
    seed with its own ``engine="scalar"`` run.
    """
    if engine == "auto":
        traces = [trace]
        fast = [run_fleet(device, policy_factory(), trace,
                          make_router(router_name), n_devices,
                          route_seed=route_seed, fault_seed=fault_seed,
                          **kwargs)]
    else:
        assert engine == "batch", engine
        traces = [trace, *companion_traces(trace)]
        seeds = [route_seed + i for i in range(len(traces))]
        fault_seeds = (None if fault_seed is None
                       else [fault_seed + i for i in range(len(traces))])
        fast = run_fleet_batch(
            device, policy_factory(), traces, make_router(router_name),
            n_devices, route_seeds=seeds, fault_seeds=fault_seeds, **kwargs,
        )
    refs = [
        run_fleet(device, policy_factory(), t, make_router(router_name),
                  n_devices, engine="scalar", route_seed=route_seed + i,
                  fault_seed=None if fault_seed is None else fault_seed + i,
                  **kwargs)
        for i, t in enumerate(traces)
    ]
    return list(zip(refs, fast))


POLICIES = [
    ("always_on", AlwaysOn, False),
    ("greedy", GreedySleep, False),
    ("timeout_break_even", FixedTimeout, False),
    ("oracle", OracleShutdown, True),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", ("auto", "batch"))
    @pytest.mark.parametrize("router_name", sorted(ROUTERS))
    @pytest.mark.parametrize(
        "policy_factory,oracle", [(f, o) for _, f, o in POLICIES],
        ids=[name for name, _, _ in POLICIES],
    )
    def test_vectorized_matches_scalar_reference(
        self, engine, router_name, policy_factory, oracle, rng
    ):
        trace = renewal_trace(Exponential(0.8), 800.0, rng)
        for ref, fast in engine_pairs(
            engine, get_preset("mobile_hdd"), policy_factory, trace,
            router_name, 5, service_time=0.4, oracle=oracle, route_seed=21,
        ):
            assert_fleet_reports_match(ref, fast)

    def test_stateful_policy_rides_the_fleet_too(self, rng):
        """Stateful per-device policies ride the lock-step engine across
        the device axis inside the auto engine — same aggregate as the
        scalar reference dispatcher either way."""
        trace = renewal_trace(Exponential(0.8), 400.0, rng)
        device = get_preset("mobile_hdd")
        ref = run_fleet(device, AdaptiveTimeout(initial_timeout=1.0), trace,
                        make_router("round_robin"), 3, engine="scalar",
                        service_time=0.4)
        fast = run_fleet(device, AdaptiveTimeout(initial_timeout=1.0), trace,
                         make_router("round_robin"), 3, engine="auto",
                         service_time=0.4)
        assert_fleet_reports_match(ref, fast)

    @pytest.mark.parametrize("router_name", ("round_robin", "power_aware"))
    def test_stateful_policies_match_at_larger_fleets(self, router_name, rng):
        """The per-device sub-traces a router produces (including the
        skewed ones of a consolidating router) run through the lock-step
        engine as one batch — pinned against the scalar dispatcher."""
        trace = renewal_trace(Exponential(1.5), 500.0, rng)
        device = get_preset("mobile_hdd")
        for policy_factory in (
            lambda: AdaptiveTimeout(initial_timeout=1.0),
            lambda: PredictiveShutdown(smoothing=0.5),
        ):
            kwargs = dict(service_time=0.4, route_seed=9)
            ref = run_fleet(device, policy_factory(), trace,
                            make_router(router_name), 8, engine="scalar",
                            **kwargs)
            fast = run_fleet(device, policy_factory(), trace,
                             make_router(router_name), 8, engine="auto",
                             **kwargs)
            assert_fleet_reports_match(ref, fast)

    def test_unknown_engine_rejected(self, rng):
        trace = renewal_trace(Exponential(0.8), 100.0, rng)
        with pytest.raises(ValueError, match="engine"):
            run_fleet(get_preset("mobile_hdd"), AlwaysOn(), trace,
                      make_router("round_robin"), 2, engine="warp")

    @pytest.mark.parametrize("device_name", ("mobile_hdd", "wlan", "sa1100"))
    @pytest.mark.parametrize("router_name", ("jsq", "power_aware"))
    def test_batch_across_presets(self, device_name, router_name, rng):
        """Queue-aware routing plus a multi-trace run_fleet_batch call
        tracks the scalar dispatcher seed by seed on every preset
        (rel <= 1e-9) — assignments themselves are asserted
        bit-identical down in test_fleet_dispatch."""
        trace = renewal_trace(Exponential(1.2), 400.0, rng)
        for ref, fast in engine_pairs(
            "batch", get_preset(device_name), FixedTimeout, trace,
            router_name, 6, service_time=0.4, route_seed=3,
        ):
            assert_fleet_reports_match(ref, fast)

    def test_batch_stateful_policy(self, rng):
        """Step-mode policies run all of a batch's sub-traces in one
        lock-step call — each seed still matches the scalar reference."""
        trace = renewal_trace(Exponential(0.8), 400.0, rng)
        for ref, fast in engine_pairs(
            "batch", get_preset("mobile_hdd"),
            lambda: AdaptiveTimeout(initial_timeout=1.0), trace, "jsq", 4,
            service_time=0.4,
        ):
            assert_fleet_reports_match(ref, fast)


PER_SEED_POLICIES = [
    ("timeout", FixedTimeout, False),
    ("oracle", OracleShutdown, True),
    ("adaptive", lambda: AdaptiveTimeout(initial_timeout=1.0), False),
    ("scalar_only", _StatefulScalarOnly, False),
]

FAULTS_AND_OVERLOAD = dict(
    faults=FaultProcess(mtbf=40.0, mttr=8.0, severity=4.0),
    overload=OverloadConfig(
        failover=FailoverConfig(max_retries=3),
        breaker=BreakerConfig(failure_threshold=2, recovery_time=5.0),
        slo=3.0,
    ),
)


class TestRunFleetBatch:
    """The many-trace entry the sweep workers call."""

    def test_batch_composition_never_matters(self, rng):
        """Per-seed reports are exact dataclass equals whether the seeds
        share one run_fleet_batch call or run one by one — the property
        that keeps sweep results invariant to (chunk_size, n_jobs)."""
        device = get_preset("mobile_hdd")
        traces = [renewal_trace(Exponential(0.9), 300.0, rng)
                  for _ in range(4)]
        seeds = [11, 12, 13, 14]
        batched = run_fleet_batch(
            device, FixedTimeout(), traces, make_router("power_aware"), 3,
            service_time=0.4, route_seeds=seeds,
        )
        singles = [
            run_fleet_batch(
                device, FixedTimeout(), [trace], make_router("power_aware"),
                3, service_time=0.4, route_seeds=[seed],
            )[0]
            for trace, seed in zip(traces, seeds)
        ]
        assert batched == singles

    @pytest.mark.parametrize("faulted", (False, True),
                             ids=("plain", "faults_overload"))
    @pytest.mark.parametrize("router_name", ("jsq", "round_robin"))
    @pytest.mark.parametrize(
        "policy_factory,oracle", [(f, o) for _, f, o in PER_SEED_POLICIES],
        ids=[name for name, _, _ in PER_SEED_POLICIES],
    )
    def test_matches_per_seed_auto_runs(self, policy_factory, oracle,
                                        router_name, faulted, rng):
        """One batch over three seeds is exactly three per-seed auto
        runs (dataclass equality, device reports included) for every
        policy family — gap-mode, oracle, step-mode, scalar-only — on
        both routing paths, with and without faults and overload."""
        device = get_preset("mobile_hdd")
        traces = [renewal_trace(Exponential(0.9), 300.0, rng)
                  for _ in range(3)]
        seeds = [5, 6, 7]
        kwargs = dict(service_time=0.4, oracle=oracle,
                      **(FAULTS_AND_OVERLOAD if faulted else {}))
        batched = run_fleet_batch(
            device, policy_factory(), traces, make_router(router_name), 4,
            route_seeds=seeds, **kwargs,
        )
        singles = [
            run_fleet(device, policy_factory(), trace,
                      make_router(router_name), 4, route_seed=seed,
                      engine="auto", **kwargs)
            for trace, seed in zip(traces, seeds)
        ]
        assert batched == singles

    def test_scalar_only_policy_falls_back(self, rng, monkeypatch):
        """Policies with neither batch hook run the scalar loop on the
        sub-traces already routed — one routing call per trace — and
        match the scalar reference dispatcher."""
        device = get_preset("mobile_hdd")
        traces = [renewal_trace(Exponential(0.5), 200.0, rng)
                  for _ in range(2)]
        calls = []
        for method in ("dispatch", "dispatch_with_overload"):
            original = getattr(Dispatcher, method)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(self.seed)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Dispatcher, method, counted)
        batched = run_fleet_batch(
            device, _StatefulScalarOnly(), traces, make_router("jsq"), 2,
            service_time=0.4, route_seeds=[1, 2],
        )
        assert calls == [1, 2]
        monkeypatch.undo()
        for fast, (trace, seed) in zip(batched, zip(traces, [1, 2])):
            ref = run_fleet(device, _StatefulScalarOnly(), trace,
                            make_router("jsq"), 2, service_time=0.4,
                            route_seed=seed, engine="scalar")
            assert_fleet_reports_match(ref, fast)

    def test_validation_and_empty(self, rng):
        device = get_preset("mobile_hdd")
        assert run_fleet_batch(
            device, FixedTimeout(), [], make_router("jsq"), 2
        ) == []
        trace = renewal_trace(Exponential(0.5), 50.0, rng)
        with pytest.raises(ValueError, match="route_seeds"):
            run_fleet_batch(
                device, FixedTimeout(), [trace], make_router("jsq"), 2,
                route_seeds=[1, 2],
            )


class _ScalarOnlyRouter(Router):
    """Registry-free router with neither vectorized path (cost model)."""

    name = "scalar_only"

    def route(self, ctx):  # pragma: no cover - never simulated
        return np.zeros(ctx.arrivals.size, dtype=np.int64)


class TestRoutingCostModel:
    def test_rates_follow_the_assignment_cascade(self):
        assert route_seconds_per_request(ROUTERS["round_robin"]) == 0.0
        assert route_seconds_per_request(ROUTERS["random"]) == 0.0
        assert route_seconds_per_request(ROUTERS["jsq"]) == \
            STEP_ROUTE_SECONDS_PER_REQUEST
        assert route_seconds_per_request(ROUTERS["power_aware"]) == \
            STEP_ROUTE_SECONDS_PER_REQUEST
        assert route_seconds_per_request(_ScalarOnlyRouter) == \
            SCALAR_ROUTE_SECONDS_PER_REQUEST
        assert STEP_ROUTE_SECONDS_PER_REQUEST < \
            SCALAR_ROUTE_SECONDS_PER_REQUEST

    def test_estimate_uses_vectorized_router_rate(self):
        """A queue-aware cell must no longer be costed at the scalar
        routing rate (which would wrongly trip the serial-degrade
        heuristic into forcing in-process execution on fast cells)."""
        spec = small_spec(routers=("jsq",),
                          policies=(PolicySpec("always_on", AlwaysOn()),))
        est = FleetSweepRunner(chunk_size=2).estimate_chunk_seconds(spec)
        requests = spec.trace.dist.rate() * spec.trace.duration
        expected = 2 * requests * STEP_ROUTE_SECONDS_PER_REQUEST + \
            estimate_request_seconds(AlwaysOn(), 2 * requests)
        assert est == pytest.approx(expected)
        assert est < 2 * requests * SCALAR_ROUTE_SECONDS_PER_REQUEST + \
            estimate_request_seconds(AlwaysOn(), 2 * requests)


class TestFleetReport:
    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    @pytest.mark.parametrize("case", ["round_robin", "jsq", "faults_slo"])
    def test_aggregates_fold_per_device_runs(self, rng, engine, case):
        """Fold oracle: route with the dispatcher, run one DPMSimulator
        per sub-trace, and fold by hand — sums, per-device counts and
        the np.percentile / max / mean of the concatenated latencies."""
        trace = renewal_trace(Exponential(1.0), 500.0, rng)
        device = get_preset("mobile_hdd")
        policy = FixedTimeout()
        router = "round_robin" if case == "round_robin" else "jsq"
        dispatcher = Dispatcher(router, 4, device, service_time=0.4,
                                seed=7)
        kwargs = {}
        if case == "faults_slo":
            kwargs["faults"] = FaultSchedule(
                [[(50.0, 120.0)], [(300.0, 400.0, 3.0)], [(200.0, 260.0)],
                 []],
                trace.duration,
            )
            kwargs["overload"] = OverloadConfig(slo=1.0)
            subs, outcome = dispatcher.dispatch_with_overload(
                trace, kwargs["faults"], kwargs["overload"],
            )
            assert outcome.n_retries > 0 and outcome.n_shed > 0
        else:
            subs = dispatcher.dispatch(trace)
        devs = [DPMSimulator(device, policy, service_time=0.4).run(sub)
                for sub in subs]
        report = run_fleet(device, policy, trace, make_router(router), 4,
                           service_time=0.4, route_seed=7, engine=engine,
                           **kwargs)

        assert report.requests_per_device == tuple(
            r.n_requests for r in devs
        )
        assert report.n_requests == sum(r.n_requests for r in devs)
        assert report.n_requests + report.n_dropped + report.n_shed == \
            len(trace)
        assert report.n_shutdowns == sum(r.n_shutdowns for r in devs)
        assert report.n_wrong_shutdowns == sum(
            r.n_wrong_shutdowns for r in devs
        )
        assert report.total_energy == pytest.approx(
            sum(r.total_energy for r in devs), rel=1e-9
        )
        assert report.duration == pytest.approx(
            max(r.duration for r in devs), rel=1e-9
        )
        keys = {k for r in devs for k in r.state_residency}
        assert set(report.state_residency) == keys
        for key in keys:
            assert report.state_residency[key] == pytest.approx(sum(
                r.state_residency.get(key, 0.0) for r in devs
            ), rel=1e-9, abs=1e-9)
        merged = np.concatenate([np.asarray(r.latencies) for r in devs])
        assert merged.size == report.n_requests > 0
        for q, got in ((50, report.p50_latency), (95, report.p95_latency),
                       (99, report.p99_latency)):
            assert got == pytest.approx(float(np.percentile(merged, q)),
                                        rel=1e-9, abs=1e-12)
        assert report.max_latency == pytest.approx(float(merged.max()),
                                                   rel=1e-9, abs=1e-12)
        assert report.mean_latency == pytest.approx(float(merged.mean()),
                                                    rel=1e-9, abs=1e-12)

    def test_saving_is_vs_all_always_on_fleet(self, rng):
        trace = renewal_trace(Exponential(1.0), 500.0, rng)
        device = get_preset("mobile_hdd")
        report = run_fleet(device, FixedTimeout(), trace,
                           make_router("round_robin"), 4, service_time=0.4)
        home_power = device.state(device.initial_state).power
        expected = 1.0 - report.total_energy / (
            4 * home_power * report.duration
        )
        assert report.energy_saving_ratio == pytest.approx(expected)

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            build_fleet_report("round_robin", "always_on", 2.0, [])

    def test_load_imbalance(self, rng):
        trace = renewal_trace(Exponential(1.0), 400.0, rng)
        device = get_preset("mobile_hdd")
        rr = run_fleet(device, AlwaysOn(), trace,
                       make_router("round_robin"), 4, service_time=0.4)
        assert rr.load_imbalance == pytest.approx(1.0, abs=0.05)
        pa = run_fleet(device, AlwaysOn(), trace,
                       make_router("power_aware"), 4, service_time=0.4)
        assert pa.load_imbalance > rr.load_imbalance


def small_spec(**overrides) -> FleetSweepSpec:
    base = dict(
        device="mobile_hdd",
        fleet_sizes=(2, 4),
        routers=("round_robin", "random", "jsq", "power_aware"),
        policies=(
            PolicySpec("always_on", AlwaysOn()),
            PolicySpec("timeout", FixedTimeout()),
            PolicySpec("oracle", OracleShutdown(), oracle=True),
        ),
        trace=TraceSpec("exp", Exponential(0.6), 300.0),
        n_traces=4,
        seed=5,
        seed_stride=11,
        service_time=0.4,
    )
    base.update(overrides)
    return FleetSweepSpec(**base)


class TestSpecValidation:
    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            small_spec(fleet_sizes=())
        with pytest.raises(ValueError):
            small_spec(routers=())
        with pytest.raises(ValueError):
            small_spec(policies=())

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            small_spec(fleet_sizes=(0,))
        with pytest.raises(ValueError):
            small_spec(routers=("warp",))
        with pytest.raises(ValueError):
            small_spec(n_traces=0)
        with pytest.raises(ValueError):
            small_spec(seed_stride=0)
        with pytest.raises(ValueError):
            small_spec(service_time=0.0)
        with pytest.raises(ValueError):
            FleetSweepRunner(chunk_size=0)

    def test_seeds_are_strided(self):
        assert small_spec().seeds() == [5, 16, 27, 38]


class TestSweepExecution:
    def test_full_grid_shape_and_order(self):
        spec = small_spec()
        result = FleetSweepRunner(chunk_size=2).run(spec)
        assert len(result.cells) == 2 * 4 * 3
        assert [c.n_devices for c in result.cells[:12]] == [2] * 12
        for cell in result.cells:
            assert len(cell.reports) == spec.n_traces

    def test_results_identical_across_chunking_and_jobs(self):
        """The acceptance pin: bit-identical FleetReports for every
        (chunk_size, n_jobs) combination, stateless and queue-aware
        routers alike."""
        spec = small_spec()
        reference = FleetSweepRunner(chunk_size=spec.n_traces).run(spec)
        for chunk_size, n_jobs in ((1, 1), (3, 1), (2, 2)):
            other = FleetSweepRunner(chunk_size=chunk_size,
                                     n_jobs=n_jobs).run(spec)
            for a, b in zip(reference.cells, other.cells):
                assert (a.n_devices, a.router, a.policy) == \
                    (b.n_devices, b.router, b.policy)
                assert a.reports == b.reports  # dataclass equality, exact

    def test_chunk_worker_is_pure(self):
        spec = small_spec()
        args = ("mobile_hdd", 2, "random", spec.policies, spec.trace,
                spec.service_time, [5, 16])
        assert run_fleet_chunk(*args) == run_fleet_chunk(*args)

    def test_chunk_results_carry_no_device_report(self):
        """A worker ships the fleet aggregate only: the pickled chunk
        result names no per-device SimReport class."""
        spec = small_spec()
        result = run_fleet_chunk(
            "mobile_hdd", 2, "round_robin", spec.policies[1:2], spec.trace,
            spec.service_time, [5],
        )
        found = set()

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                found.add(name)
                return super().find_class(module, name)

        blob = pickle.dumps(result)
        assert Recorder(io.BytesIO(blob)).load() == result
        assert "FleetReport" in found
        assert "SimReport" not in found
        assert b"SimReport" not in blob

    def test_execution_metadata_recorded(self):
        spec = small_spec(fleet_sizes=(2,), routers=("round_robin",))
        result = FleetSweepRunner(chunk_size=2, n_jobs=2).run(spec)
        meta = result.execution
        assert meta["n_jobs_requested"] == 2
        assert meta["n_jobs_effective"] in (1, 2)
        assert meta["decision"] in (
            "serial_requested", "single_core_host", "small_chunks", "parallel"
        )
        assert meta["estimated_chunk_seconds"] >= 0.0
        serial = FleetSweepRunner(chunk_size=2, n_jobs=1).run(spec)
        assert serial.execution["decision"] == "serial_requested"

    def test_cell_lookup_and_aggregates(self):
        result = FleetSweepRunner(chunk_size=2).run(small_spec())
        cell = result.cell(2, "round_robin", "timeout")
        ci = cell.power_ci()
        assert ci.low <= ci.estimate <= ci.high
        always_on = result.cell(2, "round_robin", "always_on")
        assert always_on.mean_shutdowns == 0
        # paired traces: the clairvoyant lower bound beats the timeout
        oracle = result.cell(2, "round_robin", "oracle")
        assert oracle.power_ci().estimate <= cell.power_ci().estimate
        # power-aware consolidation beats round-robin spreading on energy
        pa = result.cell(2, "power_aware", "timeout")
        assert pa.power_ci().estimate < cell.power_ci().estimate
        assert pa.mean_imbalance > cell.mean_imbalance
        with pytest.raises(KeyError):
            result.cell(2, "round_robin", "nope")

    def test_render_lists_every_cell(self):
        result = FleetSweepRunner(chunk_size=4).run(
            small_spec(fleet_sizes=(2,))
        )
        table = result.render()
        assert "FLEET-SWEEP" in table
        for cell in result.cells:
            assert cell.router in table
            assert cell.policy in table


class TestExperimentHarness:
    def test_config_roundtrip_and_determinism(self):
        config = dataclasses.replace(
            FleetConfig(), fleet_sizes=(2,), routers=("round_robin",),
            duration=300.0, n_traces=3,
        )
        spec = build_fleet_sweep_spec(config)
        assert spec.device == config.device
        assert spec.fleet_sizes == (2,)
        a = run_fleet_sweep(config)
        b = run_fleet_sweep(dataclasses.replace(config, n_jobs=2))
        for ca, cb in zip(a.cells, b.cells):
            assert ca.reports == cb.reports

    def test_unknown_device_fails_fast(self):
        with pytest.raises(KeyError):
            build_fleet_sweep_spec(
                dataclasses.replace(FleetConfig(), device="warp_core")
            )

    def test_fault_config_realizes_fault_injection(self):
        config = dataclasses.replace(
            FleetConfig(), fleet_sizes=(2,), routers=("round_robin",),
            duration=300.0, n_traces=3, mtbf=60.0, mttr=10.0,
            max_retries=5,
        )
        spec = build_fleet_sweep_spec(config)
        assert spec.faults is not None
        assert spec.faults.mtbf == 60.0 and spec.faults.mttr == 10.0
        # failover-only: one OverloadConfig, every protection off
        assert spec.overload == OverloadConfig(
            failover=FailoverConfig(max_retries=5))
        assert not spec.uses_overload
        result = run_fleet_sweep(config)
        assert all(
            r.availability < 1.0
            for c in result.cells for r in c.reports
        )
        table = result.render()
        assert "avail" in table and "dropped" in table

    def test_faultless_config_keeps_faultless_spec(self):
        spec = build_fleet_sweep_spec(FleetConfig())
        assert spec.faults is None
        assert spec.overload is None

    def test_overload_config_realizes_overload_spec(self):
        config = dataclasses.replace(
            FleetConfig(), fleet_sizes=(2,), routers=("round_robin",),
            duration=300.0, n_traces=2, mtbf=60.0, mttr=10.0,
            max_retries=5, brownout_severity=2.5, slo=30.0, breaker=4,
            retry_budget=16.0,
        )
        spec = build_fleet_sweep_spec(config)
        assert spec.uses_overload
        assert spec.faults.severity == 2.5
        assert spec.overload.failover == FailoverConfig(max_retries=5)
        assert spec.overload.breaker.failure_threshold == 4
        assert spec.overload.retry_budget.capacity == 16.0
        assert spec.overload.slo == 30.0

    def test_overload_knobs_independent_of_faults(self):
        spec = build_fleet_sweep_spec(
            dataclasses.replace(FleetConfig(), slo=20.0)
        )
        assert spec.faults is None
        assert spec.overload is not None
        assert spec.overload.slo == 20.0
        assert spec.overload.breaker is None
        assert spec.overload.retry_budget is None

    def test_brownout_without_mtbf_fails_fast(self):
        with pytest.raises(ValueError, match="requires mtbf"):
            build_fleet_sweep_spec(
                dataclasses.replace(FleetConfig(), brownout_severity=2.0)
            )

    def test_checkpoint_config_resumes_without_recompute(self, tmp_path):
        ck = tmp_path / "fleet.ck"
        config = dataclasses.replace(
            FleetConfig(), fleet_sizes=(2,), routers=("round_robin",),
            duration=300.0, n_traces=4, chunk_size=2, checkpoint=str(ck),
        )
        first = run_fleet_sweep(config)
        assert first.execution["computed_chunks"] > 0
        second = run_fleet_sweep(config)
        assert second.execution["computed_chunks"] == 0
        assert second.execution["resumed_chunks"] == (
            first.execution["computed_chunks"]
        )
        for ca, cb in zip(first.cells, second.cells):
            assert ca.reports == cb.reports
