"""SimSweepRunner: event-sim cell grids over the executor layer."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import AdaptiveTimeout, AlwaysOn, FixedTimeout, OracleShutdown
from repro.experiments import SimSweepConfig, build_sim_sweep_spec, run_sim_sweep
from repro.runtime import (
    PolicySpec,
    SimSweepRunner,
    SimSweepSpec,
    TraceSpec,
    resolve_n_jobs,
    run_sim_chunk,
)
from repro.runtime import executor as executor_mod
from repro.workload import Exponential


def small_spec(**overrides) -> SimSweepSpec:
    base = dict(
        devices=("mobile_hdd", "two_state"),
        traces=(TraceSpec("exp", Exponential(0.1), 400.0),),
        policies=(
            PolicySpec("always_on", AlwaysOn()),
            PolicySpec("timeout", FixedTimeout()),
            PolicySpec("oracle", OracleShutdown(), oracle=True),
        ),
        n_traces=4,
        seed=5,
        seed_stride=11,
        service_time=0.3,
    )
    base.update(overrides)
    return SimSweepSpec(**base)


class TestSpecValidation:
    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            small_spec(devices=())
        with pytest.raises(ValueError):
            small_spec(policies=())

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            small_spec(n_traces=0)
        with pytest.raises(ValueError):
            small_spec(seed_stride=0)
        with pytest.raises(ValueError):
            small_spec(service_time=0.0)
        with pytest.raises(ValueError):
            TraceSpec("bad", Exponential(0.1), 0.0)
        with pytest.raises(ValueError):
            SimSweepRunner(chunk_size=0)

    def test_seeds_are_strided(self):
        assert small_spec().seeds() == [5, 16, 27, 38]


class TestGridExecution:
    def test_full_grid_shape_and_order(self):
        spec = small_spec()
        result = SimSweepRunner(chunk_size=2).run(spec)
        assert len(result.cells) == 2 * 1 * 3  # device x trace x policy
        assert [c.device for c in result.cells[:3]] == ["mobile_hdd"] * 3
        for cell in result.cells:
            assert len(cell.reports) == spec.n_traces

    def test_results_identical_across_chunking_and_jobs(self):
        spec = small_spec()
        reference = SimSweepRunner(chunk_size=spec.n_traces).run(spec)
        for chunk_size, n_jobs in ((1, 1), (3, 1), (2, 2)):
            other = SimSweepRunner(chunk_size=chunk_size, n_jobs=n_jobs).run(spec)
            for a, b in zip(reference.cells, other.cells):
                assert (a.device, a.trace, a.policy) == (b.device, b.trace, b.policy)
                assert a.reports == b.reports  # dataclass equality, exact

    def test_chunk_worker_is_pure(self):
        spec = small_spec()
        args = ("mobile_hdd", spec.policies, spec.traces[0],
                spec.service_time, [5, 16])
        assert run_sim_chunk(*args) == run_sim_chunk(*args)

    def test_stateful_policy_cells_fall_back_deterministically(self):
        spec = small_spec(policies=(
            PolicySpec("adaptive", AdaptiveTimeout(initial_timeout=1.0)),
        ))
        a = SimSweepRunner(chunk_size=1).run(spec)
        b = SimSweepRunner(chunk_size=4).run(spec)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.reports == cb.reports

    def test_sweep_reports_drop_raw_latency_arrays(self):
        """Sweep cells aggregate summary fields only, so the per-request
        arrays are dropped before reports leave the worker."""
        result = SimSweepRunner(chunk_size=2).run(small_spec())
        for cell in result.cells:
            for report in cell.reports:
                assert report.latencies == ()
                assert report.n_requests > 0
                assert report.mean_latency >= 0.0

    def test_cell_lookup_and_aggregates(self):
        result = SimSweepRunner(chunk_size=2).run(small_spec())
        cell = result.cell("mobile_hdd", "exp", "timeout")
        ci = cell.power_ci()
        assert ci.low <= ci.estimate <= ci.high
        always_on = result.cell("mobile_hdd", "exp", "always_on")
        # paired traces: shutting down at break-even cannot cost energy
        assert cell.power_ci().estimate <= always_on.power_ci().estimate
        assert always_on.mean_shutdowns == 0
        oracle = result.cell("mobile_hdd", "exp", "oracle")
        assert oracle.mean_wrong_shutdowns == 0
        with pytest.raises(KeyError):
            result.cell("mobile_hdd", "exp", "nope")

    def test_render_lists_every_cell(self):
        result = SimSweepRunner(chunk_size=4).run(small_spec())
        table = result.render()
        assert "SIM-SWEEP" in table
        for cell in result.cells:
            assert cell.policy in table


class TestSerialDegrade:
    """The pool-degrade heuristic: tiny chunks and one-core hosts run
    in-process, and the decision is recorded in the result metadata."""

    def test_resolve_n_jobs_decisions(self, monkeypatch):
        assert resolve_n_jobs(1, 100.0, 8) == (1, "serial_requested")
        monkeypatch.setattr(executor_mod, "_host_cpu_count", lambda: 1)
        assert resolve_n_jobs(4, 100.0, 8) == (1, "single_core_host")
        monkeypatch.setattr(executor_mod, "_host_cpu_count", lambda: 8)
        assert resolve_n_jobs(4, 100.0, 8) == (4, "parallel")
        # many small chunks together still amortize the pool spin-up...
        assert resolve_n_jobs(
            4, est_chunk_seconds=0.04, n_tasks=200
        ) == (4, "parallel")
        # ...but a handful of them do not
        assert resolve_n_jobs(
            4, est_chunk_seconds=0.01, n_tasks=8
        ) == (1, "small_chunks")
        assert resolve_n_jobs(
            4, est_chunk_seconds=0.06, n_tasks=3
        ) == (1, "small_chunks")
        assert resolve_n_jobs(
            4, est_chunk_seconds=0.06, n_tasks=100
        ) == (4, "parallel")

    def test_execution_metadata_recorded(self):
        spec = small_spec()
        runner = SimSweepRunner(chunk_size=2, n_jobs=2)
        result = runner.run(spec)
        meta = result.execution
        assert meta["n_jobs_requested"] == 2
        assert meta["n_jobs_effective"] in (1, 2)
        assert meta["decision"] in (
            "serial_requested", "single_core_host", "small_chunks", "parallel"
        )
        assert meta["estimated_chunk_seconds"] >= 0.0
        serial = SimSweepRunner(chunk_size=2, n_jobs=1).run(spec)
        assert serial.execution["decision"] == "serial_requested"
        assert serial.execution["n_jobs_effective"] == 1

    def test_small_chunks_degrade_but_results_identical(self):
        """small_spec's ~40-request replications are far below the ship
        threshold: a 2-job run degrades to in-process execution with
        bit-identical results."""
        spec = small_spec()
        est = SimSweepRunner(chunk_size=2).estimate_chunk_seconds(spec)
        # the whole sweep's serial work is less than a pool must save
        n_chunks = len(spec.devices) * len(spec.traces) * -(-spec.n_traces // 2)
        assert est * n_chunks < executor_mod.MIN_POOL_SAVING_SECONDS
        a = SimSweepRunner(chunk_size=2, n_jobs=1).run(spec)
        b = SimSweepRunner(chunk_size=2, n_jobs=2).run(spec)
        assert b.execution["n_jobs_effective"] == 1
        assert b.execution["decision"] in ("single_core_host", "small_chunks")
        for ca, cb in zip(a.cells, b.cells):
            assert ca.reports == cb.reports

    def test_estimate_tracks_engine_family(self):
        """Policies with no batch hook cost ~1000x more per request than
        the batched engines, and the estimate must reflect that — the
        lock-step engine moved adaptive/predictive into the fast bucket."""
        from repro.runtime.simsweep import (
            FAST_SECONDS_PER_REQUEST,
            SCALAR_SECONDS_PER_REQUEST,
            estimate_request_seconds,
        )
        from test_runtime_eventsim_batch import _StatefulScalarOnly

        for policy in (FixedTimeout(), AdaptiveTimeout(initial_timeout=1.0)):
            assert estimate_request_seconds(policy, 1000.0) == pytest.approx(
                1000.0 * FAST_SECONDS_PER_REQUEST
            )
        assert estimate_request_seconds(
            _StatefulScalarOnly(), 1000.0
        ) == pytest.approx(1000.0 * SCALAR_SECONDS_PER_REQUEST)


class TestExperimentHarness:
    def test_config_roundtrip_and_determinism(self):
        config = dataclasses.replace(
            SimSweepConfig(), devices=("mobile_hdd",), duration=400.0,
            n_traces=2, chunk_size=1,
        )
        spec = build_sim_sweep_spec(config)
        assert spec.n_traces == 2
        assert len(spec.traces) == 2  # exp + pareto families
        a = run_sim_sweep(config)
        b = run_sim_sweep(dataclasses.replace(config, n_jobs=2))
        for ca, cb in zip(a.cells, b.cells):
            assert ca.reports == cb.reports

    def test_unknown_device_fails_fast(self):
        with pytest.raises(KeyError):
            build_sim_sweep_spec(
                dataclasses.replace(SimSweepConfig(), devices=("warp",))
            )
