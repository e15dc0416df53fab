"""Grouped work units: one task serves several policy cells.

Routers never see the DPM policy and traces never depend on it, so
:func:`~repro.fleet.sweep.run_fleet_chunk` routes each trace once for
all the policies it is given, and :class:`~repro.runtime.SimSweepRunner`
realizes each trace once per (device, trace family, seed chunk), then
evaluates every policy on the shared (sub-)traces.
:class:`~repro.fleet.FleetSweepRunner` still gives each task one policy
cell.  These tests pin that grouping changes no result (every grouped
cell equals the per-cell batch call exactly), that the shared work
really happens once (exact call counts), that the checkpoint key sees
the layout, and that the cost models and the overload path still do
what the sweeps rely on.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

from repro.baselines import (
    AdaptiveTimeout,
    AlwaysOn,
    FixedTimeout,
    OracleShutdown,
)
from repro.device import get_preset
from repro.experiments import FleetConfig, build_fleet_sweep_spec
from repro.fleet import (
    BreakerConfig,
    Dispatcher,
    FailoverConfig,
    FleetSweepRunner,
    FleetSweepSpec,
    OverloadConfig,
    RetryBudgetConfig,
    make_router,
    run_fleet_batch,
)
from repro.fleet import sweep as fleet_sweep
from repro.fleet.sweep import FAULT_SEED_OFFSET, ROUTE_SEED_OFFSET
from repro.runtime import (
    PolicySpec,
    SerialExecutor,
    SimSweepRunner,
    SimSweepSpec,
    TraceSpec,
)
from repro.runtime import chunked, executor, simsweep
from repro.runtime.checkpoint import (
    CheckpointJournal,
    CheckpointMismatchError,
    spec_hash,
)
from repro.runtime.eventsim import simulate_traces_batch
from repro.runtime.simsweep import (
    REALIZE_SECONDS_PER_REQUEST,
    estimate_request_seconds,
)
from repro.runtime.verify import InvariantViolation
from repro.workload import Exponential, FaultProcess

POLICIES = (
    PolicySpec("always_on", AlwaysOn()),
    PolicySpec("timeout", FixedTimeout()),
    PolicySpec("adaptive", AdaptiveTimeout(initial_timeout=1.0)),
    PolicySpec("oracle", OracleShutdown(), oracle=True),
)

#: fault-free routing, and fail-stop faults under every overload knob
ROUTING = {
    "plain": {},
    "overload": dict(
        faults=FaultProcess(mtbf=40.0, mttr=8.0),
        overload=OverloadConfig(
            failover=FailoverConfig(max_retries=2),
            breaker=BreakerConfig(failure_threshold=2),
            retry_budget=RetryBudgetConfig(capacity=6.0),
            slo=12.0,
        ),
    ),
}


def fleet_spec(routing: str = "plain", **overrides) -> FleetSweepSpec:
    base = dict(
        device="mobile_hdd",
        fleet_sizes=(1, 3),
        routers=("round_robin", "jsq"),
        policies=POLICIES,
        trace=TraceSpec("exp", Exponential(0.8), 150.0),
        n_traces=8,
        seed=3,
        seed_stride=7,
        service_time=0.4,
        **ROUTING[routing],
    )
    base.update(overrides)
    return FleetSweepSpec(**base)


def sim_spec() -> SimSweepSpec:
    return SimSweepSpec(
        devices=("mobile_hdd", "two_state"),
        traces=(TraceSpec("exp", Exponential(0.2), 300.0),
                TraceSpec("fast", Exponential(0.9), 100.0)),
        policies=POLICIES,
        n_traces=8,
        seed=2,
        seed_stride=5,
        service_time=0.3,
    )


def per_cell_fleet_reports(spec: FleetSweepSpec):
    """Every cell's reports from one per-cell run_fleet_batch call."""
    device = get_preset(spec.device)
    seeds = spec.seeds()
    return {
        (n, router, p.label): run_fleet_batch(
            device, p.policy, [spec.trace.realize(s) for s in seeds],
            make_router(router), n, service_time=spec.service_time,
            oracle=p.oracle,
            route_seeds=[s + ROUTE_SEED_OFFSET for s in seeds],
            faults=spec.faults,
            fault_seeds=[s + FAULT_SEED_OFFSET for s in seeds],
            overload=spec.overload,
        )
        for n in spec.fleet_sizes for router in spec.routers
        for p in spec.policies
    }


@pytest.fixture
def force_pool(monkeypatch):
    """Keep ``n_jobs > 1`` on a real pool whatever the cost model says."""
    monkeypatch.setattr(chunked, "resolve_n_jobs",
                        lambda n_jobs, est, n_tasks: (n_jobs, "parallel"))


def fleet_chunk_task(spec: FleetSweepSpec, n_devices: int, router: str,
                     seeds):
    """One run_fleet_chunk task over every policy of ``spec``."""
    return (spec.device, n_devices, router, spec.policies, spec.trace,
            spec.service_time, seeds, spec.faults, spec.overload)


class TestFleetEqualsPerCell:
    @pytest.fixture(scope="class", params=sorted(ROUTING))
    def case(self, request):
        spec = fleet_spec(request.param)
        return spec, per_cell_fleet_reports(spec)

    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_multi_policy_chunk_matches_run_fleet_batch(self, case,
                                                        chunk_size):
        """One chunk over every policy, routed once, equals each
        policy's own run_fleet_batch call, every field."""
        spec, want = case
        seeds = spec.seeds()
        for lo in range(0, len(seeds), chunk_size):
            chunk = seeds[lo:lo + chunk_size]
            for n in spec.fleet_sizes:
                for router in spec.routers:
                    got = fleet_sweep.run_fleet_chunk(
                        *fleet_chunk_task(spec, n, router, chunk))
                    assert len(got) == len(spec.policies)
                    for p, reports in zip(spec.policies, got):
                        expected = want[(n, router, p.label)][
                            lo:lo + chunk_size]
                        assert reports == expected

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_runner_cells_match_run_fleet_batch(self, case, chunk_size,
                                                n_jobs, force_pool):
        spec, want = case
        result = FleetSweepRunner(chunk_size=chunk_size,
                                  n_jobs=n_jobs).run(spec)
        assert result.execution["n_jobs_effective"] == n_jobs
        assert len(result.cells) == len(want)
        for cell in result.cells:
            got = cell.reports
            expected = want[(cell.n_devices, cell.router, cell.policy)]
            assert got == expected  # dataclass equality, every field
        if spec.overload is not None:
            assert sum(r.n_shed + r.n_retries for c in result.cells
                       for r in c.reports) > 0

    def test_runner_runs_one_task_per_cell_chunk(self):
        spec = fleet_spec()
        result = FleetSweepRunner(chunk_size=3, verify_fraction=1.0).run(spec)
        n_tasks = len(result.cells) * 3
        counters = result.execution["metrics"]["counters"]
        assert counters["executor.chunks_completed"] == n_tasks
        assert result.execution["verification"]["n_chunks"] == n_tasks
        assert result.execution["verification"]["n_divergences"] == 0
        assert counters["verify.invariant_checks"] == \
            len(result.cells) * spec.n_traces


class TestSimGroupedEqualsPerCell:
    @pytest.mark.parametrize("chunk_size,n_jobs",
                             [(1, 1), (3, 1), (8, 1), (3, 2)])
    def test_every_cell_matches_simulate_traces_batch(self, chunk_size,
                                                      n_jobs, force_pool):
        spec = sim_spec()
        seeds = spec.seeds()
        result = SimSweepRunner(chunk_size=chunk_size,
                                n_jobs=n_jobs).run(spec)
        assert result.execution["n_jobs_effective"] == n_jobs
        for cell in result.cells:
            trace = next(t for t in spec.traces if t.name == cell.trace)
            policy = next(p for p in spec.policies if p.label == cell.policy)
            want = simulate_traces_batch(
                get_preset(cell.device), policy.policy,
                [trace.realize(s) for s in seeds],
                service_time=spec.service_time, oracle=policy.oracle,
                keep_latencies=False,
            )
            assert cell.reports == want

    def test_one_task_per_device_trace_chunk(self):
        spec = sim_spec()
        result = SimSweepRunner(chunk_size=3).run(spec)
        counters = result.execution["metrics"]["counters"]
        assert counters["executor.chunks_completed"] == \
            len(spec.devices) * len(spec.traces) * 3


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestShadowLabelsNameTheCell:
    def test_divergence_names_cell_and_seed(self, monkeypatch):
        """A reference that disagrees on one policy of a grouped task is
        reported against that policy's cell, not the task's first."""
        spec = dataclasses.replace(sim_spec(), n_traces=2,
                                   devices=("mobile_hdd",),
                                   traces=sim_spec().traces[:1])
        real = simsweep.reference_sim_chunk

        def skewed(*task):
            per_policy = real(*task)
            per_policy[2] = [dataclasses.replace(r, total_energy=1e9)
                             for r in per_policy[2]]
            return per_policy

        monkeypatch.setattr(simsweep, "reference_sim_chunk", skewed)
        with pytest.raises(InvariantViolation) as err:
            SimSweepRunner(chunk_size=2, verify_fraction=1.0).run(spec)
        details = err.value.details
        assert {(d["cell"], d["seed"]) for d in details
                if d["field"] == "total_energy"} == \
            {(2, s) for s in spec.seeds()}


class TestSharedWorkRunsOnce:
    def _count(self, monkeypatch):
        calls: dict = {}
        for name in ("dispatch", "dispatch_with_faults",
                     "dispatch_with_overload"):
            _counting(monkeypatch, Dispatcher, name, calls)
        _counting(monkeypatch, TraceSpec, "realize", calls)
        return calls

    @pytest.mark.parametrize("routing,method", [
        ("plain", "dispatch"), ("overload", "dispatch_with_overload"),
    ])
    def test_fleet_chunk_routes_each_trace_once_for_all_policies(
        self, monkeypatch, routing, method
    ):
        spec = fleet_spec(routing)
        seeds = spec.seeds()[:3]
        calls = self._count(monkeypatch)
        fleet_sweep.run_fleet_chunk(*fleet_chunk_task(spec, 3, "jsq", seeds))
        assert calls == {method: len(seeds), "realize": len(seeds)}

    def test_sim_realizes_each_trace_once_per_device_and_family(
        self, monkeypatch
    ):
        spec = sim_spec()
        calls = self._count(monkeypatch)
        SimSweepRunner(chunk_size=3).run(spec)
        assert calls == {
            "realize": len(spec.devices) * len(spec.traces) * spec.n_traces,
        }


class TestCheckpointKeyCoversLayout:
    def test_old_one_cell_per_task_sim_journal_is_rejected(self, tmp_path):
        """A journal from the one-cell-per-task layout (same spec, same
        chunk width) holds one report list per task where the grouped
        layout expects one per policy; resuming from it must fail
        loudly, not load reports into the wrong cells."""
        spec = dataclasses.replace(sim_spec(), n_traces=4)
        chunk_size = 2
        seeds = spec.seeds()
        ck = tmp_path / "sim.ck"
        old = CheckpointJournal(ck, spec_hash(spec, chunk_size))
        unit = 0
        for device in spec.devices:
            for trace in spec.traces:
                for p in spec.policies:
                    for lo in range(0, len(seeds), chunk_size):
                        (reports,) = simsweep.run_sim_chunk(
                            device, (p,), trace, spec.service_time,
                            seeds[lo:lo + chunk_size])
                        old.append(unit, reports)
                        unit += 1
        runner = SimSweepRunner(chunk_size=chunk_size, checkpoint=str(ck))
        with pytest.raises(CheckpointMismatchError) as err:
            runner.run(spec)
        assert spec_hash(spec, chunk_size) in err.value.found_keys
        assert err.value.spec_key == \
            spec_hash(spec, chunk_size, len(spec.policies))

    def test_fleet_journal_keyed_without_layout_is_rejected(self, tmp_path):
        """Fleet tasks keep one cell each, but the key now carries the
        layout, so a journal keyed by spec and chunk width alone is
        refused rather than silently recomputed into."""
        spec = fleet_spec(n_traces=4)
        ck = tmp_path / "fleet.ck"
        CheckpointJournal(ck, spec_hash(spec, 2)).append(0, [])
        with pytest.raises(CheckpointMismatchError) as err:
            FleetSweepRunner(chunk_size=2, checkpoint=str(ck)).run(spec)
        assert err.value.spec_key == spec_hash(spec, 2, 1)

    def test_grouped_journal_resumes_bit_identically(self, tmp_path):
        spec = dataclasses.replace(sim_spec(), n_traces=4)
        ck = tmp_path / "sim.ck"
        first = SimSweepRunner(chunk_size=2, checkpoint=str(ck)).run(spec)
        again = SimSweepRunner(chunk_size=2, checkpoint=str(ck)).run(spec)
        assert again.execution["computed_chunks"] == 0
        assert again.execution["resumed_chunks"] == \
            len(spec.devices) * len(spec.traces) * 2
        for a, b in zip(first.cells, again.cells):
            assert a.reports == b.reports


class TestGroupedCostModel:
    def test_sim_prices_one_realization_plus_policies(self):
        spec = sim_spec()
        requests = 2 * float(np.mean(
            [t.dist.rate() * t.duration for t in spec.traces]))
        expected = requests * REALIZE_SECONDS_PER_REQUEST + sum(
            estimate_request_seconds(p.policy, requests) for p in POLICIES)
        est = SimSweepRunner(chunk_size=2).estimate_chunk_seconds(spec)
        assert est == pytest.approx(expected, rel=1e-12)

    def test_perfbench_fleet_shape_runs_on_two_workers(self, monkeypatch):
        """The default FleetConfig at 1,200 s with n_jobs=2 must keep its
        pool on a 2-core host: one task per (cell, seed chunk) still
        clears the pool's spin-up cost."""
        monkeypatch.setattr(executor, "_host_cpu_count", lambda: 2)
        # decide as on the real host, then execute in-process
        monkeypatch.setattr(chunked, "get_executor",
                            lambda n_jobs: SerialExecutor())
        config = dataclasses.replace(FleetConfig(), duration=1_200.0,
                                     n_jobs=2)
        spec = build_fleet_sweep_spec(config)
        runner = FleetSweepRunner(chunk_size=config.chunk_size,
                                  n_jobs=config.n_jobs)
        result = runner.run(spec)
        assert result.execution["decision"] == "parallel"
        assert result.execution["n_jobs_effective"] == 2
        n_tasks = (len(spec.fleet_sizes) * len(spec.routers)
                   * len(spec.policies)
                   * math.ceil(spec.n_traces / runner.chunk_size))
        assert result.execution["metrics"]["counters"][
            "executor.chunks_completed"] == n_tasks


class TestOverloadPathFires:
    @pytest.mark.parametrize("router", ["jsq", "power_aware"])
    def test_ci_overload_config_sheds_retries_drops_and_trips(self, router):
        """The CI smoke lines ``fleet-sweep --quick --devices 2 --router
        {jsq,power_aware} --mtbf 120 --mttr 15 --slo 30 --breaker 3
        --retry-budget 16`` through the runner: every overload counter
        must move, so the multi-policy chunk under active overload
        cannot go idle."""
        config = dataclasses.replace(
            FleetConfig(), duration=500.0, n_traces=4, fleet_sizes=(2,),
            routers=(router,), mtbf=120.0, mttr=15.0, slo=30.0, breaker=3,
            retry_budget=16.0,
        )
        spec = build_fleet_sweep_spec(config)
        result = FleetSweepRunner(chunk_size=config.chunk_size).run(spec)
        reports = [r for c in result.cells for r in c.reports]
        assert sum(r.n_retries for r in reports) > 0
        assert sum(r.n_dropped for r in reports) > 0
        assert sum(r.n_shed for r in reports) > 0
        assert sum(r.n_breaker_trips for r in reports) > 0
        counters = result.execution["metrics"]["counters"]
        assert counters["fleet.requests_retried"] == \
            sum(r.n_retries for r in reports)
        assert counters["breaker.trips"] == \
            sum(r.n_breaker_trips for r in reports)
        assert np.isfinite([r.goodput for r in reports]).all()
