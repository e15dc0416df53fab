"""Executor layer: serial/multiprocess parity, determinism, validation.

The contract under test is the tentpole guarantee: per-seed sweep
results are bit-identical for every ``(batch_size, n_jobs)``
combination — chunks are pure functions of their seeds, the pool
preserves task order, and model-based chunks shard like any other.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.device import abstract_three_state
from repro.env import build_dpm_model
from repro.runtime import (
    MultiprocessExecutor,
    RolloutSpec,
    SerialExecutor,
    SweepRunner,
    get_executor,
    spec_hash,
)
from repro.runtime.sweep import LEARNING_CROSSOVER
from repro.workload import ConstantRate


@pytest.fixture(scope="module")
def spec():
    return RolloutSpec(
        schedule=ConstantRate(0.15),
        n_slots=2_000,
        record_every=500,
        queue_capacity=6,
        epsilon=0.08,
    )


def _square(x):
    return x * x


def _pid_square(x):
    return os.getpid(), x * x


def _assert_identical(a, b):
    assert [r.seed for r in a.runs] == [r.seed for r in b.runs]
    for x, y in zip(a.runs, b.runs):
        assert x.mean_reward == y.mean_reward
        assert x.saving_ratio == y.saving_ratio
        assert np.array_equal(x.history.reward, y.history.reward)
        assert np.array_equal(x.history.energy, y.history.energy)
        assert x.totals == y.totals


class TestExecutorPrimitives:
    def test_get_executor_kinds(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(4), MultiprocessExecutor)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "two", None])
    def test_invalid_n_jobs_raises(self, bad):
        with pytest.raises(ValueError):
            get_executor(bad)

    def test_serial_submit_all_preserves_order(self):
        tasks = [(i,) for i in range(7)]
        assert SerialExecutor().submit_all(_square, tasks).get() == [
            i * i for i in range(7)
        ]

    def test_multiprocess_submit_all_preserves_order(self):
        tasks = [(i,) for i in range(9)]
        assert MultiprocessExecutor(3).submit_all(_square, tasks).get() == [
            i * i for i in range(9)
        ]

    def test_submit_all_overlaps_then_gets(self):
        pending = MultiprocessExecutor(2).submit_all(_square, [(i,) for i in range(5)])
        # parent-side work happens here, then collection
        assert pending.get() == [0, 1, 4, 9, 16]

    def test_submit_all_single_task_short_circuits_in_process(self):
        """A lone task runs eagerly in the parent: pool spin-up costs
        more than the overlap one task could buy (the BENCH_engine
        quick snapshot showed 2-job sweeps slower than serial)."""
        pending = MultiprocessExecutor(2).submit_all(_pid_square, [(3,)])
        ((pid, value),) = pending.get()
        assert value == 9
        assert pid == os.getpid()

    def test_submit_all_single_worker_short_circuits_in_process(self):
        """One worker cannot overlap anything with itself."""
        pending = MultiprocessExecutor(1).submit_all(
            _pid_square, [(2,), (3,)]
        )
        results = pending.get()
        assert [v for _, v in results] == [4, 9]
        assert all(pid == os.getpid() for pid, _ in results)

    def test_submit_all_cancel_releases_pool(self):
        pending = MultiprocessExecutor(2).submit_all(_square, [(i,) for i in range(4)])
        pending.cancel()  # no leaked workers; safe without get()
        with pytest.raises(RuntimeError, match="cancelled"):
            pending.get()  # loud, not a hang
        empty = MultiprocessExecutor(2).submit_all(_square, [])
        assert empty.get() == []
        empty.cancel()  # no-op on the eager branch
        assert empty.get() == []  # eager results survive cancel

    def test_model_based_spec_survives_pickle(self, mb_spec):
        copy = pickle.loads(pickle.dumps(mb_spec))
        assert copy.model_based == mb_spec.model_based
        assert spec_hash(copy, 1, 1) == spec_hash(mb_spec, 1, 1)


class TestShardedDeterminism:
    def test_learning_bit_identical_across_n_jobs(self, spec):
        seeds = [1, 2, 3, 4, 5, 6]
        serial = SweepRunner(batch_size=2, n_jobs=1).run_many(spec, seeds)
        for n_jobs in (2, 4):
            sharded = SweepRunner(batch_size=2, n_jobs=n_jobs).run_many(spec, seeds)
            _assert_identical(serial, sharded)

    def test_bit_identical_across_batch_sizes_while_sharded(self, spec):
        # two chunks at the crossover width (batched engine) and a
        # one-seed tail (scalar stack), spread over the pool
        seeds = list(range(10, 10 * (2 * LEARNING_CROSSOVER + 2), 10))
        a = SweepRunner(batch_size=1, n_jobs=3).run_many(spec, seeds)
        b = SweepRunner(batch_size=3, n_jobs=2).run_many(spec, seeds)
        c = SweepRunner(batch_size=LEARNING_CROSSOVER,
                        n_jobs=4).run_many(spec, seeds)
        counters = c.execution["metrics"]["counters"]
        assert counters.get("engine.slotted.batched", 0) == 2
        assert counters.get("engine.slotted.scalar", 0) == 1
        _assert_identical(a, b)
        _assert_identical(a, c)

    def test_fixed_policy_bit_identical_across_n_jobs(self):
        model = build_dpm_model(
            abstract_three_state(), arrival_rate=0.15, queue_capacity=6,
            p_serve=0.9,
        )
        policy = model.solve(0.95, "policy_iteration").policy
        pspec = RolloutSpec(
            schedule=ConstantRate(0.15), n_slots=1_000, record_every=1_000,
            queue_capacity=6, policy=policy,
        )
        seeds = [7, 8, 9, 10]
        serial = SweepRunner(batch_size=1, n_jobs=1).run_many(pspec, seeds)
        sharded = SweepRunner(batch_size=1, n_jobs=4).run_many(pspec, seeds)
        _assert_identical(serial, sharded)

    def test_model_based_bit_identical_across_n_jobs(
            self, mb_spec, assert_same_mb_runs):
        seeds = [5, 6, 7]
        serial = SweepRunner(batch_size=1, n_jobs=1).run_many(mb_spec, seeds)
        sharded = SweepRunner(batch_size=1, n_jobs=2).run_many(mb_spec, seeds)
        assert sharded.execution["n_jobs_effective"] == 2
        assert_same_mb_runs(serial.runs, sharded.runs)

    def test_model_based_chunks_run_on_the_pool(self, mb_spec):
        result = SweepRunner(batch_size=1, n_jobs=2).run_many(mb_spec, [5, 6])
        assert result.execution["decision"] == "parallel"
        assert result.execution["n_jobs_effective"] == 2
        # counted where each worker picks the engine, shipped home
        counters = result.execution["metrics"]["counters"]
        assert counters["engine.slotted.model_based"] == 2
        assert "engine.slotted.scalar" not in counters

    def test_model_based_seeds_spread_one_per_chunk(
            self, mb_spec, assert_same_mb_runs):
        # the default batch_size is a lock-step width the model-based
        # controller cannot use: its seeds still run one per chunk
        seeds = [5, 6, 7, 8]
        serial = SweepRunner(n_jobs=1).run_many(mb_spec, seeds)
        pooled = SweepRunner(n_jobs=2).run_many(mb_spec, seeds)
        assert pooled.execution["n_jobs_effective"] == 2
        counters = pooled.execution["metrics"]["counters"]
        assert counters["engine.slotted.model_based"] == 4
        assert_same_mb_runs(serial.runs, pooled.runs)


class TestSnapshotSemantics:
    def test_snapshots_same_when_sharded(self, spec):
        # three chunks on a three-worker pool: the lead seed's chunk runs
        # on a worker and still returns the snapshots a serial run does
        seeds = [1, 2, 3, 4, 5, 6]
        snap = replace(spec, snapshot_seeds=(1,))
        pooled = SweepRunner(batch_size=2, n_jobs=3).run_many(snap, seeds)
        serial = SweepRunner(batch_size=2, n_jobs=1).run_many(snap, seeds)
        assert pooled.execution["n_jobs_effective"] == 3
        _assert_identical(serial, pooled)
        lead = pooled.runs[0].snapshots
        assert lead.shape == (spec.n_slots // spec.record_every,
                              spec.scalar_env(1).n_states)
        assert np.array_equal(lead, serial.runs[0].snapshots)

    def test_only_listed_seeds_snapshot_in_every_chunk(self, spec):
        seeds = [1, 2, 3, 4, 5, 6]
        snap = replace(spec, snapshot_seeds=(2, 3, 6))
        result = SweepRunner(batch_size=2).run_many(snap, seeds)
        assert [r.seed for r in result.runs
                if r.snapshots is not None] == [2, 3, 6]
        for run in result.runs:
            if run.snapshots is not None:
                assert len(run.snapshots) == len(run.history)


class TestValidation:
    # constructor settings are validated once for every runner:
    # tests/test_runtime_chunked.py::TestValidation

    def test_bad_call_args_raise(self, spec):
        runner = SweepRunner()
        with pytest.raises(ValueError):
            runner.run_many(spec, seeds=[])
