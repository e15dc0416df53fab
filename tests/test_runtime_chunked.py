"""The shared chunked-sweep core behind the four sweep runners.

Validation, interrupt handling and the invariant pass live once in
:mod:`repro.runtime.chunked`; these tests pin that every runner gets
them: ``SweepRunner``, ``GridRunner``, ``SimSweepRunner`` and
``FleetSweepRunner`` reject the same bad settings, turn a Ctrl-C inside
a chunk into ``SweepInterrupted`` on every path, and invariant-check
every result they return (grid cells and model-based seeds included).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import QDPM
from repro.device import abstract_three_state
from repro.env import SlottedDPMEnv
from repro.fleet import FleetSweepRunner
from repro.mdp import DeterministicPolicy
from repro.runtime import (
    GridRunner,
    GridSpec,
    RolloutSpec,
    SimSweepRunner,
    SweepRunner,
)
from repro.runtime import sweep as sweep_mod
from repro.runtime.verify import InvariantViolation, SweepInterrupted
from repro.workload import ConstantRate

#: every runner with the name of its chunk-width knob
RUNNERS = {
    "sweep": (SweepRunner, "batch_size"),
    "grid": (GridRunner, "batch_size"),
    "sim": (SimSweepRunner, "chunk_size"),
    "fleet": (FleetSweepRunner, "chunk_size"),
}

#: bad constructor settings, as (runner, keyword, value)
BAD_SETTINGS = [
    (name, knob, value)
    for name in RUNNERS
    for knob, value in (("n_jobs", 0), ("n_jobs", -3), ("size", 0))
] + [
    (name, knob, value)
    for name in ("sweep", "sim", "fleet")
    for knob, value in (("max_retries", -1), ("verify_fraction", 1.5))
]


@pytest.fixture(scope="module")
def spec():
    return RolloutSpec(
        schedule=ConstantRate(0.15), n_slots=300, record_every=100,
        queue_capacity=6, epsilon=0.08,
    )


def _factory(seed):
    """Module-level controller factory matching ``spec`` above."""
    env = SlottedDPMEnv(
        abstract_three_state(), ConstantRate(0.15), queue_capacity=6,
        p_serve=0.9, seed=seed,
    )
    return QDPM(env, epsilon=0.08, seed=seed + 1)


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class TestValidation:
    @pytest.mark.parametrize("name,knob,value", BAD_SETTINGS)
    def test_bad_settings_raise(self, name, knob, value):
        runner, size_knob = RUNNERS[name]
        with pytest.raises(ValueError, match=size_knob if knob == "size"
                           else knob):
            runner(**{size_knob if knob == "size" else knob: value})

    def test_factory_with_checkpoint_raises(self, spec, tmp_path):
        runner = SweepRunner(checkpoint=str(tmp_path / "ck"))
        with pytest.raises(ValueError, match="controller_factory"):
            runner.run_many(spec, [1], controller_factory=_factory)

    def test_snapshot_seeds_need_a_learning_slotted_spec(self, spec):
        # a fixed policy has no Q-table; a factory's controller is opaque
        with pytest.raises(ValueError, match="snapshot_seeds"):
            replace(spec, policy=DeterministicPolicy(np.zeros(4, dtype=int)),
                    snapshot_seeds=(1,))
        with pytest.raises(ValueError, match="snapshot_seeds"):
            SweepRunner().run_many(replace(spec, snapshot_seeds=(1,)), [1],
                                   controller_factory=_factory)


class TestInterrupts:
    """A Ctrl-C inside any chunk surfaces as SweepInterrupted, never as
    a bare KeyboardInterrupt (the CLI only catches the former)."""

    def test_sweep_without_hooks(self, spec, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_chunk", _interrupt)
        with pytest.raises(SweepInterrupted) as err:
            SweepRunner(batch_size=1).run_many(spec, [1, 2])
        assert err.value.n_total == 2
        assert "checkpoint" in err.value.resume_hint()

    def test_sweep_interrupted_while_snapshotting(self, spec, monkeypatch):
        # Ctrl-C lands while the second chunk records a snapshot
        monkeypatch.setattr(QDPM, "greedy_policy", _interrupt)
        with pytest.raises(SweepInterrupted) as err:
            SweepRunner(batch_size=1).run_many(
                replace(spec, snapshot_seeds=(2,)), [1, 2])
        assert (err.value.n_completed, err.value.n_total) == (1, 2)

    def test_shadow_verification(self, spec, monkeypatch):
        monkeypatch.setattr(sweep_mod, "reference_seed_runs", _interrupt)
        with pytest.raises(SweepInterrupted) as err:
            SweepRunner(verify_fraction=1.0).run_many(spec, [1])
        assert (err.value.n_completed, err.value.n_total) == (1, 1)

    def test_grid(self, spec, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_chunk", _interrupt)
        grid = GridSpec(base=spec, rates=(0.1, 0.2))
        with pytest.raises(SweepInterrupted) as err:
            GridRunner(batch_size=1).run(grid, [1, 2])
        assert err.value.n_total == 4


class TestInvariantPass:
    def test_grid_checks_every_seed_run(self, spec):
        grid = GridSpec(base=spec, rates=(0.1, 0.2))
        result = GridRunner(batch_size=2).run(grid, [1, 2, 3])
        counters = result.execution["metrics"]["counters"]
        assert counters["verify.invariant_checks"] == grid.n_cells * 3
        # 2 cells x 2 chunks of at most 2 seeds
        assert counters["executor.chunks_completed"] == 4
        assert result.execution["n_jobs_effective"] == 1
        assert result.execution["decision"] == "serial_requested"

    def test_grid_rejects_a_corrupt_run(self, spec, monkeypatch):
        real = sweep_mod.run_chunk

        def corrupt(*args, **kwargs):
            runs = real(*args, **kwargs)
            runs[0].saving_ratio = 2.0
            return runs

        monkeypatch.setattr(sweep_mod, "run_chunk", corrupt)
        with pytest.raises(InvariantViolation) as err:
            GridRunner().run(GridSpec(base=spec, rates=(0.1,)), [1])
        assert err.value.invariant == "seed_run"

    def test_model_based_seeds_are_checked(self, spec):
        result = SweepRunner().run_many(spec, [5, 6, 7],
                                        controller_factory=_factory)
        counters = result.execution["metrics"]["counters"]
        assert counters["verify.invariant_checks"] == 3
        assert counters["executor.chunks_completed"] == 3

    def test_unpicklable_factory_runs_in_process(self, spec):
        result = SweepRunner(n_jobs=2).run_many(
            spec, [5, 6], controller_factory=lambda seed: _factory(seed),
        )
        assert result.execution["n_jobs_requested"] == 2
        assert result.execution["n_jobs_effective"] == 1
        assert result.execution["decision"] == "unpicklable_factory"
