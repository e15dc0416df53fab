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


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class TestValidation:
    @pytest.mark.parametrize("name,knob,value", BAD_SETTINGS)
    def test_bad_settings_raise(self, name, knob, value):
        runner, size_knob = RUNNERS[name]
        with pytest.raises(ValueError, match=size_knob if knob == "size"
                           else knob):
            runner(**{size_knob if knob == "size" else knob: value})

    def test_snapshot_seeds_need_a_learning_slotted_spec(self, spec,
                                                         mb_spec):
        # a fixed policy has no Q-table; a model-based controller has none
        # either
        with pytest.raises(ValueError, match="snapshot_seeds"):
            replace(spec, policy=DeterministicPolicy(np.zeros(4, dtype=int)),
                    snapshot_seeds=(1,))
        with pytest.raises(ValueError, match="snapshot_seeds"):
            replace(mb_spec, snapshot_seeds=(1,))

    @pytest.mark.parametrize("field,value", [
        ("policy", DeterministicPolicy(np.zeros(4, dtype=int))),
        ("warmup_slots", 100),
    ])
    def test_model_based_takes_no_policy_or_warmup(self, mb_spec, field,
                                                   value):
        with pytest.raises(ValueError, match="model_based"):
            replace(mb_spec, **{field: value})


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

    def test_model_based_seeds_are_checked(self, mb_spec):
        result = SweepRunner(batch_size=1).run_many(mb_spec, [5, 6, 7])
        counters = result.execution["metrics"]["counters"]
        assert counters["verify.invariant_checks"] == 3
        assert counters["executor.chunks_completed"] == 3

    def test_model_based_adds_no_verification_block(self, mb_spec):
        # no second engine runs a model-based controller
        result = SweepRunner(verify_fraction=1.0).run_many(mb_spec, [5, 6])
        assert "verification" not in result.execution
        assert "verify.shadow_chunks" not in (
            result.execution["metrics"]["counters"])
