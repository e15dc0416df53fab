"""GridRunner: cell realization, sharded execution, CI aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import GridRunner, GridSpec, RolloutSpec
from repro.workload import ConstantRate, SinusoidalRate


@pytest.fixture(scope="module")
def base():
    return RolloutSpec(
        schedule=ConstantRate(0.15),
        n_slots=1_500,
        record_every=500,
        queue_capacity=6,
        epsilon=0.08,
    )


class TestGridSpec:
    def test_cells_cartesian_product(self, base):
        grid = GridSpec(
            base=base,
            rates=(0.05, 0.3),
            devices=("abstract3", "two_state"),
            horizons=(1_000, 2_000),
            controllers=("qdpm", "frozen"),
        )
        cells = grid.cells()
        assert grid.n_cells == len(cells) == 16
        coords = {(c.rate, c.device, c.n_slots, c.controller) for c in cells}
        assert len(coords) == 16
        for cell in cells:
            assert cell.spec.n_slots == cell.n_slots
            assert cell.spec.device == cell.device
            if cell.controller == "frozen":
                assert cell.spec.policy is not None
                assert cell.spec.warmup_slots == 0
            else:
                assert cell.spec.policy is None

    def test_horizons_default_to_base(self, base):
        grid = GridSpec(base=base, rates=(0.1,))
        assert grid.horizons == (base.n_slots,)

    def test_schedule_axis_entries_pass_through(self, base):
        drift = SinusoidalRate(0.2, 0.1, 500)
        grid = GridSpec(base=base, rates=(drift,), controllers=("qdpm", "frozen"))
        cells = grid.cells()
        assert all(c.spec.schedule is drift for c in cells)
        assert "SinusoidalRate" in cells[0].rate_label

    def test_validation(self, base):
        with pytest.raises(ValueError):
            GridSpec(base=base, rates=())
        with pytest.raises(ValueError):
            GridSpec(base=base, rates=(0.1,), devices=())
        with pytest.raises(ValueError):
            GridSpec(base=base, rates=(0.1,), controllers=("warp",))
        with pytest.raises(ValueError):
            GridSpec(base=base, rates=(0.1,), horizons=(0,))
        with pytest.raises(ValueError):
            GridRunner(batch_size=0)
        with pytest.raises(ValueError):
            GridRunner(n_jobs=0)

    def test_empty_seeds_raise(self, base):
        grid = GridSpec(base=base, rates=(0.1,))
        with pytest.raises(ValueError):
            GridRunner().run(grid, seeds=[])

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_seeds_must_be_whole_numbers(self, base, seed):
        grid = GridSpec(base=base, rates=(0.1,))
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            GridRunner().run(grid, seeds=[seed])


class TestGridRunner:
    def test_cells_match_plain_sweeps(self, base):
        """A grid cell is exactly a SweepRunner sweep of its spec."""
        from repro.runtime import SweepRunner

        grid = GridSpec(base=base, rates=(0.05, 0.3), controllers=("qdpm",))
        seeds = [1, 2, 3]
        result = GridRunner(batch_size=2).run(grid, seeds)
        for cr in result.cells:
            direct = SweepRunner(batch_size=2).run_many(cr.cell.spec, seeds)
            assert np.array_equal(cr.result.rewards(), direct.rewards())
            assert np.array_equal(cr.result.savings(), direct.savings())

    def test_bit_identical_across_n_jobs_and_batch(self, base):
        grid = GridSpec(
            base=base, rates=(0.05, 0.3), controllers=("qdpm", "frozen")
        )
        seeds = [1, 2, 3]
        a = GridRunner(batch_size=2, n_jobs=1).run(grid, seeds)
        b = GridRunner(batch_size=2, n_jobs=3).run(grid, seeds)
        c = GridRunner(batch_size=1, n_jobs=2).run(grid, seeds)
        for x, y in ((a, b), (a, c)):
            for cx, cy in zip(x.cells, y.cells):
                assert cx.result.seeds == cy.result.seeds == seeds
                assert np.array_equal(cx.result.rewards(), cy.result.rewards())
                assert np.array_equal(cx.result.savings(), cy.result.savings())

    def test_render_table(self, base):
        grid = GridSpec(base=base, rates=(0.05,), controllers=("qdpm", "frozen"))
        result = GridRunner(batch_size=2).run(grid, seeds=[1, 2])
        out = result.render()
        assert "GRID: 2 cells" in out
        assert "frozen" in out and "qdpm" in out
        assert "reward +-95" in out  # multi-seed: CI columns present

    def test_single_seed_renders_without_ci(self, base):
        grid = GridSpec(base=base, rates=(0.05,))
        out = GridRunner().run(grid, seeds=[1]).render()
        assert "reward +-95" not in out


class TestRunGridConfigPlumbing:
    def test_config_fields_forward_into_cells(self):
        """The experiments wrapper must thread every GridConfig knob into
        the realized cell specs (the CLI path CI smoke otherwise owns)."""
        from repro.experiments import GridConfig, SweepConfig, run_grid

        config = GridConfig(
            rates=(0.1, 0.2),
            devices=("abstract3",),
            horizons=(800,),
            controllers=("qdpm",),
            record_every=400,
            learning_rate=0.3,
            epsilon=0.2,
            sweep=SweepConfig(n_seeds=2, batch_size=2, n_jobs=2),
        )
        result = run_grid(config)
        assert result.seeds == config.seeds()
        assert [c.cell.rate for c in result.cells] == [0.1, 0.2]
        for cr in result.cells:
            spec = cr.cell.spec
            assert spec.n_slots == 800
            assert spec.record_every == 400
            assert spec.learning_rate == 0.3
            assert spec.epsilon == 0.2
            assert spec.queue_capacity == config.env.queue_capacity
            assert cr.result.n_seeds == 2
