"""Experiment harness tests (small configurations)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    Fig1Config,
    Fig2Config,
    OverheadConfig,
    PolicyTableConfig,
    SweepConfig,
    VariationConfig,
    run_fig1,
    run_fig2,
    run_overhead,
    run_policy_table,
    run_variation,
)
from repro.runtime import SweepRunner
from repro.runtime.sweep import LEARNING_CROSSOVER


@pytest.fixture(scope="module")
def fig1_result():
    config = dataclasses.replace(
        Fig1Config(), n_slots=40_000, record_every=2_000
    )
    return run_fig1(config)


@pytest.fixture(scope="module")
def fig2_result():
    config = dataclasses.replace(
        Fig2Config(), segment_slots=10_000, record_every=500,
        mb_min_samples=500, mb_freeze_slots=800,
    )
    return run_fig2(config)


class TestFig1:
    def test_shapes_aligned(self, fig1_result):
        res = fig1_result
        n = len(res.slots)
        assert res.online_reward.shape == (n,)
        assert res.snapshot_reward.shape == (n,)
        assert res.snapshot_saving.shape == (n,)

    def test_optimal_is_upper_reference(self, fig1_result):
        res = fig1_result
        assert res.optimal_soft_reward <= res.optimal_reward + 1e-12
        # online payoff can never systematically beat the optimum
        assert res.online_reward.mean() <= res.optimal_reward + 0.02

    def test_learning_improves(self, fig1_result):
        res = fig1_result
        first = res.online_reward[:3].mean()
        last = res.online_reward[-3:].mean()
        assert last > first

    def test_converges_near_soft_optimum(self, fig1_result):
        res = fig1_result
        gap = res.optimal_soft_reward - res.online_reward[-5:].mean()
        assert gap < 0.15

    def test_render_mentions_key_facts(self, fig1_result):
        text = fig1_result.render()
        assert "Fig.1" in text
        assert "optimal payoff/slot" in text
        assert "convergence slot" in text

    def test_horizon_shorter_than_a_record_window_raises(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("fig1 ran a sweep before checking")

        monkeypatch.setattr(SweepRunner, "run_many", no_sweep)
        config = dataclasses.replace(Fig1Config(), n_slots=500,
                                     record_every=1_000)
        with pytest.raises(ValueError,
                           match=r"n_slots \(500\).*record_every \(1000\)"):
            run_fig1(config)

    def test_lead_seed_same_on_scalar_and_batched_engines(self):
        """The lead seed's snapshots are the same whichever engine ran
        its chunk: one seed (scalar stack) and a chunk at the crossover
        width (batched engine) agree on the lead seed."""
        # early records, while some allowed actions are still unvisited:
        # there ``greedy_policy(prefer_visited=False)`` picks differently
        base = dataclasses.replace(Fig1Config(), n_slots=1_000,
                                   record_every=200)
        scalar = run_fig1(base)
        batched = run_fig1(dataclasses.replace(
            base, sweep=SweepConfig(n_seeds=LEARNING_CROSSOVER,
                                    batch_size=LEARNING_CROSSOVER)))
        assert np.array_equal(scalar.snapshot_reward,
                              batched.snapshot_reward)
        assert np.array_equal(scalar.online_reward, batched.online_reward)
        assert (scalar.final_policy_agreement
                == batched.final_policy_agreement)
        engines = [r.execution["metrics"]["counters"]
                   for r in (scalar, batched)]
        assert engines[0]["engine.slotted.scalar"] == 1
        assert engines[1]["engine.slotted.batched"] == 1


class TestFig2:
    def test_switch_points(self, fig2_result):
        assert fig2_result.switch_points == [10_000, 20_000, 30_000]

    def test_segment_optima_counts(self, fig2_result):
        assert len(fig2_result.segment_optimal_reward) == 4
        assert len(fig2_result.qdpm_responses) == 3
        assert len(fig2_result.mb_responses) == 3

    def test_curves_aligned(self, fig2_result):
        res = fig2_result
        assert res.qdpm_reward.shape == res.mb_reward.shape == res.slots.shape

    def test_mb_reoptimized_at_least_once_per_large_switch(self, fig2_result):
        assert fig2_result.mb_log.n_reoptimizations >= 2

    def test_render_contains_analysis(self, fig2_result):
        text = fig2_result.render()
        assert "Rapid Response" in text
        assert "per-switch response time" in text
        assert "re-optimizations" in text

    def test_render_is_independent_of_optimizer_timing(self, fig2_result):
        """The figure prints the re-optimization count, never a
        wall-clock, so identical runs print identical text."""
        log = fig2_result.mb_log
        assert log.events
        slowed = dataclasses.replace(log, events=[
            dataclasses.replace(e, optimize_seconds=e.optimize_seconds + 1.5)
            for e in log.events
        ])
        assert slowed.optimize_seconds != log.optimize_seconds
        text = fig2_result.render()
        assert dataclasses.replace(fig2_result, mb_log=slowed).render() == text
        assert (f"model-based re-optimizations: {log.n_reoptimizations}"
                in text.splitlines())


class TestOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        config = dataclasses.replace(
            OverheadConfig(), queue_capacities=(4, 8), n_q_ops=2_000
        )
        return run_overhead(config)

    def test_rows_per_capacity(self, result):
        assert [r.queue_capacity for r in result.rows] == [4, 8]

    def test_lp_much_slower_than_q_step(self, result):
        for row in result.rows:
            assert row.lp_over_q > 50  # conservative floor; typically >500

    def test_model_memory_dominates_table(self, result):
        for row in result.rows:
            assert row.model_over_table > row.n_states / 2

    def test_states_grow_with_capacity(self, result):
        assert result.rows[1].n_states > result.rows[0].n_states

    def test_render_table(self, result):
        text = result.render()
        assert "CLAIM-EFF" in text
        assert "LP (ms)" in text


class TestVariation:
    @pytest.fixture(scope="class")
    def result(self):
        config = dataclasses.replace(
            VariationConfig(), amplitudes=(0.0, 0.10), n_slots=30_000,
            warmup_slots=30_000,
        )
        return run_variation(config)

    def test_rows(self, result):
        assert [r.amplitude for r in result.rows] == [0.0, 0.10]

    def test_frozen_near_qdpm_when_stationary(self, result):
        row0 = result.rows[0]
        # at zero drift the frozen policy is optimal; Q-DPM pays only the
        # exploration tax
        assert row0.frozen_reward >= row0.qdpm_reward - 0.15

    def test_qdpm_degrades_gracefully(self, result):
        """The tolerance claim, as it actually holds: Q-DPM's payoff drop
        under drift is small, and its gap to the frozen optimal stays a
        bounded tax instead of compounding."""
        stationary, drifting = result.rows
        qdpm_drop = stationary.qdpm_reward - drifting.qdpm_reward
        assert qdpm_drop < 0.15
        assert abs(drifting.reward_gap) < 0.2

    def test_render(self, result):
        assert "CLAIM-VAR" in result.render()


class TestPolicyTable:
    @pytest.fixture(scope="class")
    def result(self):
        config = dataclasses.replace(PolicyTableConfig(), duration=4_000.0)
        return run_policy_table(config)

    def test_grid_complete(self, result):
        assert len(result.rows) == 7 * 2  # 7 policies x 2 traces

    def test_always_on_is_saving_baseline(self, result):
        for row in result.rows:
            if row.policy == "always_on":
                assert row.saving_vs_always_on == pytest.approx(0.0, abs=1e-9)

    def test_oracle_never_wrong_and_best_saving(self, result):
        by_trace = {}
        for row in result.rows:
            by_trace.setdefault(row.trace, {})[row.policy] = row
        for rows in by_trace.values():
            oracle = rows["oracle"]
            assert oracle.n_wrong_shutdowns == 0
            for name, row in rows.items():
                assert oracle.saving_vs_always_on >= row.saving_vs_always_on - 1e-9

    def test_latency_energy_tradeoff_direction(self, result):
        for trace_rows in {r.trace for r in result.rows}:
            rows = {r.policy: r for r in result.rows if r.trace == trace_rows}
            assert rows["greedy"].mean_latency >= rows["always_on"].mean_latency

    def test_render(self, result):
        text = result.render()
        assert "EXT-POLICY" in text
        assert "oracle" in text

    def test_every_cell_report_is_invariant_checked(self, monkeypatch):
        """A cell whose report breaks ``mean_power x duration =
        total_energy`` fails the run instead of landing in the table."""
        from repro.experiments import policy_table
        from repro.runtime import InvariantViolation

        simulate = policy_table._simulate_cell

        def corrupted(config, trace, policy, oracle):
            report = simulate(config, trace, policy, oracle)
            if policy.name == "greedy":
                report = dataclasses.replace(
                    report, total_energy=2.0 * report.total_energy)
            return report

        monkeypatch.setattr(policy_table, "_simulate_cell", corrupted)
        config = dataclasses.replace(PolicyTableConfig(), duration=500.0)
        with pytest.raises(InvariantViolation) as err:
            run_policy_table(config)
        assert err.value.context["policy"] == "greedy"
