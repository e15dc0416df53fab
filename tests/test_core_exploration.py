"""Exploration strategy tests."""

import numpy as np
import pytest

from repro.core import (
    Boltzmann,
    Constant,
    EpsilonGreedy,
    FixedDrawEpsilonGreedy,
    Greedy,
    LinearDecay,
    QTable,
)
from repro.runtime import RolloutSpec, SweepRunner
from repro.workload import ConstantRate


@pytest.fixture
def table():
    t = QTable(1, 4)
    t.set(0, 2, 10.0)  # clear greedy winner
    return t


class TestGreedy:
    def test_picks_best(self, table, rng):
        assert Greedy().select(table, 0, [0, 1, 2, 3], 0, rng) == 2

    def test_respects_mask(self, table, rng):
        # action 2 (the global best) is masked; ties break among the rest
        picks = {Greedy().select(table, 0, [0, 1, 3], 0, rng) for _ in range(30)}
        assert picks <= {0, 1, 3}


class TestEpsilonGreedy:
    def test_zero_epsilon_is_greedy(self, table, rng):
        strat = EpsilonGreedy(0.0)
        assert all(
            strat.select(table, 0, [0, 1, 2, 3], i, rng) == 2 for i in range(50)
        )

    def test_one_epsilon_is_uniform(self, table, rng):
        strat = EpsilonGreedy(1.0)
        picks = [strat.select(table, 0, [0, 1, 2, 3], i, rng) for i in range(2000)]
        counts = np.bincount(picks, minlength=4)
        assert (counts > 400).all()  # near 500 each

    def test_intermediate_epsilon_rate(self, table, rng):
        strat = EpsilonGreedy(0.4)
        picks = [strat.select(table, 0, [0, 1, 2, 3], i, rng) for i in range(4000)]
        greedy_frac = np.mean([p == 2 for p in picks])
        assert greedy_frac == pytest.approx(1 - 0.4 + 0.4 / 4, abs=0.04)

    def test_only_allowed_actions(self, table, rng):
        strat = EpsilonGreedy(1.0)
        picks = {strat.select(table, 0, [1, 3], i, rng) for i in range(100)}
        assert picks <= {1, 3}

    def test_empty_allowed_raises(self, table, rng):
        with pytest.raises(ValueError):
            EpsilonGreedy(0.5).select(table, 0, [], 0, rng)

    def test_scheduled_epsilon(self, table, rng):
        strat = EpsilonGreedy(LinearDecay(1.0, 0.0, steps=10))
        assert strat.epsilon_at(0) == 1.0
        assert strat.epsilon_at(10) == 0.0
        # at step >= 10, pure greedy
        assert all(
            strat.select(table, 0, [0, 1, 2, 3], 20, rng) == 2 for _ in range(20)
        )


@pytest.mark.parametrize("strategy", [EpsilonGreedy, FixedDrawEpsilonGreedy])
@pytest.mark.parametrize("epsilon", [2.0, -0.1, float("nan")])
def test_constant_epsilon_outside_unit_interval_rejected(strategy, epsilon):
    """The scalar stack refuses what the batched engine refuses, with
    the same message."""
    with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\]"):
        strategy(epsilon)


def test_sweep_refuses_bad_epsilon_at_every_width():
    """One seed runs on the scalar stack, 32 on the batched engine:
    both refuse an epsilon outside [0, 1]."""
    spec = RolloutSpec(schedule=ConstantRate(0.15), n_slots=200,
                       record_every=100, epsilon=2.0)
    for seeds in ([0], list(range(32))):
        with pytest.raises(RuntimeError) as info:
            SweepRunner(batch_size=32).run_many(spec, seeds)
        assert "epsilon must be in [0, 1]" in str(info.value.__cause__)


class TestFixedDrawEpsilonGreedy:
    def test_consumes_exactly_three_uniforms_per_call(self, table):
        strat = FixedDrawEpsilonGreedy(0.3)
        rng = np.random.default_rng(0)
        twin = np.random.default_rng(0)
        for step in range(50):
            strat.select(table, 0, [0, 1, 2, 3], step, rng)
            twin.random(3)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_zero_epsilon_is_greedy_and_still_draws(self, table):
        strat = FixedDrawEpsilonGreedy(0.0)
        rng = np.random.default_rng(1)
        twin = np.random.default_rng(1)
        assert all(
            strat.select(table, 0, [0, 1, 2, 3], i, rng) == 2 for i in range(50)
        )
        twin.random(3 * 50)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_matches_epsilon_greedy_distribution(self, table):
        strat = FixedDrawEpsilonGreedy(0.4)
        rng = np.random.default_rng(2)
        picks = [strat.select(table, 0, [0, 1, 2, 3], i, rng) for i in range(4000)]
        greedy_frac = np.mean([p == 2 for p in picks])
        assert greedy_frac == pytest.approx(1 - 0.4 + 0.4 / 4, abs=0.04)

    def test_uniform_tie_breaking(self):
        ties = QTable(1, 3)  # all zeros: every action ties
        strat = FixedDrawEpsilonGreedy(0.0)
        rng = np.random.default_rng(3)
        picks = [strat.select(ties, 0, [0, 1, 2], i, rng) for i in range(3000)]
        counts = np.bincount(picks, minlength=3)
        assert (counts > 800).all()  # near 1000 each

    def test_only_allowed_actions(self, table):
        strat = FixedDrawEpsilonGreedy(1.0)
        rng = np.random.default_rng(4)
        picks = {strat.select(table, 0, [1, 3], i, rng) for i in range(100)}
        assert picks <= {1, 3}

    def test_empty_allowed_raises(self, table, rng):
        with pytest.raises(ValueError):
            FixedDrawEpsilonGreedy(0.5).select(table, 0, [], 0, rng)


class TestBoltzmann:
    def test_low_temperature_is_greedy(self, table, rng):
        strat = Boltzmann(0.01)
        picks = [strat.select(table, 0, [0, 1, 2, 3], i, rng) for i in range(100)]
        assert all(p == 2 for p in picks)

    def test_high_temperature_is_nearly_uniform(self, table, rng):
        strat = Boltzmann(1e6)
        picks = [strat.select(table, 0, [0, 1, 2, 3], i, rng) for i in range(2000)]
        counts = np.bincount(picks, minlength=4)
        assert (counts > 350).all()

    def test_zero_temperature_greedy_fallback(self, table, rng):
        assert Boltzmann(Constant(0.0)).select(table, 0, [0, 1, 2, 3], 0, rng) == 2

    def test_preference_ordering(self, rng):
        t = QTable(1, 3)
        t.set(0, 0, 0.0)
        t.set(0, 1, 1.0)
        t.set(0, 2, 2.0)
        strat = Boltzmann(1.0)
        picks = [strat.select(t, 0, [0, 1, 2], i, rng) for i in range(3000)]
        counts = np.bincount(picks, minlength=3)
        assert counts[0] < counts[1] < counts[2]

    def test_empty_allowed_raises(self, table, rng):
        with pytest.raises(ValueError):
            Boltzmann(1.0).select(table, 0, [], 0, rng)
