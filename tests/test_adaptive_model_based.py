"""Model-based adaptive DPM controller tests."""

import numpy as np
import pytest

from repro.adaptive import (
    AdaptationEvent,
    AdaptationLog,
    BernoulliCUSUM,
    ModelBasedAdaptiveDPM,
    SlidingWindowEstimator,
)
from repro.device import abstract_three_state
from repro.env import SlottedDPMEnv, build_dpm_model
from repro.workload import ConstantRate, PiecewiseConstantRate


def make_env(schedule, seed=0):
    return SlottedDPMEnv(
        abstract_three_state(), schedule, queue_capacity=4, p_serve=0.9, seed=seed
    )


class TestStationary:
    def test_tracks_optimal_in_stationary_env(self):
        env = make_env(ConstantRate(0.15), seed=1)
        controller = ModelBasedAdaptiveDPM(
            env, solver="policy_iteration", initial_rate=0.15,
        )
        hist = controller.run(30_000, record_every=30_000)
        model = build_dpm_model(
            abstract_three_state(), arrival_rate=0.15,
            queue_capacity=4, p_serve=0.9,
        )
        opt = model.solve(0.95, "policy_iteration")
        opt_reward = model.evaluate_policy(opt.policy).average_reward
        # executes the exact optimal policy: empirical reward near optimal
        assert hist.reward[-1] == pytest.approx(opt_reward, abs=0.05)

    def test_initial_policy_matches_solver(self):
        env = make_env(ConstantRate(0.15))
        controller = ModelBasedAdaptiveDPM(
            env, solver="policy_iteration", initial_rate=0.15
        )
        model = build_dpm_model(
            abstract_three_state(), arrival_rate=0.15,
            queue_capacity=4, p_serve=0.9,
        )
        opt = model.solve(0.95, "policy_iteration")
        assert controller.policy.agreement(opt.policy) == 1.0


class TestAdaptation:
    def test_reoptimizes_after_switch(self):
        schedule = PiecewiseConstantRate([(5_000, 0.30), (15_000, 0.03)])
        env = make_env(schedule, seed=2)
        controller = ModelBasedAdaptiveDPM(
            env,
            solver="policy_iteration",
            estimator=SlidingWindowEstimator(1_000),
            detector=BernoulliCUSUM(0.30, drift=0.03, threshold=8.0),
            min_samples=500,
            initial_rate=0.30,
        )
        controller.run(20_000, record_every=5_000)
        assert controller.log.n_reoptimizations >= 1
        rates = [e.detected_rate for e in controller.log.events]
        # at least one re-optimization must have seen the new low rate
        assert min(rates) < 0.1

    def test_freeze_delays_adaptation(self):
        schedule = PiecewiseConstantRate([(2_000, 0.30), (8_000, 0.03)])
        env_fast = make_env(schedule, seed=3)
        env_slow = make_env(schedule, seed=3)
        common = dict(
            solver="policy_iteration",
            min_samples=300,
            initial_rate=0.30,
        )
        fast = ModelBasedAdaptiveDPM(
            env_fast,
            estimator=SlidingWindowEstimator(500),
            detector=BernoulliCUSUM(0.30, drift=0.03, threshold=8.0),
            freeze_slots=0,
            **common,
        )
        slow = ModelBasedAdaptiveDPM(
            env_slow,
            estimator=SlidingWindowEstimator(500),
            detector=BernoulliCUSUM(0.30, drift=0.03, threshold=8.0),
            freeze_slots=4_000,
            **common,
        )
        fast.run(10_000, record_every=10_000)
        slow.run(10_000, record_every=10_000)
        first_fast = fast.log.events[0].slot if fast.log.events else 10_000
        first_slow = slow.log.events[0].slot if slow.log.events else 10_000
        assert first_slow >= first_fast + 3_000

    def test_overhead_accounting(self):
        env = make_env(ConstantRate(0.2), seed=4)
        controller = ModelBasedAdaptiveDPM(env, solver="value_iteration",
                                           initial_rate=0.2)
        controller.run(3_000, record_every=1_000)
        log = controller.log
        assert log.estimator_seconds > 0
        assert log.detector_seconds > 0

    def test_history_compatible_with_qdpm(self):
        env = make_env(ConstantRate(0.2), seed=5)
        controller = ModelBasedAdaptiveDPM(env, solver="value_iteration",
                                           initial_rate=0.2)
        hist = controller.run(4_000, record_every=1_000)
        assert len(hist) == 4
        assert np.all(hist.td_error == 0)

    def test_validation(self):
        env = make_env(ConstantRate(0.2))
        with pytest.raises(ValueError):
            ModelBasedAdaptiveDPM(env, min_samples=0)
        with pytest.raises(ValueError):
            ModelBasedAdaptiveDPM(env, freeze_slots=-1)
        controller = ModelBasedAdaptiveDPM(env, solver="value_iteration",
                                           initial_rate=0.2)
        with pytest.raises(ValueError):
            controller.run(0)


class TestAdaptationLog:
    def test_totals_over_events(self):
        log = AdaptationLog()
        assert log.n_reoptimizations == 0
        assert log.optimize_seconds == 0
        log.events.append(AdaptationEvent(slot=10, detected_rate=0.1,
                                          optimize_seconds=0.25))
        log.events.append(AdaptationEvent(slot=90, detected_rate=0.3,
                                          optimize_seconds=0.5))
        assert log.n_reoptimizations == 2
        assert log.optimize_seconds == 0.75

    def test_initial_solve_is_not_an_adaptation(self):
        controller = ModelBasedAdaptiveDPM(
            make_env(ConstantRate(0.2)), solver="value_iteration",
            initial_rate=0.2,
        )
        assert controller.log.n_reoptimizations == 0
        assert controller.detector.target_rate == 0.2
