"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import abstract_three_state, two_state
from repro.env import SlottedDPMEnv
from repro.workload import ConstantRate


@pytest.fixture
def rng():
    """Deterministic generator for stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def device3():
    """The canonical three-state device."""
    return abstract_three_state()


@pytest.fixture
def device2():
    """Minimal on/off device."""
    return two_state()


@pytest.fixture
def small_env(device3):
    """Small slotted environment with stationary arrivals."""
    return SlottedDPMEnv(
        device3,
        ConstantRate(0.15),
        queue_capacity=4,
        p_serve=0.9,
        perf_weight=0.5,
        loss_penalty=2.0,
        seed=42,
    )


@pytest.fixture
def mb_spec():
    """A short model-based rollout that re-optimizes once per seed
    after its one rate switch."""
    from repro.adaptive import ModelBasedSpec
    from repro.runtime import RolloutSpec
    from repro.workload import PiecewiseConstantRate

    return RolloutSpec(
        schedule=PiecewiseConstantRate([(1_000, 0.3), (1_000, 0.05)]),
        n_slots=2_000, record_every=500, queue_capacity=6,
        model_based=ModelBasedSpec(window=300, min_samples=200,
                                   freeze_slots=100, initial_rate=0.3),
    )


def _adaptation_events(log):
    return [(e.slot, e.detected_rate) for e in log.events]


@pytest.fixture
def assert_same_mb_runs():
    """Field-for-field equality of two model-based sweeps' seed runs,
    apart from the adaptation logs' wall-clock ``*_seconds``."""

    def check(a, b):
        assert [r.seed for r in a] == [r.seed for r in b]
        for x, y in zip(a, b):
            assert x.mean_reward == y.mean_reward
            assert x.saving_ratio == y.saving_ratio
            for name in ("slots", "energy", "reward", "queue",
                         "saving_ratio", "td_error"):
                assert np.array_equal(getattr(x.history, name),
                                      getattr(y.history, name))
            assert x.totals == y.totals
            assert x.snapshots is None and y.snapshots is None
            assert x.adaptation.events
            assert (_adaptation_events(x.adaptation)
                    == _adaptation_events(y.adaptation))

    return check
