"""Slotted reference policy tests."""

import pytest

from repro.baselines import always_on_policy, greedy_sleep_policy, threshold_policy
from repro.device import PRESETS, abstract_three_state, get_preset
from repro.env import SlottedDPMEnv, build_dpm_model
from repro.workload import ConstantRate


class TestAlwaysOn:
    def test_commands_home_where_possible(self, small_env):
        policy = always_on_policy(small_env)
        home = small_env.mode_space.action_index("active")
        for state in range(small_env.n_states):
            if home in small_env.allowed_actions(state):
                assert policy(state) == home

    def test_zero_saving_exactly(self, small_env):
        model = build_dpm_model(
            abstract_three_state(), arrival_rate=0.15,
            queue_capacity=4, p_serve=0.9,
        )
        perf = model.evaluate_policy(always_on_policy(small_env))
        assert perf.energy_saving_ratio == pytest.approx(0.0, abs=1e-9)


class TestGreedySleep:
    def test_sleeps_on_empty_wakes_on_work(self, small_env):
        policy = greedy_sleep_policy(small_env)
        sleep = small_env.mode_space.action_index("sleep")
        home = small_env.mode_space.action_index("active")
        for state in range(small_env.n_states):
            mode, queue = small_env.decode(state)
            if mode.kind != "steady":
                continue
            allowed = small_env.allowed_actions(state)
            if queue == 0 and sleep in allowed:
                assert policy(state) == sleep
            if queue > 0 and home in allowed:
                assert policy(state) == home

    def test_custom_sleep_state(self, small_env):
        policy = greedy_sleep_policy(small_env, sleep_state="idle")
        idle = small_env.mode_space.action_index("idle")
        active0 = small_env.encode(
            small_env.mode_space.steady_mode_index("active"), 0
        )
        assert policy(active0) == idle

    def test_saves_more_than_always_on_but_worse_latency(self, small_env):
        model = build_dpm_model(
            abstract_three_state(), arrival_rate=0.15,
            queue_capacity=4, p_serve=0.9,
        )
        on = model.evaluate_policy(always_on_policy(small_env))
        greedy = model.evaluate_policy(greedy_sleep_policy(small_env))
        assert greedy.energy_saving_ratio > on.energy_saving_ratio
        assert greedy.mean_latency > on.mean_latency


class TestThreshold:
    def test_equals_greedy_at_threshold_one(self, small_env):
        assert threshold_policy(small_env, 1) == greedy_sleep_policy(small_env)

    def test_holds_mode_between_empty_and_threshold(self, small_env):
        policy = threshold_policy(small_env, wake_threshold=3)
        sleep_mode = small_env.mode_space.steady_mode_index("sleep")
        sleep_action = small_env.mode_space.action_index("sleep")
        # at queue 1-2 the device stays asleep
        assert policy(small_env.encode(sleep_mode, 1)) == sleep_action
        assert policy(small_env.encode(sleep_mode, 2)) == sleep_action
        # at the threshold it wakes
        home = small_env.mode_space.action_index("active")
        assert policy(small_env.encode(sleep_mode, 3)) == home

    def test_higher_threshold_saves_more(self, small_env):
        model = build_dpm_model(
            abstract_three_state(), arrival_rate=0.15,
            queue_capacity=4, p_serve=0.9,
        )
        t1 = model.evaluate_policy(threshold_policy(small_env, 1))
        t3 = model.evaluate_policy(threshold_policy(small_env, 3))
        assert t3.energy_saving_ratio >= t1.energy_saving_ratio
        assert t3.mean_latency >= t1.mean_latency

    def test_validation(self, small_env):
        with pytest.raises(ValueError):
            threshold_policy(small_env, 0)


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestEveryPreset:
    """The reference policies are built from each device's own home and
    deepest states, so they must be well-formed on every preset, not
    only on the three-state device the figures use."""

    @pytest.fixture
    def env(self, name):
        return SlottedDPMEnv(get_preset(name), ConstantRate(0.2),
                             queue_capacity=4, p_serve=0.9)

    def test_only_allowed_actions(self, env):
        for policy in (always_on_policy(env), greedy_sleep_policy(env),
                       threshold_policy(env, 1), threshold_policy(env, 3)):
            for state in range(env.n_states):
                assert policy(state) in env.allowed_actions(state)

    def test_greedy_sleeps_on_empty_wakes_on_work(self, env):
        policy = greedy_sleep_policy(env)
        sleep = env.mode_space.action_index(env.device.deepest_state())
        home = env.mode_space.action_index(env.device.initial_state)
        for state in range(env.n_states):
            _, queue = env.decode(state)
            want = sleep if queue == 0 else home
            if want in env.allowed_actions(state):
                assert policy(state) == want

    def test_threshold_one_is_greedy_sleep(self, env):
        assert threshold_policy(env, 1) == greedy_sleep_policy(env)

    def test_always_on_saves_nothing(self, env, name):
        model = build_dpm_model(get_preset(name), arrival_rate=0.2,
                                queue_capacity=4, p_serve=0.9)
        perf = model.evaluate_policy(always_on_policy(env))
        assert perf.energy_saving_ratio == pytest.approx(0.0, abs=1e-9)
        assert perf.mean_power == pytest.approx(model.always_on_power())
