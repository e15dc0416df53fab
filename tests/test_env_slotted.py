"""Slotted environment dynamics tests."""

import numpy as np
import pytest

from repro.device import abstract_three_state, get_preset
from repro.env import SlottedDPMEnv
from repro.workload import ConstantRate, PiecewiseConstantRate


def make_env(**kwargs):
    defaults = dict(
        schedule=ConstantRate(0.2), queue_capacity=4, p_serve=1.0,
        perf_weight=0.5, loss_penalty=2.0, seed=7,
    )
    defaults.update(kwargs)
    return SlottedDPMEnv(abstract_three_state(), **defaults)


class TestIndexing:
    def test_state_count(self):
        env = make_env()
        assert env.n_states == 5 * 5  # 5 modes x (cap 4 + 1)

    def test_encode_decode_roundtrip(self):
        env = make_env()
        for state in range(env.n_states):
            mode, queue = env.decode(state)
            mode_index = env.mode_space.modes.index(mode)
            assert env.encode(mode_index, queue) == state

    def test_encode_bounds(self):
        env = make_env()
        with pytest.raises(ValueError):
            env.encode(0, 99)
        with pytest.raises(ValueError):
            env.encode(99, 0)
        with pytest.raises(ValueError):
            env.decode(env.n_states)

    def test_state_label(self):
        env = make_env()
        assert env.state_label(env.state) == "active|q=0"


class TestRolloutIndexing:
    @pytest.mark.parametrize("device", ["abstract3", "two_state", "mobile_hdd"])
    def test_step_state_and_label_match_the_encoding(self, device):
        """Every step's returned state, ``env.state`` and ``encode`` of
        the decoded pair agree, and ``mode_label`` names the decoded mode."""
        env = SlottedDPMEnv(get_preset(device), ConstantRate(0.4),
                            queue_capacity=3, p_serve=0.6, seed=3)
        rng = np.random.default_rng(0)
        modes = env.mode_space.modes
        labels = set()
        for _ in range(400):
            allowed = env.allowed_actions(env.state)
            action = allowed[rng.integers(len(allowed))]
            next_state, _, info = env.step(action)
            mode, queue = env.decode(next_state)
            mode_index = modes.index(mode)
            assert next_state == env.state == env.encode(mode_index, queue)
            assert info.queue == queue
            assert info.mode_label == env.mode_space.mode(mode_index).label
            labels.add(info.mode_label)
        assert len(labels) > 1


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_env(queue_capacity=0)
        with pytest.raises(ValueError):
            make_env(p_serve=0.0)
        with pytest.raises(ValueError):
            make_env(p_serve=1.5)
        with pytest.raises(ValueError):
            make_env(perf_weight=-1.0)


class TestDynamics:
    def test_always_on_never_saves(self):
        env = make_env(schedule=ConstantRate(0.0))
        stay = env.mode_space.action_index("active")
        for _ in range(100):
            env.step(stay)
        assert env.energy_saving_ratio() == pytest.approx(0.0)
        assert env.totals.energy == pytest.approx(100.0)

    def test_sleeping_saves_energy(self):
        env = make_env(schedule=ConstantRate(0.0))
        env.step(env.mode_space.action_index("sleep"))  # 1-slot transition
        sleep_stay = env.mode_space.action_index("sleep")
        for _ in range(99):
            env.step(sleep_stay)
        assert env.energy_saving_ratio() > 0.9

    def test_queue_grows_when_sleeping(self):
        env = make_env(schedule=ConstantRate(1.0))
        env.step(env.mode_space.action_index("sleep"))
        for _ in range(10):
            _, _, info = env.step(env.mode_space.action_index("sleep"))
        assert info.queue == env.queue_capacity
        assert env.totals.losses > 0

    def test_service_drains_queue(self):
        env = make_env(schedule=ConstantRate(0.0), p_serve=1.0)
        env.reset(queue=3)
        stay = env.mode_space.action_index("active")
        _, _, info = env.step(stay)
        assert info.served
        assert info.queue == 2

    def test_no_service_while_idle(self):
        env = make_env(schedule=ConstantRate(0.0))
        env.reset(queue=3)
        env.step(env.mode_space.action_index("idle"))
        _, _, info = env.step(env.mode_space.action_index("idle"))
        assert not info.served
        assert info.queue == 3

    def test_no_service_during_wake_transition(self):
        env = make_env(schedule=ConstantRate(0.0))
        env.reset(queue=2, mode="sleep")
        wake = env.mode_space.action_index("active")
        _, _, info1 = env.step(wake)
        _, _, info2 = env.step(wake)
        _, _, info3 = env.step(wake)
        assert not info1.served and not info2.served and not info3.served
        # now in active: next slot serves
        _, _, info4 = env.step(wake)
        assert info4.served

    def test_reward_formula(self):
        env = make_env(schedule=ConstantRate(0.0))
        env.reset(queue=2)
        stay = env.mode_space.action_index("active")
        _, reward, info = env.step(stay)
        expected = -info.energy - 0.5 * info.queue
        assert reward == pytest.approx(expected)

    def test_loss_penalty_applied(self):
        env = make_env(schedule=ConstantRate(1.0))
        env.reset(queue=4, mode="sleep")
        _, reward, info = env.step(env.mode_space.action_index("sleep"))
        assert info.lost
        sleep_energy = info.energy
        assert reward == pytest.approx(-sleep_energy - 0.5 * 4 - 2.0)

    def test_disallowed_action_raises(self):
        env = make_env()
        env.reset(mode="sleep")
        with pytest.raises(KeyError):
            env.step(env.mode_space.action_index("idle"))

    @pytest.mark.parametrize("action", [3, -3])
    def test_out_of_range_action_raises(self, action):
        # abstract3 has three actions; the text is the batched env's
        env = make_env()
        with pytest.raises(KeyError) as err:
            env.step(action)
        assert err.value.args[0] == (
            f"action index {action} out of range [0, 3)")

    def test_seed_reproducibility(self):
        env_a = make_env(seed=3)
        env_b = make_env(seed=3)
        stay = env_a.mode_space.action_index("active")
        for _ in range(200):
            sa, ra, _ = env_a.step(stay)
            sb, rb, _ = env_b.step(stay)
            assert sa == sb
            assert ra == rb

    def test_reset_clears_totals(self):
        env = make_env()
        stay = env.mode_space.action_index("active")
        for _ in range(10):
            env.step(stay)
        env.reset()
        assert env.totals.slots == 0
        assert env.current_slot == 0
        assert env.state == env.encode(
            env.mode_space.steady_mode_index("active"), 0
        )

    def test_reset_seed_reproduces_episode(self):
        env = make_env()
        stay = env.mode_space.action_index("active")
        env.reset(seed=11)
        first = [env.step(stay)[1] for _ in range(50)]
        env.reset(seed=11)
        second = [env.step(stay)[1] for _ in range(50)]
        assert first == second

    def test_nonstationary_schedule_followed(self):
        schedule = PiecewiseConstantRate([(500, 1.0), (500, 0.0)])
        env = make_env(schedule=schedule)
        stay = env.mode_space.action_index("active")
        arrivals_first = sum(env.step(stay)[2].arrived for _ in range(500))
        arrivals_second = sum(env.step(stay)[2].arrived for _ in range(500))
        assert arrivals_first == 500
        assert arrivals_second == 0


class TestTotals:
    def test_little_law_consistency(self):
        env = make_env(schedule=ConstantRate(0.3), seed=5)
        stay = env.mode_space.action_index("active")
        for _ in range(20_000):
            env.step(stay)
        totals = env.totals
        # mean latency = mean queue / accepted rate
        expected = totals.mean_queue() / (
            (totals.arrivals - totals.losses) / totals.slots
        )
        assert totals.mean_latency(1.0) == pytest.approx(expected)

    def test_mean_power(self):
        env = make_env(schedule=ConstantRate(0.0))
        stay = env.mode_space.action_index("active")
        for _ in range(100):
            env.step(stay)
        assert env.totals.mean_power(1.0) == pytest.approx(1.0)

    def test_empty_totals(self):
        env = make_env()
        assert env.totals.mean_queue() == 0.0
        assert env.totals.mean_latency(1.0) == 0.0
        assert env.totals.loss_rate() == 0.0
        assert env.energy_saving_ratio() == 0.0
