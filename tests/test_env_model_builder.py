"""Exact model builder tests: the model must match the environment."""

import numpy as np
import pytest

from repro.baselines import always_on_policy, greedy_sleep_policy, threshold_policy
from repro.device import PRESETS, abstract_three_state, get_preset
from repro.env import SlottedDPMEnv, build_dpm_model
from repro.mdp import DeterministicPolicy, policy_evaluation
from repro.workload import ConstantRate

PARAMS = dict(
    arrival_rate=0.2, queue_capacity=4, p_serve=0.9,
    perf_weight=0.5, loss_penalty=2.0,
)


@pytest.fixture(scope="module")
def model():
    return build_dpm_model(abstract_three_state(), **PARAMS)


@pytest.fixture()
def env():
    return SlottedDPMEnv(
        abstract_three_state(),
        ConstantRate(PARAMS["arrival_rate"]),
        queue_capacity=PARAMS["queue_capacity"],
        p_serve=PARAMS["p_serve"],
        perf_weight=PARAMS["perf_weight"],
        loss_penalty=PARAMS["loss_penalty"],
        seed=123,
    )


class TestStructure:
    def test_state_space_matches_env(self, model, env):
        assert model.mdp.n_states == env.n_states
        assert model.mdp.n_actions == env.n_actions

    def test_probability_rows(self, model):
        sums = model.mdp.transition.sum(axis=2)
        assert np.allclose(sums[model.mdp.allowed], 1.0)
        assert np.allclose(sums[~model.mdp.allowed], 0.0)

    def test_allowed_matches_env(self, model, env):
        for state in range(env.n_states):
            from_env = sorted(env.allowed_actions(state))
            from_model = sorted(model.mdp.allowed_actions(state).tolist())
            assert from_env == from_model

    def test_reward_consistent_with_tables(self, model):
        expected = (
            -model.energy
            - PARAMS["perf_weight"] * model.queue
            - PARAMS["loss_penalty"] * model.loss
        )
        mask = model.mdp.allowed
        assert np.allclose(model.mdp.reward[mask], expected[mask])

    def test_state_labels(self, model):
        labels = model.state_labels()
        assert len(labels) == model.mdp.n_states
        assert "active|q=0" in labels

    def test_initial_state(self, model, env):
        assert model.initial_state() == env.reset()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_dpm_model(abstract_three_state(), arrival_rate=1.5)
        with pytest.raises(ValueError):
            build_dpm_model(abstract_three_state(), arrival_rate=0.2, p_serve=0.0)
        with pytest.raises(ValueError):
            build_dpm_model(
                abstract_three_state(), arrival_rate=0.2, queue_capacity=0
            )


class TestModelMatchesEnvironment:
    """Monte-Carlo check: empirical env statistics equal model expectations."""

    def run_policy(self, env, policy, n_slots=40_000):
        rewards = []
        energies = []
        for _ in range(n_slots):
            state = env.state
            action = policy(state)
            if action not in env.allowed_actions(state):
                action = env.allowed_actions(state)[0]
            _, r, info = env.step(action)
            rewards.append(r)
            energies.append(info.energy)
        return np.mean(rewards), np.mean(energies)

    def test_always_on_policy(self, model, env):
        policy = always_on_policy(env)
        emp_reward, emp_energy = self.run_policy(env, policy)
        perf = model.evaluate_policy(policy)
        assert emp_reward == pytest.approx(perf.average_reward, abs=0.03)
        assert emp_energy == pytest.approx(perf.mean_power, abs=0.03)

    def test_greedy_sleep_policy(self, model, env):
        policy = greedy_sleep_policy(env)
        emp_reward, emp_energy = self.run_policy(env, policy)
        perf = model.evaluate_policy(policy)
        assert emp_reward == pytest.approx(perf.average_reward, abs=0.05)
        assert emp_energy == pytest.approx(perf.mean_power, abs=0.05)

    def test_optimal_policy_beats_heuristics(self, model, env):
        result = model.solve(0.95, "policy_iteration")
        opt = model.evaluate_policy(result.policy).average_reward
        on = model.evaluate_policy(always_on_policy(env)).average_reward
        greedy = model.evaluate_policy(greedy_sleep_policy(env)).average_reward
        assert opt >= on - 1e-9
        assert opt >= greedy - 1e-9


class TestEvaluatePolicy:
    def test_always_on_saving_zero(self, model, env):
        perf = model.evaluate_policy(always_on_policy(env))
        assert perf.energy_saving_ratio == pytest.approx(0.0, abs=1e-9)
        # a loss needs a full queue, possible but vanishingly rare always-on
        assert perf.loss_rate == pytest.approx(0.0, abs=1e-5)

    def test_epsilon_zero_matches_plain(self, model, env):
        policy = greedy_sleep_policy(env)
        plain = model.evaluate_policy(policy)
        soft = model.evaluate_policy(policy, epsilon=0.0)
        assert plain.average_reward == pytest.approx(soft.average_reward)

    def test_epsilon_soft_degrades_optimal(self, model):
        result = model.solve(0.95, "policy_iteration")
        pure = model.evaluate_policy(result.policy).average_reward
        soft = model.evaluate_policy(result.policy, epsilon=0.2).average_reward
        assert soft <= pure + 1e-9

    def test_epsilon_validation(self, model, env):
        with pytest.raises(ValueError):
            model.evaluate_policy(always_on_policy(env), epsilon=1.5)

    def test_epsilon_soft_monte_carlo(self, model, env):
        """Exact eps-soft evaluation matches an eps-soft rollout."""
        rng = np.random.default_rng(0)
        policy = greedy_sleep_policy(env)
        eps = 0.3
        rewards = []
        for _ in range(60_000):
            state = env.state
            allowed = env.allowed_actions(state)
            if rng.random() < eps:
                action = int(rng.choice(allowed))
            else:
                action = policy(state)
                if action not in allowed:
                    action = allowed[0]
            _, r, _ = env.step(action)
            rewards.append(r)
        exact = model.evaluate_policy(policy, epsilon=eps).average_reward
        assert np.mean(rewards) == pytest.approx(exact, abs=0.06)


class TestSolverDispatch:
    def test_unknown_method(self, model):
        with pytest.raises(KeyError, match="unknown solver"):
            model.solve(0.95, "quantum_annealing")

    def test_all_methods_agree(self, model):
        results = [
            model.solve(0.95, m)
            for m in ("value_iteration", "policy_iteration", "linear_programming")
        ]
        for other in results[1:]:
            assert np.allclose(results[0].values, other.values, atol=1e-4)


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestEveryPreset:
    """The exact solvers on every preset device, not only the three-state
    one: the three must agree, and the optimum must dominate each fixed
    reference policy in every state (Bellman optimality, checked with an
    independent linear solve of each policy's discounted value)."""

    DISCOUNT = 0.95

    @pytest.fixture
    def model(self, name):
        return build_dpm_model(get_preset(name), **PARAMS)

    def test_all_methods_agree(self, model):
        results = [
            model.solve(self.DISCOUNT, m)
            for m in ("value_iteration", "policy_iteration", "linear_programming")
        ]
        for other in results[1:]:
            assert np.allclose(results[0].values, other.values, atol=1e-4)

    def test_optimum_dominates_reference_policies(self, model, name):
        env = SlottedDPMEnv(
            get_preset(name),
            ConstantRate(PARAMS["arrival_rate"]),
            queue_capacity=PARAMS["queue_capacity"],
            p_serve=PARAMS["p_serve"],
        )
        best = model.solve(self.DISCOUNT, "policy_iteration").policy
        v_best = policy_evaluation(model.mdp, best, self.DISCOUNT)
        for policy in (always_on_policy(env), greedy_sleep_policy(env),
                       threshold_policy(env, 3)):
            v = policy_evaluation(model.mdp, policy, self.DISCOUNT)
            assert np.all(v_best >= v - 1e-9)
