"""Exact MDP solver tests: closed forms, cross-solver agreement, masks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mdp import (
    DeterministicPolicy,
    FiniteMDP,
    linear_programming,
    policy_iteration,
    q_from_values,
    random_mdp,
    value_iteration,
)

SOLVERS = [value_iteration, policy_iteration, linear_programming]


def two_arm_bandit_chain():
    """One state, two actions with rewards 1 and 2: V* = 2 / (1 - b)."""
    transition = np.ones((1, 2, 1))
    reward = np.array([[1.0, 2.0]])
    allowed = np.ones((1, 2), dtype=bool)
    return FiniteMDP(transition, reward, allowed)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
class TestClosedForms:
    def test_single_state_geometric_sum(self, solver):
        mdp = two_arm_bandit_chain()
        result = solver(mdp, discount=0.9)
        assert result.values[0] == pytest.approx(2.0 / 0.1, rel=1e-5)
        assert result.policy(0) == 1

    def test_two_state_deterministic(self, solver):
        # state 0: action 0 stays (r=0), action 1 goes to 1 (r=0);
        # state 1: absorbing with r=1. Optimal: go then stay.
        transition = np.zeros((2, 2, 2))
        transition[0, 0, 0] = 1.0
        transition[0, 1, 1] = 1.0
        transition[1, 0, 1] = 1.0
        transition[1, 1, 1] = 1.0
        reward = np.array([[0.0, 0.0], [1.0, 1.0]])
        mdp = FiniteMDP(transition, reward, np.ones((2, 2), bool))
        result = solver(mdp, discount=0.5)
        # V(1) = 1/(1-0.5) = 2 ; V(0) = 0 + 0.5 * 2 = 1
        assert result.values == pytest.approx([1.0, 2.0], rel=1e-5)
        assert result.policy(0) == 1

    def test_discount_validation(self, solver):
        with pytest.raises(ValueError, match="discount"):
            solver(two_arm_bandit_chain(), discount=1.0)

    def test_respects_action_mask(self, solver):
        transition = np.zeros((1, 2, 1))
        transition[0, 0, 0] = 1.0
        reward = np.array([[1.0, 100.0]])
        allowed = np.array([[True, False]])  # the juicy action is illegal
        mdp = FiniteMDP(transition, reward, allowed)
        result = solver(mdp, discount=0.5)
        assert result.policy(0) == 0
        assert result.values[0] == pytest.approx(2.0, rel=1e-5)


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_mdps(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(12, 4, rng, sparsity=0.3)
        results = [solver(mdp, discount=0.9) for solver in SOLVERS]
        for other in results[1:]:
            assert np.allclose(results[0].values, other.values, atol=1e-4)
        # all optimal policies achieve the optimal value (ties allowed)
        for res in results:
            q = q_from_values(mdp, results[0].values, 0.9)
            chosen = q[np.arange(mdp.n_states), res.policy.actions]
            assert np.allclose(chosen, results[0].values, atol=1e-4)

    def test_larger_instance(self):
        rng = np.random.default_rng(99)
        mdp = random_mdp(60, 5, rng)
        vi = value_iteration(mdp, 0.95)
        pi = policy_iteration(mdp, 0.95)
        assert np.allclose(vi.values, pi.values, atol=1e-4)


class TestValueIterationDetails:
    def test_residual_below_tolerance(self):
        mdp = two_arm_bandit_chain()
        result = value_iteration(mdp, 0.9, tol=1e-10)
        assert result.residual < 1e-10

    def test_nonconvergence_raises(self):
        mdp = two_arm_bandit_chain()
        with pytest.raises(RuntimeError, match="did not converge"):
            value_iteration(mdp, 0.99, tol=1e-12, max_iter=3)

    def test_q_from_values_masks_disallowed(self):
        transition = np.zeros((1, 2, 1))
        transition[0, 0, 0] = 1.0
        mdp = FiniteMDP(
            transition, np.zeros((1, 2)), np.array([[True, False]])
        )
        q = q_from_values(mdp, np.zeros(1), 0.9)
        assert q[0, 1] == -np.inf

    def test_q_from_values_shape_check(self):
        with pytest.raises(ValueError):
            q_from_values(two_arm_bandit_chain(), np.zeros(3), 0.9)


class TestPolicyContainer:
    def test_validates_against_mdp(self):
        mdp = two_arm_bandit_chain()
        with pytest.raises(ValueError, match="covers"):
            DeterministicPolicy(np.array([0, 1]), mdp=mdp)

    def test_rejects_disallowed_action(self):
        transition = np.zeros((1, 2, 1))
        transition[0, 0, 0] = 1.0
        mdp = FiniteMDP(transition, np.zeros((1, 2)), np.array([[True, False]]))
        with pytest.raises(ValueError, match="disallowed"):
            DeterministicPolicy(np.array([1]), mdp=mdp)

    def test_agreement(self):
        a = DeterministicPolicy(np.array([0, 1, 0]))
        b = DeterministicPolicy(np.array([0, 1, 1]))
        assert a.agreement(b) == pytest.approx(2 / 3)

    def test_agreement_length_mismatch(self):
        with pytest.raises(ValueError):
            DeterministicPolicy(np.array([0])).agreement(
                DeterministicPolicy(np.array([0, 1]))
            )

    def test_equality_and_hash(self):
        a = DeterministicPolicy(np.array([0, 1]))
        b = DeterministicPolicy(np.array([0, 1]))
        assert a == b
        assert hash(a) == hash(b)

    def test_callable(self):
        assert DeterministicPolicy(np.array([3]))(0) == 3


def test_import_leaves_scipy_unloaded():
    """Only an LP solve imports scipy; importing the package and the CLI
    must not (scipy's import costs more than the rest of ``repro``)."""
    code = ("import sys, repro, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
