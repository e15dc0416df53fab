"""FiniteMDP container validation and fixtures."""

import numpy as np
import pytest

from repro.mdp import FiniteMDP, random_mdp


def tiny_mdp():
    """Deterministic 2-state, 2-action MDP with known structure."""
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0  # stay
    transition[0, 1, 1] = 1.0  # move
    transition[1, 0, 1] = 1.0
    transition[1, 1, 0] = 1.0
    reward = np.array([[1.0, 0.0], [2.0, 0.0]])
    allowed = np.ones((2, 2), dtype=bool)
    return FiniteMDP(transition, reward, allowed)


class TestValidation:
    def test_valid_construction(self):
        mdp = tiny_mdp()
        assert mdp.n_states == 2
        assert mdp.n_actions == 2

    def test_wrong_transition_shape(self):
        with pytest.raises(ValueError, match="transition"):
            FiniteMDP(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2), bool))

    def test_reward_shape_mismatch(self):
        with pytest.raises(ValueError, match="reward"):
            FiniteMDP(
                np.ones((2, 2, 2)) / 2, np.zeros((3, 2)), np.ones((2, 2), bool)
            )

    def test_rows_must_sum_to_one(self):
        transition = np.ones((2, 2, 2)) * 0.3
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteMDP(transition, np.zeros((2, 2)), np.ones((2, 2), bool))

    def test_negative_probability_rejected(self):
        transition = np.zeros((1, 1, 1))
        transition[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match=">= 0"):
            FiniteMDP(transition, np.zeros((1, 1)), np.ones((1, 1), bool))

    def test_disallowed_rows_must_be_zero(self):
        transition = np.zeros((1, 2, 1))
        transition[0, :, 0] = 1.0  # disallowed action 1 still has mass
        allowed = np.array([[True, False]])
        with pytest.raises(ValueError, match="all-zero"):
            FiniteMDP(transition, np.zeros((1, 2)), allowed)

    def test_state_without_action_rejected(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 0] = 1.0
        allowed = np.array([[True], [False]])
        with pytest.raises(ValueError, match="no allowed action"):
            FiniteMDP(transition, np.zeros((2, 1)), allowed)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="state_labels"):
            FiniteMDP(
                np.ones((2, 1, 2)) / 2,
                np.zeros((2, 1)),
                np.ones((2, 1), bool),
                state_labels=["only-one"],
            )


class TestHelpers:
    def test_allowed_actions(self):
        transition = np.zeros((1, 3, 1))
        transition[0, 0, 0] = 1.0
        transition[0, 2, 0] = 1.0
        allowed = np.array([[True, False, True]])
        mdp = FiniteMDP(transition, np.zeros((1, 3)), allowed)
        assert mdp.allowed_actions(0).tolist() == [0, 2]

    def test_memory_bytes(self):
        mdp = tiny_mdp()
        mem = mdp.memory_bytes()
        assert mem["model_bytes"] == mdp.transition.nbytes + mdp.reward.nbytes
        assert mem["q_table_bytes"] == mdp.reward.nbytes
        assert mem["model_bytes"] > mem["q_table_bytes"]


class TestRandomMDP:
    def test_shapes_and_validity(self, rng):
        mdp = random_mdp(10, 4, rng)
        assert mdp.n_states == 10
        assert mdp.n_actions == 4

    def test_sparsity_leaves_actions(self, rng):
        mdp = random_mdp(20, 3, rng, sparsity=0.8)
        assert mdp.allowed.any(axis=1).all()

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            random_mdp(0, 2, rng)
        with pytest.raises(ValueError):
            random_mdp(2, 2, rng, sparsity=1.0)

    def test_reproducible(self):
        a = random_mdp(5, 2, np.random.default_rng(9))
        b = random_mdp(5, 2, np.random.default_rng(9))
        assert np.allclose(a.transition, b.transition)
        assert np.allclose(a.reward, b.reward)
