"""Markov chain utilities, including reducible-chain occupancy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mdp import (
    is_stochastic,
    long_run_occupancy,
    start_occupancy,
    stationary_distribution,
)


def two_state_chain(p, q):
    """Chain flipping 0->1 with prob p and 1->0 with prob q."""
    return np.array([[1 - p, p], [q, 1 - q]])


class TestIsStochastic:
    def test_accepts_valid(self):
        assert is_stochastic(two_state_chain(0.3, 0.7))

    def test_rejects_bad_row_sum(self):
        assert not is_stochastic(np.array([[0.5, 0.1], [0.5, 0.5]]))

    def test_rejects_negative(self):
        assert not is_stochastic(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_non_square(self):
        assert not is_stochastic(np.ones((2, 3)) / 3)


class TestStationary:
    def test_two_state_closed_form(self):
        pi = stationary_distribution(two_state_chain(0.2, 0.6))
        assert pi == pytest.approx([0.6 / 0.8, 0.2 / 0.8])

    def test_identity_needs_unichain_but_returns_valid(self):
        # identity chain: every dist is stationary; lstsq returns one of them
        pi = stationary_distribution(np.eye(3))
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ np.eye(3), pi)

    def test_periodic_chain(self):
        cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = stationary_distribution(cycle)
        assert pi == pytest.approx([0.5, 0.5])

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.1], [0.5, 0.5]]))

    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariance_property(self, p, q):
        chain = two_state_chain(p, q)
        pi = stationary_distribution(chain)
        assert np.allclose(pi @ chain, pi, atol=1e-8)
        assert pi.sum() == pytest.approx(1.0)


class TestLongRunOccupancy:
    def test_matches_stationary_for_ergodic(self):
        chain = two_state_chain(0.3, 0.5)
        start = np.array([1.0, 0.0])
        occ = long_run_occupancy(chain, start)
        # Cesaro averaging converges O(1/k); modest tolerance
        assert occ == pytest.approx(stationary_distribution(chain), abs=1e-4)

    def test_periodic_chain_time_average(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        occ = long_run_occupancy(flip, np.array([1.0, 0.0]))
        assert occ == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            long_run_occupancy(np.eye(2), np.array([0.5, 0.6]))


class TestStartOccupancy:
    def test_ergodic_matches_stationary(self):
        chain = two_state_chain(0.25, 0.4)
        occ = start_occupancy(chain, 0)
        assert occ == pytest.approx(stationary_distribution(chain), abs=1e-9)

    def test_absorbing_trap_from_good_start(self):
        """State 2 is absorbing but unreachable from state 0."""
        chain = np.array(
            [
                [0.5, 0.5, 0.0],
                [0.5, 0.5, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        occ = start_occupancy(chain, 0)
        assert occ == pytest.approx([0.5, 0.5, 0.0])

    def test_absorbing_trap_from_inside(self):
        chain = np.array(
            [
                [0.5, 0.5, 0.0],
                [0.5, 0.5, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        occ = start_occupancy(chain, 2)
        assert occ == pytest.approx([0.0, 0.0, 1.0])

    def test_transient_start_splits_between_classes(self):
        """From the transient state, 50/50 absorption into two traps."""
        chain = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        occ = start_occupancy(chain, 0)
        assert occ == pytest.approx([0.0, 0.5, 0.5])

    def test_weighted_absorption(self):
        chain = np.array(
            [
                [0.2, 0.6, 0.2],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        occ = start_occupancy(chain, 0)
        # absorption odds 0.6 : 0.2 -> 0.75 / 0.25
        assert occ == pytest.approx([0.0, 0.75, 0.25])

    def test_two_state_recurrent_class(self):
        """The closed class itself can have several states."""
        chain = np.array(
            [
                [0.0, 1.0, 0.0],
                [0.0, 0.3, 0.7],
                [0.0, 0.6, 0.4],
            ]
        )
        occ = start_occupancy(chain, 0)
        expected = stationary_distribution(chain[1:, 1:])
        assert occ[0] == 0.0
        assert occ[1:] == pytest.approx(expected)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            start_occupancy(np.array([[0.5, 0.1], [0.5, 0.5]]), 0)
        with pytest.raises(ValueError):
            start_occupancy(np.eye(2), 5)
