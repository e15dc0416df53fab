"""Finite discrete-time Markov decision process container.

The paper frames DPM as a DTMDP (its Eqn. 1 is the Bellman optimality
equation) and contrasts two routes to the optimal policy:

- the *model-based* route — know ``P`` and ``R`` explicitly and run an
  offline optimizer (linear programming in the papers it cites), and
- the *model-free* route — Q-learning on sampled transitions (Q-DPM).

This module is the explicit-model half: a validated ``(P, R, allowed)``
triple that the solvers in this package consume and that
:mod:`repro.env.model_builder` produces exactly for the slotted DPM
environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: Tolerance used when checking that probability rows sum to one.
_PROB_TOL = 1e-9


@dataclass
class FiniteMDP:
    """An explicit finite MDP.

    Attributes
    ----------
    transition:
        ``(S, A, S)`` array; ``transition[s, a]`` is the next-state
        distribution of playing ``a`` in ``s``.  Rows of *disallowed*
        pairs must be all zero.
    reward:
        ``(S, A)`` array of expected immediate rewards.
    allowed:
        ``(S, A)`` boolean mask of playable actions; every state needs at
        least one allowed action.
    state_labels, action_labels:
        Optional human-readable names used in reports.
    """

    transition: np.ndarray
    reward: np.ndarray
    allowed: np.ndarray
    state_labels: Optional[Sequence[str]] = None
    action_labels: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=float)
        self.reward = np.asarray(self.reward, dtype=float)
        self.allowed = np.asarray(self.allowed, dtype=bool)
        if self.transition.ndim != 3 or (
            self.transition.shape[0] != self.transition.shape[2]
        ):
            raise ValueError(
                f"transition must be (S, A, S), got {self.transition.shape}"
            )
        s, a, _ = self.transition.shape
        if self.reward.shape != (s, a):
            raise ValueError(
                f"reward must be (S, A) = ({s}, {a}), got {self.reward.shape}"
            )
        if self.allowed.shape != (s, a):
            raise ValueError(
                f"allowed must be (S, A) = ({s}, {a}), got {self.allowed.shape}"
            )
        if np.any(self.transition < -_PROB_TOL):
            raise ValueError("transition probabilities must be >= 0")
        if not self.allowed.any(axis=1).all():
            bad = np.nonzero(~self.allowed.any(axis=1))[0]
            raise ValueError(f"states with no allowed action: {bad.tolist()}")
        row_sums = self.transition.sum(axis=2)
        if np.any(np.abs(row_sums[self.allowed] - 1.0) > 1e-6):
            raise ValueError("allowed (s, a) transition rows must sum to 1")
        if np.any(np.abs(row_sums[~self.allowed]) > 1e-6):
            raise ValueError("disallowed (s, a) transition rows must be all-zero")
        if self.state_labels is not None and len(self.state_labels) != s:
            raise ValueError("state_labels length mismatch")
        if self.action_labels is not None and len(self.action_labels) != a:
            raise ValueError("action_labels length mismatch")

    @property
    def n_states(self) -> int:
        """Number of states S."""
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        """Number of actions A (global action set; see ``allowed``)."""
        return self.transition.shape[1]

    def allowed_actions(self, state: int) -> np.ndarray:
        """Indices of actions playable in ``state``."""
        return np.nonzero(self.allowed[state])[0]

    def memory_bytes(self) -> dict:
        """Footprint report used by the CLAIM-MEM experiment.

        Returns the bytes needed to *store the model* (transition tensor +
        reward matrix) versus the bytes a Q-table over the same state-action
        space needs.  The gap is the paper's "a little bit memory" claim.
        """
        return {
            "model_bytes": self.transition.nbytes + self.reward.nbytes,
            "q_table_bytes": self.reward.nbytes,
            "n_states": self.n_states,
            "n_actions": self.n_actions,
        }


def random_mdp(
    n_states: int,
    n_actions: int,
    rng: np.random.Generator,
    reward_scale: float = 1.0,
    sparsity: float = 0.0,
) -> FiniteMDP:
    """Generate a random dense MDP (test/benchmark fixture).

    ``sparsity`` in [0, 1) disallows roughly that fraction of actions
    (always keeping at least one per state).
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError("need n_states >= 1 and n_actions >= 1")
    if not 0 <= sparsity < 1:
        raise ValueError("sparsity must be in [0, 1)")
    raw = rng.random((n_states, n_actions, n_states)) + 1e-6
    transition = raw / raw.sum(axis=2, keepdims=True)
    reward = rng.normal(0.0, reward_scale, size=(n_states, n_actions))
    allowed = rng.random((n_states, n_actions)) >= sparsity
    for s in range(n_states):
        if not allowed[s].any():
            allowed[s, int(rng.integers(n_actions))] = True
    transition = transition * allowed[:, :, None]
    return FiniteMDP(transition=transition, reward=reward, allowed=allowed)
