"""Tabular temporal-difference agents: Q-learning (the paper), SARSA,
Expected SARSA.

The paper adopts Watkins' Q-learning, "almost the most practical RL
algorithm because it is quite easy to implement", with the update (its
Eqn. 3):

    Q(s, a) <- (1 - alpha) Q(s, a) + alpha * (c(s, a, s') +
               beta * max_b Q(s', b))

(the paper writes the learning rate as gamma and the discount as beta; we
use the modern ``alpha`` / ``discount`` naming).  SARSA and Expected
SARSA are included as on-policy comparison points for the ablation
benches — they share every line except the bootstrap target.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from typing import Optional, Sequence, Union

import numpy as np

from .exploration import EpsilonGreedy, ExplorationStrategy, FixedDrawEpsilonGreedy
from .qtable import QTable
from .schedules import Constant, Schedule


class TDAgent(ABC):
    """Common machinery of the tabular TD agents.

    Parameters
    ----------
    n_observations, n_actions:
        Q-table dimensions.
    discount:
        Discount factor beta in [0, 1).
    learning_rate:
        Float (constant, the paper's choice) or a
        :class:`~repro.core.schedules.Schedule` evaluated on the pair's
        visit count (per-pair decays, Robbins-Monro style).
    exploration:
        An :class:`~repro.core.exploration.ExplorationStrategy`;
        defaults to the paper's epsilon-greedy with epsilon = 0.1.
    initial_q:
        Initial table fill; modest optimism speeds early exploration.
    seed:
        RNG seed for action selection.
    """

    def __init__(
        self,
        n_observations: int,
        n_actions: int,
        discount: float = 0.95,
        learning_rate: Union[float, Schedule] = 0.1,
        exploration: Optional[ExplorationStrategy] = None,
        initial_q: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {discount}")
        self.table = QTable(n_observations, n_actions, initial_value=initial_q)
        self.discount = float(discount)
        self._lr = (
            learning_rate
            if isinstance(learning_rate, Schedule)
            else Constant(float(learning_rate))
        )
        self.exploration = exploration if exploration is not None else EpsilonGreedy(0.1)
        self._rng = np.random.default_rng(seed)
        self._step = 0
        self._draws = array("d")  # see QLearningAgent.select_action
        self._draw_pos = 0

    @property
    def steps(self) -> int:
        """Number of updates applied so far."""
        return self._step

    def learning_rate_for(self, observation: int, action: int) -> float:
        """Learning rate used for the next update of this pair."""
        return self._lr.value(self.table.visits(observation, action))

    def select_action(self, observation: int, allowed: Sequence[int]) -> int:
        """Behaviour-policy action (exploration included)."""
        return self.exploration.select(
            self.table, observation, allowed, self._step, self._rng
        )

    def greedy_action(self, observation: int, allowed: Sequence[int]) -> int:
        """Exploitation-only action (for policy extraction / evaluation)."""
        return self.table.best_action(observation, allowed)

    @abstractmethod
    def _bootstrap(self, next_observation: int, next_allowed: Sequence[int]) -> float:
        """Value estimate of the successor used in the TD target."""

    def update(
        self,
        observation: int,
        action: int,
        reward: float,
        next_observation: int,
        next_allowed: Sequence[int],
        terminal: bool = False,
    ) -> float:
        """Apply one TD update; returns the absolute TD change.

        ``terminal`` suppresses the bootstrap (the DPM process is
        continuing, so it is False in every experiment here, but the agent
        is usable on episodic tasks too).
        """
        if terminal:
            target = reward
        else:
            target = reward + self.discount * self._bootstrap(
                next_observation, next_allowed
            )
        lr = self.learning_rate_for(observation, action)
        delta = self.table.update_toward(observation, action, target, lr)
        self._step += 1
        return delta


class QLearningAgent(TDAgent):
    """Watkins' Q-learning — the Q-DPM agent (off-policy, max bootstrap)."""

    def select_action(self, observation: int, allowed: Sequence[int]) -> int:
        if type(self.exploration) is not FixedDrawEpsilonGreedy:
            return super().select_action(observation, allowed)
        # selection is this agent's only draw and always takes three
        # uniforms, so they come from a block: the same doubles in order
        pos = self._draw_pos
        if pos == len(self._draws):
            self._draws, pos = array("d", self._rng.random(510).tobytes()), 0
        self._draw_pos = pos + 3
        return self.exploration.select_drawn(
            self.table, observation, allowed, self._step,
            self._draws[pos:pos + 3])

    def _bootstrap(self, next_observation: int, next_allowed: Sequence[int]) -> float:
        return self.table.max_value(next_observation, next_allowed)


class SarsaAgent(TDAgent):
    """SARSA: bootstrap from the action the behaviour policy will take.

    The successor action is sampled with the agent's own exploration
    strategy, remembered, and returned by :meth:`select_action` on the
    next call so the trajectory stays consistent (classic SARSA loop).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending_action: Optional[int] = None

    def select_action(self, observation: int, allowed: Sequence[int]) -> int:
        if self._pending_action is not None:
            action = self._pending_action
            self._pending_action = None
            if action in set(int(a) for a in allowed):
                return action
        return super().select_action(observation, allowed)

    def _bootstrap(self, next_observation: int, next_allowed: Sequence[int]) -> float:
        nxt = self.exploration.select(
            self.table, next_observation, next_allowed, self._step, self._rng
        )
        self._pending_action = int(nxt)
        return self.table.get(next_observation, nxt)


class ExpectedSarsaAgent(TDAgent):
    """Expected SARSA with an epsilon-greedy target policy.

    Uses the closed-form expectation under epsilon-greedy, which needs the
    current epsilon; only meaningful with an
    :class:`~repro.core.exploration.EpsilonGreedy` exploration strategy
    (enforced at construction).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(self.exploration, EpsilonGreedy):
            raise TypeError(
                "ExpectedSarsaAgent requires EpsilonGreedy exploration, got "
                f"{type(self.exploration).__name__}"
            )

    def _bootstrap(self, next_observation: int, next_allowed: Sequence[int]) -> float:
        allowed = np.asarray(next_allowed, dtype=int)
        eps = self.exploration.epsilon_at(self._step)
        q = np.array([self.table.get(next_observation, a) for a in allowed])
        greedy_value = q.max()
        uniform_value = q.mean()
        return (1.0 - eps) * greedy_value + eps * uniform_value
