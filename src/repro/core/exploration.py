"""Exploration strategies for the Q-DPM agent.

The paper: "At each state, with probability F a random action needs to be
taken instead of the action recommended by the Q(s, a)" — plain
epsilon-greedy.  Boltzmann (softmax) exploration is included for the
exploration ablation bench.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Union

import numpy as np

from .qtable import QTable
from .schedules import Constant, Schedule


def _as_schedule(value: Union[float, Schedule]) -> Schedule:
    return value if isinstance(value, Schedule) else Constant(float(value))


def _epsilon_schedule(epsilon: Union[float, Schedule]) -> Schedule:
    """``epsilon`` as a schedule; a constant must be in [0, 1]."""
    if not isinstance(epsilon, Schedule) and not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return _as_schedule(epsilon)


class ExplorationStrategy(ABC):
    """Picks an action given the Q-table and the allowed action set."""

    @abstractmethod
    def select(
        self,
        table: QTable,
        observation: int,
        allowed: Sequence[int],
        step: int,
        rng: np.random.Generator,
    ) -> int:
        """Return the action to play at global step ``step``."""


class Greedy(ExplorationStrategy):
    """Pure exploitation (used when freezing a learned policy)."""

    def select(
        self,
        table: QTable,
        observation: int,
        allowed: Sequence[int],
        step: int,
        rng: np.random.Generator,
    ) -> int:
        return table.best_action(observation, allowed, rng=rng)


class EpsilonGreedy(ExplorationStrategy):
    """The paper's strategy: random action with probability epsilon.

    ``epsilon`` may be a float (the paper's constant) or any
    :class:`~repro.core.schedules.Schedule` for decaying variants.
    """

    def __init__(self, epsilon: Union[float, Schedule] = 0.1) -> None:
        self._epsilon = _epsilon_schedule(epsilon)

    def epsilon_at(self, step: int) -> float:
        """Exploration probability at a given step."""
        return self._epsilon.value(step)

    def select(
        self,
        table: QTable,
        observation: int,
        allowed: Sequence[int],
        step: int,
        rng: np.random.Generator,
    ) -> int:
        allowed = np.asarray(allowed, dtype=int)
        if allowed.size == 0:
            raise ValueError("allowed action set must be non-empty")
        eps = self.epsilon_at(step)
        if rng.random() < eps:
            return int(rng.choice(allowed))
        return table.best_action(observation, allowed, rng=rng)

    def __repr__(self) -> str:
        return f"EpsilonGreedy({self._epsilon!r})"


class FixedDrawEpsilonGreedy(ExplorationStrategy):
    """Epsilon-greedy that consumes exactly three uniforms per call.

    :class:`EpsilonGreedy` draws a *variable* number of uniforms per slot
    (the explore gate, then either one ``choice`` over the allowed set or
    a tie-break ``choice`` only when ties exist), so a scalar agent's
    stream never lines up with the batched engine's fixed-layout streams.
    This strategy consumes the same fixed three-uniform block per slot as
    :class:`~repro.runtime.BatchedQDPM` — ``[explore?, random-action
    pick, greedy tie-break pick]`` — with identical index arithmetic, so
    a scalar Q-DPM run seeded like batched replica ``i`` reproduces that
    replica's action stream bit for bit.  Same distribution as
    :class:`EpsilonGreedy` (uniform over allowed on explore, uniform over
    near-max ties on exploit); only the stream layout differs.
    """

    def __init__(self, epsilon: Union[float, Schedule] = 0.1,
                 tolerance: float = 1e-12) -> None:
        self._epsilon = _epsilon_schedule(epsilon)
        self._tolerance = float(tolerance)

    def epsilon_at(self, step: int) -> float:
        """Exploration probability at a given step."""
        return self._epsilon.value(step)

    def select(
        self,
        table: QTable,
        observation: int,
        allowed: Sequence[int],
        step: int,
        rng: np.random.Generator,
    ) -> int:
        n = len(allowed)
        if n == 0:
            raise ValueError("allowed action set must be non-empty")
        # the fixed per-slot block, in the batched engine's layout
        explore, pick, tie = rng.random(3).tolist()
        if explore < self._epsilon.value(step):
            return int(allowed[min(int(pick * n), n - 1)])
        ties = table.near_best(observation, allowed, self._tolerance)
        return int(ties[min(int(tie * len(ties)), len(ties) - 1)])

    def __repr__(self) -> str:
        return f"FixedDrawEpsilonGreedy({self._epsilon!r})"


class Boltzmann(ExplorationStrategy):
    """Softmax exploration: P(a) proportional to exp(Q(s, a) / T)."""

    def __init__(self, temperature: Union[float, Schedule] = 1.0) -> None:
        self._temperature = _as_schedule(temperature)

    def select(
        self,
        table: QTable,
        observation: int,
        allowed: Sequence[int],
        step: int,
        rng: np.random.Generator,
    ) -> int:
        allowed = np.asarray(allowed, dtype=int)
        if allowed.size == 0:
            raise ValueError("allowed action set must be non-empty")
        temp = self._temperature.value(step)
        if temp <= 0:
            return table.best_action(observation, allowed, rng=rng)
        q = np.array([table.get(observation, a) for a in allowed])
        logits = (q - q.max()) / temp
        probs = np.exp(logits)
        probs /= probs.sum()
        return int(rng.choice(allowed, p=probs))

    def __repr__(self) -> str:
        return f"Boltzmann({self._temperature!r})"
