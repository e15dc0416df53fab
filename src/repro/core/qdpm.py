"""The Q-DPM controller: the paper's power manager.

Couples a tabular TD agent (Q-learning by default) to a
:class:`~repro.env.SlottedDPMEnv` through an observation map.  On each
slot the controller

1. observes the system state,
2. selects a power command (epsilon-greedy over the Q-table),
3. applies it, receives the reinforcement signal (energy + performance
   penalty), and
4. performs the O(|A|) Q-update of the paper's Eqn. 3.

That loop — two table rows touched per slot, no parameter estimator, no
mode-switch controller, no policy re-optimization — is the entire runtime
of the technique, which is the paper's efficiency argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from ..env.observation import FullObservation, ObservationMap
from ..env.slotted_env import SlottedDPMEnv
from ..mdp import DeterministicPolicy
from .exploration import EpsilonGreedy, ExplorationStrategy
from .qlearning import QLearningAgent, TDAgent
from .qtable import QTable


@dataclass
class RunHistory:
    """Per-slot traces recorded by :meth:`QDPM.run`.

    Arrays are aligned: index ``i`` describes slot ``slot[i]``.  When a
    ``record_every`` stride is used, entries are per-window means (energy,
    reward, queue) over the stride.
    """

    slots: np.ndarray            #: slot index at each record point
    energy: np.ndarray           #: mean energy per slot in the window
    reward: np.ndarray           #: mean reward per slot in the window
    queue: np.ndarray            #: mean end-of-slot queue in the window
    saving_ratio: np.ndarray     #: windowed energy-saving ratio vs always-on
    td_error: np.ndarray         #: mean absolute TD change in the window

    def __len__(self) -> int:
        return int(self.slots.size)


@dataclass
class BatchRunHistory:
    """Windowed per-replica traces recorded by
    :meth:`~repro.runtime.BatchedQDPM.run`.

    ``slots`` has shape ``(n_records,)``; every other array has shape
    ``(n_records, B)`` — column ``i`` is replica ``i``'s trace.
    """

    slots: np.ndarray
    energy: np.ndarray
    reward: np.ndarray
    queue: np.ndarray
    saving_ratio: np.ndarray
    td_error: np.ndarray

    def __len__(self) -> int:
        return int(self.slots.size)

    @property
    def n_replicas(self) -> int:
        return int(self.reward.shape[1])

    def replica(self, i: int) -> RunHistory:
        """Scalar :class:`RunHistory` view of replica ``i``."""
        return RunHistory(
            slots=self.slots.copy(),
            energy=self.energy[:, i].copy(),
            reward=self.reward[:, i].copy(),
            queue=self.queue[:, i].copy(),
            saving_ratio=self.saving_ratio[:, i].copy(),
            td_error=self.td_error[:, i].copy(),
        )

    def mean_history(self) -> RunHistory:
        """Across-replica mean trace (the sweep's headline curve)."""
        return RunHistory(
            slots=self.slots.copy(),
            energy=self.energy.mean(axis=1),
            reward=self.reward.mean(axis=1),
            queue=self.queue.mean(axis=1),
            saving_ratio=self.saving_ratio.mean(axis=1),
            td_error=self.td_error.mean(axis=1),
        )


def run_lockstep(
    env,
    step_fn: Callable[[], tuple],
    n_slots: int,
    record_every: int = 1000,
    callback: Optional[Callable[[int], None]] = None,
) -> Union[RunHistory, BatchRunHistory]:
    """Drive ``step_fn`` for ``n_slots`` with windowed recording.

    ``env`` is the group of ``env.n_replicas`` replicas that
    ``step_fn() -> (reward, info, delta)`` advances one slot in lock
    step: a :class:`~repro.env.SlottedDPMEnv` (one replica, floats, a
    :class:`RunHistory` comes back) or a
    :class:`~repro.runtime.BatchedSlottedEnv` (per-replica arrays, a
    :class:`BatchRunHistory`).  Histories hold per-window means every
    ``record_every`` slots plus a final partial window; ``callback(slot)``
    fires at each full-window record point.  This is the single
    recording loop behind every slotted rollout, scalar or batched.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    always_on = env.always_on_power() * env.slot_length
    rows: List[tuple] = []
    for start in range(0, n_slots, record_every):
        width = min(record_every, n_slots - start)
        # ``+=`` adds floats, or allocates each window's arrays on the
        # first slot and then accumulates in place
        energy = reward = queue = td = 0.0
        for _ in range(width):
            r, info, delta = step_fn()
            energy += info.energy
            reward += r
            queue += info.queue
            td += delta
        mean_energy = energy / width
        saving = (1.0 - mean_energy / always_on if always_on > 0
                  else 0.0 * mean_energy)
        rows.append((info.slot, mean_energy, reward / width,
                     queue / width, saving, td / width))
        if width == record_every and callback is not None:
            callback(info.slot)
    columns = [np.asarray(column) for column in zip(*rows)]
    return (BatchRunHistory if columns[1].ndim == 2 else RunHistory)(*columns)


class QDPM:
    """Q-learning dynamic power manager.

    Parameters
    ----------
    env:
        The slotted environment to control.
    agent:
        A :class:`~repro.core.qlearning.TDAgent`; defaults to Watkins'
        Q-learning with the paper's constant alpha / epsilon, sized to the
        observation space.
    observation:
        Observation map; defaults to full observability (Fig. 1 setting).
    discount, learning_rate, epsilon, seed:
        Convenience knobs forwarded to the default agent when ``agent``
        is not supplied.
    exploration:
        Exploration strategy for the default agent; ``None`` keeps the
        paper's :class:`~repro.core.exploration.EpsilonGreedy`.  Pass
        :class:`~repro.core.exploration.FixedDrawEpsilonGreedy` to
        consume the batched engine's fixed three-uniform block per slot,
        making a scalar run bit-identical to a
        :class:`~repro.runtime.BatchedQDPM` replica under matched seeds.
    """

    def __init__(
        self,
        env: SlottedDPMEnv,
        agent: Optional[TDAgent] = None,
        observation: Optional[ObservationMap] = None,
        discount: float = 0.95,
        learning_rate: float = 0.1,
        epsilon: float = 0.1,
        seed: Optional[int] = None,
        exploration: Optional[ExplorationStrategy] = None,
    ) -> None:
        self.env = env
        self.observation = (
            observation if observation is not None else FullObservation(env)
        )
        if agent is None:
            agent = QLearningAgent(
                n_observations=self.observation.n_observations,
                n_actions=env.n_actions,
                discount=discount,
                learning_rate=learning_rate,
                exploration=(
                    exploration if exploration is not None
                    else EpsilonGreedy(epsilon)
                ),
                seed=seed,
            )
        elif exploration is not None:
            raise ValueError(
                "pass exploration only when the default agent is built "
                "(agent is None); configure a supplied agent directly"
            )
        if agent.table.n_observations != self.observation.n_observations:
            raise ValueError(
                f"agent table has {agent.table.n_observations} rows but the "
                f"observation space has {self.observation.n_observations}"
            )
        if agent.table.n_actions != env.n_actions:
            raise ValueError(
                f"agent table has {agent.table.n_actions} actions but the "
                f"environment has {env.n_actions}"
            )
        self.agent = agent

    # ------------------------------------------------------------------ #
    # one slot of control — the entire runtime of Q-DPM
    # ------------------------------------------------------------------ #

    def control_step(self, learn: bool = True) -> tuple:
        """Observe, act, (optionally) learn; returns (reward, info, delta)."""
        env = self.env  # its allowed lists are per mode, shared read-only
        identity = type(self.observation) is FullObservation
        state = env.state
        obs = state if identity else self.observation.observe(state)
        allowed = env._allowed[state // env._qcap1]
        if learn:
            action = self.agent.select_action(obs, allowed)
        else:
            action = self.agent.greedy_action(obs, allowed)
        next_state, reward, info = env.step(action)
        delta = 0.0
        if learn:
            next_obs = (next_state if identity
                        else self.observation.observe(next_state))
            delta = self.agent.update(obs, action, reward, next_obs,
                                      env._allowed[next_state // env._qcap1])
        return reward, info, delta

    def run(
        self,
        n_slots: int,
        learn: bool = True,
        record_every: int = 1000,
        callback: Optional[Callable[[int], None]] = None,
    ) -> RunHistory:
        """Control the environment for ``n_slots`` slots.

        Records windowed means every ``record_every`` slots (the windowed
        energy-saving ratio is the Fig. 1 y-axis).  ``callback(slot)`` is
        invoked at each record point — experiments use it to snapshot the
        greedy policy.
        """
        return run_lockstep(
            self.env, lambda: self.control_step(learn=learn), n_slots,
            record_every=record_every, callback=callback,
        )

    # ------------------------------------------------------------------ #
    # policy extraction
    # ------------------------------------------------------------------ #

    def greedy_policy(self, prefer_visited: bool = True) -> DeterministicPolicy:
        """Greedy environment-state policy induced by the current Q-table
        (see :func:`greedy_policy_of`).

        Well-defined for coarse observations too (all states sharing an
        observation share an action); with
        :class:`~repro.env.FullObservation` this is directly comparable to
        the exact solver's policy.
        """
        return greedy_policy_of(self.agent.table, self.env, self.observation,
                                prefer_visited)


def greedy_policy_of(table: QTable, env, observation: ObservationMap,
                     prefer_visited: bool = True) -> DeterministicPolicy:
    """Greedy environment-state policy of ``table`` over ``env``'s states,
    each state read through ``observation``.

    ``env`` is a :class:`~repro.env.SlottedDPMEnv` or a
    :class:`~repro.runtime.BatchedSlottedEnv` (one replica's states).
    ``prefer_visited`` (default) restricts the per-state argmax to
    actions that have received at least one Q-update whenever any
    exist, and falls back to the home-state command otherwise.  Without
    it, never-updated entries retain their (optimistic) initial value
    and a frozen extraction can "choose" actions the agent never tried
    — good for exploration while learning, nonsense in a deployed
    snapshot.
    """
    modes = env.mode_space
    home_action = modes.action_index(env.device.initial_state)
    qcap1 = env.queue_capacity + 1
    actions = np.empty(env.n_states, dtype=int)
    for state in range(env.n_states):
        obs = observation.observe(state)
        allowed = modes.allowed_actions(state // qcap1)
        if prefer_visited:
            candidates = [a for a in allowed if table.visits(obs, a) > 0]
        else:
            candidates = allowed
        if candidates:
            actions[state] = table.best_action(obs, candidates)
        elif home_action in allowed:
            actions[state] = home_action
        else:
            actions[state] = allowed[0]
    return DeterministicPolicy(actions)
