"""Batched Q-DPM: B independent learners trained in one lock-step loop.

Each replica is a *separate* Q-DPM training run (its own seed, its own
Q-table), but all B tables live as disjoint row blocks of one
:class:`~repro.core.QTable` with ``B * n_states`` rows, so one slot of
training for all replicas is:

1. one masked argmax over the padded allowed-action table for the
   greedy actions (ties break in allowed-list order, like the scalar
   agent's deterministic branch),
2. one vectorized epsilon-greedy overwrite for exploration,
3. one :meth:`BatchedSlottedEnv.step`,
4. one masked-max bootstrap + one :meth:`QTable.batch_update`.

Replica row blocks are disjoint, so the vectorized update is exactly B
sequential scalar updates.  The *environment* trajectories are bit-exact
per replica (see :mod:`repro.runtime.batched_env`).  Exploration is also
per-replica: each replica owns its own generator (seeded ``seed + i``
for an int seed — the scalar experiments' ``agent seed = env seed + 1``
convention composes naturally), drawing a fixed three-uniform block per
slot (explore?, random-action pick, tie-break pick).  That makes every
seed's trained outcome independent of how seeds are chunked into
batches, and matches the scalar agent's *distribution* — including
uniform random tie-breaking among near-max Q-values during training —
though not its exact stream layout (the scalar path consumes a variable
number of draws per slot, which cannot be vectorized without
serializing the loop).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

# the recording loop and its batched history live with the scalar ones
from ..core.qdpm import BatchRunHistory, run_lockstep
from ..core.qtable import QTable
from ..core.schedules import Schedule
from ..mdp import DeterministicPolicy
from .batched_env import BatchedSlottedEnv, _resolve_seeds


class BatchedQDPM:
    """Lock-step trainer for B independent Q-DPM seeds.

    Parameters
    ----------
    env:
        A :class:`BatchedSlottedEnv` (its ``n_replicas`` fixes B).
    discount, learning_rate, epsilon, initial_q:
        The scalar Q-DPM hyperparameters, shared by every replica.
        ``learning_rate`` may be a float or a per-pair-visit
        :class:`~repro.core.schedules.Schedule`.
    seed:
        Per-replica exploration streams: an int expands to the
        consecutive block ``seed, seed + 1, ...``; a sequence of length
        B is used verbatim; ``None`` draws fresh entropy per replica.
        Replica ``i``'s trained outcome depends only on its own env and
        exploration seeds — never on batch composition.
    """

    def __init__(
        self,
        env: BatchedSlottedEnv,
        discount: float = 0.95,
        learning_rate: Union[float, Schedule] = 0.1,
        epsilon: float = 0.1,
        initial_q: float = 0.0,
        seed: Optional[Union[int, list]] = None,
    ) -> None:
        if not 0.0 <= discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {discount}")
        if isinstance(learning_rate, Schedule):
            self._lr_schedule: Optional[Schedule] = learning_rate
            self._lr_const = 0.0
        else:
            if not 0.0 <= learning_rate <= 1.0:
                raise ValueError(
                    f"learning_rate must be in [0, 1], got {learning_rate}"
                )
            self._lr_schedule = None
            self._lr_const = float(learning_rate)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.env = env
        self.discount = float(discount)
        self.epsilon = float(epsilon)
        b, s = env.n_replicas, env.n_states
        self.table = QTable(b * s, env.n_actions, initial_value=initial_q)
        self._offsets = np.arange(b, dtype=np.int64) * s
        self._replica_arange = np.arange(b)
        self._pad_arange = np.arange(env.tables.allowed_padded.shape[1])
        self._rngs = [
            np.random.default_rng(sd) for sd in _resolve_seeds(seed, b)
        ]
        # each learning slot consumes exactly DRAWS_PER_SLOT uniforms per
        # replica, so streams can be pre-drawn in blocks: same values in
        # the same order as per-slot calls, with the O(B) generator loop
        # amortized over _DRAW_BLOCK_SLOTS slots.
        self._draw_block = np.empty((b, self.DRAWS_PER_SLOT * self._DRAW_BLOCK_SLOTS))
        self._draw_pos = self._draw_block.shape[1]
        self._steps = 0

    #: uniforms per replica per learning slot: explore?, random pick, tie pick
    DRAWS_PER_SLOT = 3
    _DRAW_BLOCK_SLOTS = 256

    @property
    def n_replicas(self) -> int:
        """Batch width B."""
        return self.env.n_replicas

    def _next_draws(self) -> np.ndarray:
        """(B, DRAWS_PER_SLOT) view of this slot's per-replica uniforms."""
        if self._draw_pos >= self._draw_block.shape[1]:
            for i, rng in enumerate(self._rngs):
                rng.random(out=self._draw_block[i])
            self._draw_pos = 0
        out = self._draw_block[:, self._draw_pos:self._draw_pos + self.DRAWS_PER_SLOT]
        self._draw_pos += self.DRAWS_PER_SLOT
        return out

    @property
    def steps(self) -> int:
        """Slots of training applied so far (per replica)."""
        return self._steps

    # ------------------------------------------------------------------ #
    # one lock-step slot for all replicas
    # ------------------------------------------------------------------ #

    def _greedy_actions(self, obs: np.ndarray, modes: np.ndarray,
                        tie_uniform: Optional[np.ndarray] = None) -> np.ndarray:
        """Greedy action per replica over the allowed set.

        With ``tie_uniform`` (one uniform per replica), ties within
        1e-12 of the row max break *uniformly at random* — the behavior
        of the scalar training path, which always hands
        :meth:`QTable.best_action` its rng.  Without it, the first
        action in allowed-list order wins (the stay action; the scalar
        deterministic branch used for evaluation / policy extraction).
        """
        tables = self.env.tables
        padded = tables.allowed_padded[modes]               # (B, K)
        rows = self.table._q[obs[:, None], padded]          # (B, K)
        valid = self._pad_arange < tables.n_allowed[modes][:, None]
        masked = np.where(valid, rows, -np.inf)
        best = masked.max(axis=1, keepdims=True)
        near = valid & (rows >= best - 1e-12)
        if tie_uniform is None:
            pick = near.argmax(axis=1)                      # first in allowed order
        else:
            counts = near.sum(axis=1)
            kth = np.minimum(
                (tie_uniform * counts).astype(np.int64), counts - 1
            )
            pick = (near.cumsum(axis=1) > kth[:, None]).argmax(axis=1)
        return padded[self._replica_arange, pick]

    def _select_actions(self, obs: np.ndarray, modes: np.ndarray,
                        learn: bool) -> np.ndarray:
        if not learn:
            return self._greedy_actions(obs, modes)
        # three uniforms per replica per slot, from each replica's own
        # stream: explore?, random-action pick, greedy tie-break pick
        draws = self._next_draws()
        greedy = self._greedy_actions(obs, modes, tie_uniform=draws[:, 2])
        if self.epsilon <= 0.0:
            return greedy
        tables = self.env.tables
        explore = draws[:, 0] < self.epsilon
        n_allowed = tables.n_allowed[modes]
        pick = np.minimum(
            (draws[:, 1] * n_allowed).astype(np.int64), n_allowed - 1
        )
        random_actions = tables.allowed_padded[modes, pick]
        return np.where(explore, random_actions, greedy)

    def _learning_rates(self, obs: np.ndarray,
                        actions: np.ndarray) -> Union[float, np.ndarray]:
        if self._lr_schedule is None:
            return self._lr_const
        visits = self.table._visits[obs, actions]
        return np.array(
            [self._lr_schedule.value(int(v)) for v in visits]
        )

    def control_step(self, learn: bool = True) -> tuple:
        """One slot for every replica; returns (rewards, info, deltas)."""
        env = self.env
        states = env.states
        obs = states + self._offsets
        actions = self._select_actions(obs, env._modes, learn)
        lrs = self._learning_rates(obs, actions) if learn else None
        next_states, rewards, info = env.step(actions)
        if not learn:
            return rewards, info, np.zeros(self.n_replicas)
        next_obs = next_states + self._offsets
        next_mask = env.tables.allowed[env._modes]
        bootstrap = self.table.batch_max_value(
            next_obs, next_mask, validate=False
        )
        targets = rewards + self.discount * bootstrap
        # replica row blocks are disjoint -> pairs are unique by construction
        deltas = self.table.batch_update(
            obs, actions, targets, lrs, unique=True
        )
        self._steps += 1
        return rewards, info, deltas

    def run(
        self,
        n_slots: int,
        learn: bool = True,
        record_every: int = 1000,
        callback: Optional[Callable[[int], None]] = None,
    ) -> BatchRunHistory:
        """Train (or evaluate) every replica for ``n_slots`` slots.

        Windowing matches :meth:`repro.core.QDPM.run` (see
        :func:`run_lockstep`).
        """
        return run_lockstep(
            self.env,
            lambda: self.control_step(learn=learn),
            n_slots,
            record_every=record_every,
            callback=callback,
        )

    # ------------------------------------------------------------------ #
    # per-replica extraction
    # ------------------------------------------------------------------ #

    def replica_table(self, i: int) -> QTable:
        """Copy of replica ``i``'s Q-table block as a standalone table."""
        if not 0 <= i < self.n_replicas:
            raise ValueError(f"replica index out of range: {i}")
        s = self.env.n_states
        block = QTable(s, self.env.n_actions)
        block._q = self.table._q[i * s:(i + 1) * s].copy()
        block._visits = self.table._visits[i * s:(i + 1) * s].copy()
        return block

    def greedy_policy(self, replica: int = 0,
                      prefer_visited: bool = True) -> DeterministicPolicy:
        """Greedy policy of one replica (semantics of ``QDPM.greedy_policy``)."""
        env = self.env
        table = self.replica_table(replica)
        home_action = env.mode_space.action_index(env.device.initial_state)
        qcap1 = env.queue_capacity + 1
        actions = np.empty(env.n_states, dtype=int)
        for state in range(env.n_states):
            allowed = env.mode_space.allowed_actions(state // qcap1)
            if prefer_visited:
                visited = [a for a in allowed if table.visits(state, a) > 0]
                if visited:
                    actions[state] = table.best_action(state, visited)
                elif home_action in allowed:
                    actions[state] = home_action
                else:
                    actions[state] = allowed[0]
            else:
                actions[state] = table.best_action(state, allowed)
        return DeterministicPolicy(actions)

    def __repr__(self) -> str:
        return (
            f"BatchedQDPM(replicas={self.n_replicas}, "
            f"states={self.env.n_states}, actions={self.env.n_actions})"
        )
