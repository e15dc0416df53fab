"""Batched Q-DPM: B independent learners trained in one lock-step loop.

Each replica is a *separate* Q-DPM training run (its own seed, its own
Q-table), but all B tables live as disjoint row blocks of one
:class:`~repro.core.QTable` with ``B * n_states`` rows, so one slot of
training for all replicas is:

1. one gather of each replica's Q row over its allowed actions (in
   allowed-list order) and one masked max that marks the near-max ones,
2. one column pick per replica: the k-th allowed action when the slot
   explores, else the k-th near-max one, k from the slot's uniforms,
3. one :meth:`BatchedSlottedEnv.step`,
4. one masked-max bootstrap and the Eqn.-3 relaxation written in place
   at the flat table indices ``obs * n_actions + action``.

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
from ..core.qdpm import BatchRunHistory, greedy_policy_of, run_lockstep
from ..core.qtable import QTable
from ..core.schedules import Schedule
from ..env.observation import FullObservation
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
        if not isinstance(learning_rate, Schedule):
            if not 0.0 <= learning_rate <= 1.0:
                raise ValueError(
                    f"learning_rate must be in [0, 1], got {learning_rate}"
                )
            learning_rate = float(learning_rate)
        self._lr = learning_rate
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.discount = float(discount)
        self.epsilon = float(epsilon)
        b, s = env.n_replicas, env.n_states
        self.table = QTable(b * s, env.n_actions, initial_value=initial_q)
        self._n_actions = env.n_actions
        self._offsets = np.arange(b, dtype=np.int64) * s
        self.env = env
        # evaluation slots read this fixed row: it never explores
        # (epsilon <= 1) and picks the first near-max action
        self._greedy_draws = np.tile([1.0, 0.0, 0.0], (b, 1))
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
    def env(self) -> BatchedSlottedEnv:
        """The environment stepped; a warm-up env may be swapped for
        the measured one between runs."""
        return self._env

    @env.setter
    def env(self, env: BatchedSlottedEnv) -> None:
        # which columns of each mode's padded allowed-action row are real
        padded = env.tables.allowed_padded
        self._valid = np.arange(padded.shape[1]) < env.tables.n_allowed[:, None]
        self._row_k = np.arange(env.n_replicas) * padded.shape[1]
        self._env = env

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

    def control_step(self, learn: bool = True) -> tuple:
        """One slot for every replica; returns (rewards, info, deltas).

        Learning slots act epsilon-greedily on three uniforms per replica
        (explore?, random pick, tie-break pick), breaking ties within
        1e-12 of the row max uniformly at random like the scalar agent,
        and relax Q toward the TD target.  Evaluation slots take the
        first near-max action in allowed-list order (the scalar agent's
        deterministic branch) and leave the table alone.
        """
        env = self._env
        tables = env.tables
        q = self.table._q
        modes = env._modes
        padded = tables.allowed_padded.take(modes, axis=0)  # (B, K) actions
        valid = self._valid.take(modes, axis=0)
        row = (env._states + self._offsets) * self._n_actions
        values = q.take(row[:, None] + padded)
        best = np.where(valid, values, -np.inf).max(axis=1, keepdims=True)
        near = valid & (values >= best - 1e-12)
        draws = self._next_draws() if learn else self._greedy_draws
        explore = draws[:, 0] < self.epsilon
        # the k-th member of the candidate set (every allowed action when
        # exploring, the near-max ones otherwise) for k = floor(u * size):
        # the first column whose running count exceeds u * size.  u < 1,
        # so this is the scalar agent's min(int(u * n), n - 1).
        counts = np.where(explore[:, None], valid, near).cumsum(axis=1)
        u = np.where(explore, draws[:, 1], draws[:, 2])
        column = (counts > (u * counts[:, -1])[:, None]).argmax(axis=1)
        column += self._row_k
        actions = padded.take(column)
        old = values.take(column)
        next_states, rewards, info = env.step(actions)
        if not learn:
            return rewards, info, np.zeros(self.n_replicas)
        next_rows = q.take(next_states + self._offsets, axis=0)
        bootstrap = np.where(tables.allowed.take(env._modes, axis=0),
                             next_rows, -np.inf).max(axis=1)
        targets = rewards + self.discount * bootstrap
        # replica row blocks are disjoint -> indices are unique
        index = row + actions
        visits = self.table._visits.take(index)
        lr = self._lr
        if isinstance(lr, Schedule):  # a constant rate was checked once
            lr = np.array([lr.value(n) for n in visits.tolist()])
            if lr.min() < 0.0 or lr.max() > 1.0:
                raise ValueError("learning rates must be in [0, 1]")
        new = (1.0 - lr) * old + lr * targets
        q.put(index, new)
        self.table._visits.put(index, visits + 1)
        self._steps += 1
        return rewards, info, np.abs(new - old)

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
        return greedy_policy_of(self.replica_table(replica), self.env,
                                FullObservation(self.env), prefer_visited)

    def __repr__(self) -> str:
        return (
            f"BatchedQDPM(replicas={self.n_replicas}, "
            f"states={self.env.n_states}, actions={self.env.n_actions})"
        )
