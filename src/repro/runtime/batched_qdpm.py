"""Batched Q-DPM: B independent learners trained in one lock-step loop.

Each replica is a *separate* Q-DPM training run (its own seed, its own
Q-table), but all B tables live as disjoint row blocks of one
:class:`~repro.core.QTable` with ``B * n_states`` rows.  Candidates are
laid out K-major: a ``(K, B * n_states)`` table holds, for every global
state, the flat Q index of each of its K allowed actions in
allowed-list order, with padding pointed at one -inf cell past the
table.  So one slot of training for all replicas is:

1. one gather of the ``(K, B)`` candidate indices and their Q values,
   and one max down the K rows,
2. one pick per replica: the candidates are the values within the
   slot's slack of that max (every allowed action when the slot
   explores, else the near-max ones), and the pick is the first row
   whose running count of them exceeds ``u * size``,
3. one :meth:`BatchedSlottedEnv.step`,
4. one bootstrap max over the next states' candidate rows and the
   Eqn.-3 relaxation written in place at the picked flat Q indices.

Every reduction runs along axis 0 of a ``(K, B)`` array, and no slot
gathers a mask.  Replica row blocks are disjoint, so the vectorized
update is exactly B sequential scalar updates.  The *environment*
trajectories are bit-exact per replica (see
:mod:`repro.runtime.batched_env`).  Exploration is also per-replica:
each replica owns its own generator (seeded ``seed + i`` for an int
seed — the scalar experiments' ``agent seed = env seed + 1``
convention composes naturally), drawing a fixed three-uniform block per
slot (explore?, random-action pick, tie-break pick).  That makes every
seed's trained outcome independent of how seeds are chunked into
batches.  A scalar :class:`~repro.core.QDPM` with
:class:`~repro.core.FixedDrawEpsilonGreedy` consumes the same layout
and reproduces a replica bit for bit; the default
:class:`~repro.core.EpsilonGreedy` matches its *distribution* —
including uniform random tie-breaking among near-max Q-values — but
draws a variable number of uniforms per slot.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

# the recording loop and its batched history live with the scalar ones
from ..checks import check_initial_q
from ..core.qdpm import BatchRunHistory, greedy_policy_of, run_lockstep
from ..core.qtable import QTable
from ..core.schedules import Schedule
from ..env.observation import FullObservation
from ..mdp import DeterministicPolicy
from .batched_env import BatchedSlottedEnv, _resolve_seeds

#: near-max tolerance of the greedy choice (the scalar agent's)
_TIE_TOLERANCE = 1e-12
#: an exploring slot's slack: the row max minus it rounds to the lowest
#: finite float (``check_initial_q`` keeps |Q| below 1e291), so every
#: allowed action is a candidate and the -inf padding is not
_EXPLORE_SLACK = np.finfo(np.float64).max


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
        initial_q = check_initial_q(initial_q)
        self.discount = float(discount)
        self._epsilon = float(epsilon)
        b, s, n_actions = env.n_replicas, env.n_states, env.n_actions
        self.table = QTable(b * s, n_actions, initial_value=initial_q)
        # Q lives in a flat buffer with one -inf cell past the table:
        # padded candidate slots point there, so no row max needs a mask
        size = b * s * n_actions
        self._q_flat = np.append(self.table._q.ravel(), -np.inf)
        self.table._q = self._q_flat[:size].reshape(b * s, n_actions)
        self._visits_flat = self.table._visits.reshape(size)
        # the action of each flat Q index
        self._action_of = np.tile(np.arange(n_actions), b * s)
        self._offsets = np.arange(b, dtype=np.int64) * s
        self._lanes = np.arange(b)
        self._shape = (b, s, n_actions)
        self.env = env
        # evaluation slots read this fixed row pair: they never explore
        # and pick the first near-max action
        self._greedy_draws = np.array([[_TIE_TOLERANCE] * b, [0.0] * b])
        self._rngs = [
            np.random.default_rng(sd) for sd in _resolve_seeds(seed, b)
        ]
        self._draws = np.empty((self._DRAW_BLOCK_SLOTS, 2, b))
        self._draw_pos = self._DRAW_BLOCK_SLOTS
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
        b, s, n_actions = shape = env.n_replicas, env.n_states, env.n_actions
        if shape != self._shape:
            raise ValueError(
                f"env has {b} x {s} x {n_actions} (replica, state, action) "
                f"pairs; the table was built for "
                f"{' x '.join(map(str, self._shape))}"
            )
        size = self._q_flat.size - 1
        # (K, S): each state's allowed actions in allowed-list order, the
        # order exploration draws and tie-breaks index; -1 past the end
        tables = env.tables
        mode_of = np.arange(s) // (env.queue_capacity + 1)
        k = np.arange(tables.allowed_padded.shape[1])[:, None]
        allowed = np.where(k < tables.n_allowed[mode_of],
                           tables.allowed_padded[mode_of].T, -1)
        # (K, B * S): the flat Q index of candidate k of global state
        # replica * S + state, the -inf cell where k is padding
        allowed = np.tile(allowed, b)
        self._candidates = np.where(
            allowed >= 0, np.arange(b * s) * n_actions + allowed, size)
        self._env = env

    @property
    def epsilon(self) -> float:
        """Exploration rate (fixed: draw blocks are resolved ahead)."""
        return self._epsilon

    @property
    def n_replicas(self) -> int:
        """Batch width B."""
        return self.env.n_replicas

    def _next_draws(self) -> np.ndarray:
        """(2, B) view of this slot's candidate slack and pick uniform.

        Each learning slot consumes exactly DRAWS_PER_SLOT uniforms per
        replica, so streams are pre-drawn in blocks (the same values in
        the same order as per-slot calls) and the O(B) generator loop and
        the explore test run once per _DRAW_BLOCK_SLOTS slots.  A slot
        that explores gets slack ``_EXPLORE_SLACK`` and its random-pick
        uniform, one that exploits the tie tolerance and its tie-break
        uniform.
        """
        if self._draw_pos == self._DRAW_BLOCK_SLOTS:
            n = self._DRAW_BLOCK_SLOTS
            raw = np.array([rng.random(self.DRAWS_PER_SLOT * n)
                            for rng in self._rngs])
            raw = raw.reshape(-1, n, self.DRAWS_PER_SLOT).transpose(2, 1, 0)
            explore = raw[0] < self._epsilon  # (slot, replica)
            self._draws[:, 0] = np.where(explore, _EXPLORE_SLACK,
                                         _TIE_TOLERANCE)
            self._draws[:, 1] = np.where(explore, raw[1], raw[2])
            self._draw_pos = 0
        self._draw_pos += 1
        return self._draws[self._draw_pos - 1]

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
        q = self._q_flat
        # (K, B) candidate Q indices and values; padding reads -inf
        candidates = self._candidates.take(env._states + self._offsets, axis=1)
        values = q.take(candidates)
        slack, u = self._next_draws() if learn else self._greedy_draws
        # the candidate set: the values within the slack of the row max,
        # which is every allowed action when the slot explores; its k-th
        # member for k = floor(u * size) is the first row whose running
        # count exceeds u * size.  u < 1, so this is the scalar agent's
        # min(int(u * n), n - 1).
        counts = (values >= np.maximum.reduce(values) - slack).cumsum(axis=0)
        pick = (counts > u * counts[-1]).argmax(axis=0)
        pick *= self._lanes.size  # row -> flat position in (K, B)
        pick += self._lanes
        index = candidates.take(pick)  # replica blocks: unique indices
        old = values.take(pick)
        next_states, rewards, info = env.step(self._action_of.take(index))
        if not learn:
            return rewards, info, np.zeros(self.n_replicas)
        bootstrap = np.maximum.reduce(q.take(
            self._candidates.take(next_states + self._offsets, axis=1)))
        targets = rewards + self.discount * bootstrap
        visits = self._visits_flat.take(index)
        lr = self._lr
        if isinstance(lr, Schedule):  # a constant rate was checked once
            lr = np.array([lr.value(n) for n in visits.tolist()])
            if lr.min() < 0.0 or lr.max() > 1.0:
                raise ValueError("learning rates must be in [0, 1]")
        new = (1.0 - lr) * old + lr * targets
        q.put(index, new)
        self._visits_flat.put(index, visits + 1)
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
