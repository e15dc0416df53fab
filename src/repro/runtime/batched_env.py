"""Lock-step batched slotted environment: B replicas per NumPy op.

:class:`BatchedSlottedEnv` advances B independent copies of
:class:`~repro.env.SlottedDPMEnv` one slot at a time with vectorized
service/arrival draws, queue updates, reward computation, and per-replica
totals.  Semantics are bit-for-bit those of the scalar environment:

- the state encoding (``mode * (queue_capacity + 1) + queue``), the
  mode-space step effects, and the reward formula are identical;
- each replica owns its own ``numpy`` PCG64 stream seeded exactly as a
  scalar env would be, and consumes draws in the scalar order (service
  draw only when the post-effect slot can service a non-empty queue,
  then the arrival draw) — so replica ``i`` of a batched run reproduces
  a scalar run seeded ``seeds[i]`` to the last bit.

The step function is tabled per (state, action) pair — next mode, next
state less its queue, energy, and whether the slot serves a request —
so a slot reads all of them at one flat index ``state * n_actions +
action`` and tests no queue.  Each replica's uniforms are pre-drawn in
blocks (``Generator.random(n)`` yields the same doubles as n scalar
calls) and read through a per-replica cursor, so a slot costs a
constant number of vectorized array ops instead of the scalar path's
O(B) Python round-trips; the O(B) generator calls recur once per few
hundred slots, at a refill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..checks import check_count, check_nonnegative
from ..device import PowerStateMachine
from ..env.slotted_env import EnvTotals
from ..env.states import ModeSpace
from ..workload.nonstationary import ConstantRate, RateSchedule


def _resolve_seeds(
    seeds: Optional[Union[int, Sequence[Optional[int]]]], n_replicas: int
) -> List[Optional[int]]:
    """Per-replica seed list: int -> consecutive block, sequence -> as-is."""
    if seeds is None:
        return [None] * n_replicas
    if isinstance(seeds, (int, np.integer)):
        return [int(seeds) + i for i in range(n_replicas)]
    seeds = list(seeds)
    if len(seeds) != n_replicas:
        raise ValueError(
            f"got {len(seeds)} seeds for {n_replicas} replicas"
        )
    return [None if s is None else int(s) for s in seeds]


@dataclass
class BatchStepInfo:
    """Per-slot diagnostics for all replicas (vector twin of ``StepInfo``)."""

    slot: int                #: slot index just simulated (same for all replicas)
    energy: np.ndarray       #: (B,) energy charged this slot
    queue: np.ndarray        #: (B,) queue length at slot end
    arrived: np.ndarray      #: (B,) bool — a request arrived
    served: np.ndarray       #: (B,) bool — a request completed
    lost: np.ndarray         #: (B,) bool — an arrival was dropped
    modes: np.ndarray        #: (B,) mode index at slot end
    arrival_rate: float      #: schedule rate used this slot (lock-step)


@dataclass
class BatchedEnvTotals:
    """Per-replica cumulative counters (vector twin of ``EnvTotals``).

    Construct via :meth:`zeros` — the array fields are sized by the
    batch width, so there are no defaults.
    """

    slots: int
    energy: np.ndarray
    queue_integral: np.ndarray
    arrivals: np.ndarray
    completions: np.ndarray
    losses: np.ndarray

    @classmethod
    def zeros(cls, n_replicas: int) -> "BatchedEnvTotals":
        return cls(
            slots=0,
            energy=np.zeros(n_replicas),
            queue_integral=np.zeros(n_replicas),
            arrivals=np.zeros(n_replicas, dtype=np.int64),
            completions=np.zeros(n_replicas, dtype=np.int64),
            losses=np.zeros(n_replicas, dtype=np.int64),
        )

    def replica(self, i: int) -> EnvTotals:
        """Scalar :class:`~repro.env.EnvTotals` view of replica ``i``."""
        return EnvTotals(
            slots=self.slots,
            energy=float(self.energy[i]),
            queue_integral=float(self.queue_integral[i]),
            arrivals=int(self.arrivals[i]),
            completions=int(self.completions[i]),
            losses=int(self.losses[i]),
        )


class BatchedSlottedEnv:
    """B lock-step replicas of :class:`~repro.env.SlottedDPMEnv`.

    Parameters mirror the scalar environment; ``n_replicas`` sets the
    batch width B and ``seeds`` the per-replica RNG streams (an int is
    expanded to the consecutive block ``seed, seed+1, ...``; a sequence
    is used verbatim, matching ``SlottedDPMEnv(seed=seeds[i])``).
    Replica ``i`` is bit-for-bit a scalar env seeded ``seeds[i]``.
    """

    #: uniforms pre-drawn per replica; a slot reads one or two of them
    _DRAW_BLOCK = 512

    def __init__(
        self,
        device: PowerStateMachine,
        schedule: Optional[RateSchedule] = None,
        n_replicas: int = 1,
        slot_length: float = 1.0,
        queue_capacity: int = 8,
        p_serve: float = 1.0,
        perf_weight: float = 0.5,
        loss_penalty: float = 2.0,
        seeds: Optional[Union[int, Sequence[Optional[int]]]] = None,
    ) -> None:
        self.n_replicas = check_count("n_replicas", n_replicas)
        self.queue_capacity = check_count("queue_capacity", queue_capacity)
        if not 0.0 < p_serve <= 1.0:
            raise ValueError(f"p_serve must be in (0, 1], got {p_serve}")
        self.perf_weight = check_nonnegative("perf_weight", perf_weight)
        self.loss_penalty = check_nonnegative("loss_penalty", loss_penalty)
        self.device = device
        self.mode_space = ModeSpace(device, slot_length)
        self.tables = self.mode_space.dense_tables()
        self.schedule = schedule if schedule is not None else ConstantRate(0.1)
        self.slot_length = float(slot_length)
        self.p_serve = float(p_serve)
        self._qcap1 = self.queue_capacity + 1
        self._n_actions = self.mode_space.n_actions
        self._build_step_tables()
        self._seed_rngs(seeds)
        self.reset()

    def _build_step_tables(self) -> None:
        """Per-(state, action) step tables, read with one flat index
        ``state * n_actions + action`` per slot.

        A state's mode picks the effect and its queue level whether the
        slot has a request to serve, so a step tests no queue, and the
        next state is one add.
        """
        qcap1, n_actions = self._qcap1, self._n_actions
        t = self.tables
        state = np.arange(self.n_states)
        mode_of = state // qcap1
        next_mode = t.next_mode[mode_of]
        self._sa_next_mode = next_mode.ravel()
        # the next state is this plus the queue at slot end
        self._sa_next_base = (next_mode * qcap1).ravel()
        self._sa_energy = t.energy[mode_of].ravel()
        self._sa_serves = (t.can_service[mode_of]
                           & (state % qcap1 > 0)[:, None]).ravel()
        # an illegal (state, action) pair maps to index ``size``, past
        # every table
        size = self.n_states * n_actions
        self._sa_checked = np.where(t.allowed[mode_of].ravel(),
                                    np.arange(size), size)
        # ``state * n_actions`` split into its mode and queue parts: the
        # mode and queue vectors stay the replica state, so a mode forced
        # by writing ``_modes`` in place (as the action-check tests do)
        # takes effect at the next step
        self._mode_rows = np.arange(self.mode_space.n_modes) * (qcap1 * n_actions)
        self._queue_rows = np.arange(qcap1) * n_actions
        # per-queue-level and per-loss reward terms (same products as the
        # scalar reward's, computed once)
        self._queue_cost = self.perf_weight * np.arange(qcap1)
        self._loss_cost = np.array([0.0, self.loss_penalty])

    def _seed_rngs(
        self, seeds: Optional[Union[int, Sequence[Optional[int]]]]
    ) -> None:
        resolved = _resolve_seeds(seeds, self.n_replicas)
        self._rngs = [np.random.default_rng(s) for s in resolved]
        # row i holds replica i's uniforms; _at[i] is the next unread one
        self._block = np.empty((self.n_replicas, self._DRAW_BLOCK))
        for rng, row in zip(self._rngs, self._block):
            rng.random(out=row)
        self._flat = self._block.reshape(-1)
        self._serves_flat = self._flat < self.p_serve
        self._base = np.arange(self.n_replicas) * self._DRAW_BLOCK
        self._at = self._base.copy()
        self._slots_left = self._DRAW_BLOCK // 2

    def _refill(self) -> None:
        """Move each row's unread tail to the front; draw the rest.

        A slot reads at most two uniforms per replica, so the
        ``_DRAW_BLOCK // 2`` slots between refills always fit.
        """
        pos_list = (self._at - self._base).tolist()
        for rng, row, pos in zip(self._rngs, self._block, pos_list):
            tail = self._DRAW_BLOCK - pos
            row[:tail] = row[pos:]
            rng.random(out=row[tail:])
        # each uniform read as a service draw, compared once per block
        self._serves_flat = self._flat < self.p_serve
        self._at = self._base.copy()
        self._slots_left = self._DRAW_BLOCK // 2

    # ------------------------------------------------------------------ #
    # state indexing (same encoding as the scalar env)
    # ------------------------------------------------------------------ #

    @property
    def n_states(self) -> int:
        """Per-replica state count: modes x queue levels."""
        return self.mode_space.n_modes * (self.queue_capacity + 1)

    @property
    def n_actions(self) -> int:
        """Global action count (one per device power state)."""
        return self.mode_space.n_actions

    @property
    def states(self) -> np.ndarray:
        """(B,) flattened state indices (read-only; kept until the next
        ``step`` or ``reset``)."""
        return self._states

    @property
    def modes(self) -> np.ndarray:
        """(B,) current mode indices (copy)."""
        return self._modes.copy()

    @property
    def current_slot(self) -> int:
        """Index of the next slot to be simulated (lock-step)."""
        return self._slot

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #

    def reset(
        self,
        seeds: Optional[Union[int, Sequence[Optional[int]]]] = None,
        queue: int = 0,
        mode: Optional[str] = None,
    ) -> np.ndarray:
        """Restart every replica (all arguments are checked first);
        returns the (B,) initial state vector."""
        queue = check_count("queue", queue, minimum=0)
        if queue > self.queue_capacity:
            raise ValueError(f"queue out of range: {queue}")
        start = self.mode_space.steady_mode_index(
            mode if mode is not None else self.device.initial_state)
        if seeds is not None:
            self._seed_rngs(seeds)
        b = self.n_replicas
        self._modes = np.full(b, start, dtype=np.int64)
        self._queues = np.full(b, queue, dtype=np.int64)
        self._slot = 0
        self.totals = BatchedEnvTotals.zeros(b)
        return self._set_states(self._modes * self._qcap1 + self._queues)

    def _set_states(self, states: np.ndarray) -> np.ndarray:
        states.setflags(write=False)
        self._states = states
        return states

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, BatchStepInfo]:
        """Advance every replica one slot under ``actions`` (B,).

        Returns ``(next_states, rewards, info)`` — all vectors.

        Raises
        ------
        KeyError
            If any replica's action is not allowed in its current mode.
        """
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (self.n_replicas,):
            raise ValueError(
                f"actions must have shape ({self.n_replicas},), got {actions.shape}"
            )
        # one unsigned max catches negative actions too, which would
        # otherwise wrap into the tables
        if actions.view(np.uint64).max() >= self._n_actions:
            self._check_actions(actions)
        modes, queues = self._modes, self._queues
        # the flat (state, action) index state * n_actions + action
        sa = self._mode_rows.take(modes)
        sa += self._queue_rows.take(queues)
        sa += actions
        sa = self._sa_checked.take(sa)
        try:
            next_modes = self._sa_next_mode.take(sa)
        except IndexError:  # an illegal pair indexes past the table
            self._check_actions(actions)
            raise
        energy = self._sa_energy.take(sa)
        rate = self.schedule.rate_at(self._slot)

        need_serve = self._sa_serves.take(sa)
        # scalar draw order per replica: the service draw only where the
        # slot can serve, then the arrival draw
        at = self._at
        served = need_serve & self._serves_flat.take(at)
        queues = queues - served
        at = at + need_serve
        arrived = self._flat.take(at) < rate
        self._at = at + 1
        self._slots_left -= 1
        if not self._slots_left:
            self._refill()
        queues += arrived
        lost = queues > self.queue_capacity  # an arrival at a full queue
        queues -= lost

        rewards = (
            -energy
            - self._queue_cost.take(queues)
            - self._loss_cost.take(lost)
        )

        info = BatchStepInfo(
            slot=self._slot,
            energy=energy,
            queue=queues,
            arrived=arrived,
            served=served,
            lost=lost,
            modes=next_modes,
            arrival_rate=rate,
        )

        totals = self.totals
        totals.slots += 1
        totals.energy += energy
        totals.queue_integral += queues
        totals.arrivals += arrived
        totals.completions += served
        totals.losses += lost

        self._modes = next_modes
        self._queues = queues
        self._slot += 1
        return (self._set_states(self._sa_next_base.take(sa) + queues),
                rewards, info)

    def _check_actions(self, actions: np.ndarray) -> None:
        """Raise the KeyError that names the first replica whose action
        is out of range, else the first whose action its mode forbids."""
        n_actions = self._n_actions
        out = np.nonzero((actions < 0) | (actions >= n_actions))[0]
        if out.size:
            bad = int(out[0])
            raise KeyError(
                f"action index {int(actions[bad])} out of range "
                f"[0, {n_actions}) (replica {bad})"
            )
        illegal = np.nonzero(~self.tables.allowed[self._modes, actions])[0]
        if illegal.size:
            bad = int(illegal[0])
            raise KeyError(
                f"action {self.mode_space.action_names[int(actions[bad])]!r} "
                f"not allowed in mode "
                f"{self.mode_space.mode(int(self._modes[bad])).label!r} "
                f"(replica {bad})"
            )

    # ------------------------------------------------------------------ #
    # reference quantities
    # ------------------------------------------------------------------ #

    def always_on_power(self) -> float:
        """Power of keeping the device in its home (servicing) state."""
        return self.device.state(self.device.initial_state).power

    def energy_saving_ratio(self) -> np.ndarray:
        """(B,) per-replica episode energy saving vs. always-on."""
        if self.totals.slots == 0:
            return np.zeros(self.n_replicas)
        baseline = self.always_on_power() * self.slot_length * self.totals.slots
        if baseline <= 0:
            return np.zeros(self.n_replicas)
        return 1.0 - self.totals.energy / baseline

    def __repr__(self) -> str:
        return (
            f"BatchedSlottedEnv(device={self.device.name!r}, "
            f"replicas={self.n_replicas}, states={self.n_states}, "
            f"actions={self.n_actions}, qcap={self.queue_capacity})"
        )
