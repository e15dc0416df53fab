"""The slotted DPM environment: device + request queue + arrival schedule.

This is the system the Power Manager controls.  Each slot:

1. the PM commands a power state (the action);
2. the deterministic slot effect applies (mode change / transition
   progress / residence energy — see :class:`~repro.env.states.ModeSpace`);
3. if the post-effect slot can service and the queue is non-empty, one
   request completes with probability ``p_serve``;
4. a new request arrives with probability ``schedule.rate_at(slot)``;
   arrivals into a full queue are dropped (counted as losses);
5. the reward is ``-(energy) - perf_weight * queue_after -
   loss_penalty * losses_this_slot``.

With a :class:`~repro.workload.ConstantRate` schedule this process *is*
the finite DTMDP that :mod:`repro.env.model_builder` writes down exactly —
so the analytically optimal policy of Fig. 1 and the Q-DPM agent see the
same world.  Nonstationary schedules realize the Fig. 2 setting.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..checks import check_count, check_nonnegative
from ..device import PowerStateMachine
from ..workload.nonstationary import ConstantRate, RateSchedule
from .states import Mode, ModeSpace


@dataclass(slots=True)
class StepInfo:
    """Per-slot diagnostics returned by :meth:`SlottedDPMEnv.step`."""

    slot: int            #: slot index just simulated (0-based)
    energy: float        #: energy charged this slot
    queue: int           #: queue length at slot end
    arrived: bool        #: a request arrived this slot
    served: bool         #: a request completed this slot
    lost: bool           #: an arrival was dropped (queue full)
    mode_label: str      #: mode at slot end
    arrival_rate: float  #: schedule rate used this slot


@dataclass
class EnvTotals:
    """Cumulative counters over an episode (reset on :meth:`reset`)."""

    slots: int = 0
    energy: float = 0.0
    queue_integral: float = 0.0
    arrivals: int = 0
    completions: int = 0
    losses: int = 0

    def mean_power(self, slot_length: float) -> float:
        """Average power over the episode (watts)."""
        if self.slots == 0:
            return 0.0
        return self.energy / (self.slots * slot_length)

    def mean_queue(self) -> float:
        """Time-average queue length."""
        if self.slots == 0:
            return 0.0
        return self.queue_integral / self.slots

    def mean_latency(self, slot_length: float) -> float:
        """Mean request latency via Little's law (seconds).

        Uses the *accepted* arrival rate; returns 0 when nothing arrived.
        """
        accepted = self.arrivals - self.losses
        if accepted <= 0 or self.slots == 0:
            return 0.0
        rate = accepted / (self.slots * slot_length)
        return self.mean_queue() / rate

    def loss_rate(self) -> float:
        """Fraction of arrivals dropped."""
        if self.arrivals == 0:
            return 0.0
        return self.losses / self.arrivals


class SlottedDPMEnv:
    """Discrete-time power-management environment.

    Parameters
    ----------
    device:
        Power model of the managed component.
    schedule:
        Per-slot Bernoulli arrival probability (may be nonstationary).
    slot_length:
        Slot duration in seconds.
    queue_capacity:
        Maximum backlog; arrivals beyond it are dropped.
    p_serve:
        Probability that a pending request completes in a servicing slot.
    perf_weight:
        Reward weight on the end-of-slot queue length (latency proxy).
    loss_penalty:
        Additional penalty per dropped request.
    seed:
        Seed for the internal random generator (reproducible episodes).

    A slot's uniforms (a service draw when it can serve a non-empty
    queue, then the arrival draw) come from a block of 512 values
    pre-filled from the generator: each stream yields the same
    doubles in the same order as one ``random()`` per uniform, and the
    generator's position after a step is not part of the contract.
    ``reset(seed=...)`` drops the block; ``reset()`` continues the stream.
    """

    def __init__(
        self,
        device: PowerStateMachine,
        schedule: Optional[RateSchedule] = None,
        slot_length: float = 1.0,
        queue_capacity: int = 8,
        p_serve: float = 1.0,
        perf_weight: float = 0.5,
        loss_penalty: float = 2.0,
        seed: Optional[int] = None,
    ) -> None:
        self.queue_capacity = check_count("queue_capacity", queue_capacity)
        if not 0.0 < p_serve <= 1.0:
            raise ValueError(f"p_serve must be in (0, 1], got {p_serve}")
        self.perf_weight = check_nonnegative("perf_weight", perf_weight)
        self.loss_penalty = check_nonnegative("loss_penalty", loss_penalty)
        self.device = device
        self.mode_space = ModeSpace(device, slot_length)
        self.schedule = schedule if schedule is not None else ConstantRate(0.1)
        self.slot_length = float(slot_length)
        self.p_serve = float(p_serve)
        self._rng = np.random.default_rng(seed)
        self._draws = array("d")  # the draw block, read from _draw_pos
        self._draw_pos = 0
        # per-slot invariants: state stride and count, allowed actions per
        # mode, the step table at mode * A + action (None if illegal)
        space = self.mode_space
        self._qcap1 = self.queue_capacity + 1
        self._n_states = space.n_modes * self._qcap1
        self._n_actions = space.n_actions
        self._allowed = [space.allowed_actions(m) for m in range(space.n_modes)]
        labels = [m.label for m in space.modes]
        t = space.dense_tables()
        self._effects = [
            (e, n, c, labels[n]) if n >= 0 else None for e, n, c in zip(
                t.energy.ravel().tolist(), t.next_mode.ravel().tolist(),
                t.can_service.ravel().tolist())]

        self._mode: int = self.mode_space.steady_mode_index(device.initial_state)
        self._queue: int = 0
        self._slot: int = 0
        self.totals = EnvTotals()

    #: replicas advanced per step: one, where a
    #: :class:`~repro.runtime.BatchedSlottedEnv` has B (see
    #: :func:`~repro.core.qdpm.run_lockstep`)
    n_replicas = 1

    # ------------------------------------------------------------------ #
    # state indexing
    # ------------------------------------------------------------------ #

    @property
    def n_states(self) -> int:
        """Total state count: modes x queue levels."""
        return self._n_states

    @property
    def n_actions(self) -> int:
        """Global action count (one per device power state)."""
        return self.mode_space.n_actions

    @property
    def action_names(self) -> List[str]:
        """Names of the global actions ("command state X")."""
        return list(self.mode_space.action_names)

    def encode(self, mode_index: int, queue: int) -> int:
        """Flatten (mode, queue) into a state index."""
        if not 0 <= queue <= self.queue_capacity:
            raise ValueError(f"queue out of range: {queue}")
        if not 0 <= mode_index < self.mode_space.n_modes:
            raise ValueError(f"mode index out of range: {mode_index}")
        return mode_index * self._qcap1 + queue

    def decode(self, state: int) -> Tuple[Mode, int]:
        """Inverse of :meth:`encode`: returns (Mode, queue length)."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"state index out of range: {state}")
        mode_index, queue = divmod(state, self._qcap1)
        return self.mode_space.mode(mode_index), queue

    def state_label(self, state: int) -> str:
        """Readable name like ``"sleep|q=3"``."""
        mode, queue = self.decode(state)
        return f"{mode.label}|q={queue}"

    def allowed_actions(self, state: int) -> List[int]:
        """Action indices playable in ``state`` (mode-determined)."""
        return self.mode_space.allowed_actions(state // self._qcap1)

    @property
    def state(self) -> int:
        """Current flattened state index (always in range: no checks)."""
        return self._mode * self._qcap1 + self._queue

    @property
    def current_slot(self) -> int:
        """Index of the next slot to be simulated."""
        return self._slot

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #

    def reset(self, seed: Optional[int] = None, queue: int = 0,
              mode: Optional[str] = None) -> int:
        """Restart the episode (all arguments are checked first);
        returns the initial state index."""
        queue = check_count("queue", queue, minimum=0)
        if queue > self.queue_capacity:
            raise ValueError(f"queue out of range: {queue}")
        start = self.mode_space.steady_mode_index(
            mode if mode is not None else self.device.initial_state)
        if seed is not None:
            self._rng = np.random.default_rng(seed)
            self._draws, self._draw_pos = array("d"), 0
        self._mode = start
        self._queue = queue
        self._slot = 0
        self.totals = EnvTotals()
        return self.state

    def step(self, action: int) -> Tuple[int, float, StepInfo]:
        """Advance one slot under ``action``.

        Returns ``(next_state, reward, info)``.

        Raises
        ------
        KeyError
            If ``action`` is not allowed in the current mode.
        """
        mode, queue, slot = self._mode, self._queue, self._slot
        n_actions = self._n_actions
        effect = (self._effects[mode * n_actions + action]
                  if 0 <= action < n_actions else None)
        if effect is None:
            self.mode_space.effect(mode, action)  # raises its KeyError
        energy, next_mode, can_service, label = effect
        rate = self.schedule.rate_at(slot)
        # a slot takes at most two uniforms: top the block up first
        draws, pos = self._draws, self._draw_pos
        if pos >= len(draws) - 1:
            draws = self._draws = draws[pos:] + array(
                "d", self._rng.random(512).tobytes())
            pos = 0
        served = False
        if can_service and queue > 0:
            served = draws[pos] < self.p_serve
            pos += 1
            queue -= served
        arrived = bool(draws[pos] < rate)
        self._draw_pos = pos + 1
        lost = arrived and queue == self.queue_capacity  # dropped when full
        queue += arrived and not lost
        reward = -energy - self.perf_weight * queue - self.loss_penalty * lost
        info = StepInfo(slot, energy, queue, arrived, served, lost, label, rate)
        totals = self.totals
        totals.slots += 1
        totals.energy += energy
        totals.queue_integral += queue
        totals.arrivals += arrived
        totals.completions += served
        totals.losses += lost

        self._mode, self._queue, self._slot = next_mode, queue, slot + 1
        return next_mode * self._qcap1 + queue, reward, info

    # ------------------------------------------------------------------ #
    # reference quantities
    # ------------------------------------------------------------------ #

    def always_on_power(self) -> float:
        """Power of keeping the device in its home (servicing) state."""
        return self.device.state(self.device.initial_state).power

    def energy_saving_ratio(self) -> float:
        """Episode energy saving vs. the always-on policy so far."""
        if self.totals.slots == 0:
            return 0.0
        baseline = self.always_on_power() * self.slot_length * self.totals.slots
        if baseline <= 0:
            return 0.0
        return 1.0 - self.totals.energy / baseline

    def __repr__(self) -> str:
        return (
            f"SlottedDPMEnv(device={self.device.name!r}, "
            f"states={self.n_states}, actions={self.n_actions}, "
            f"qcap={self.queue_capacity})"
        )
