"""Slot-level mode enumeration of a device power model.

The slotted DTMDP state is ``(mode, queue)``.  The *mode* component is
either a steady power state or an in-flight transition with a countdown
of remaining slots; this module enumerates all modes of a
:class:`~repro.device.PowerStateMachine` under a given slot length and
precomputes, for every (mode, action) pair, the deterministic part of one
slot: next mode, energy charged, and whether requests are serviced this
slot.  The stochastic part (Bernoulli arrival and service completion)
lives in the environment / model builder.

Actions are global: one "go to power state X" command per device power
state.  In a steady mode the allowed commands are "stay" plus every state
with a direct transition edge; in a transition mode the device is
committed — the only allowed command is the transition's target (a
"continue" in the paper's terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..device import PowerStateMachine


@dataclass(frozen=True)
class Mode:
    """One mode: a steady power state, or a transition in flight.

    ``kind`` is ``"steady"`` or ``"trans"``.  For transitions, ``source``
    / ``target`` name the edge and ``remaining`` >= 1 counts the slots
    still needed (including none of the already-spent ones).
    """

    kind: str
    state: str
    source: str = ""
    remaining: int = 0

    @property
    def label(self) -> str:
        """Human-readable mode name used in reports."""
        if self.kind == "steady":
            return self.state
        return f"{self.source}->{self.state}[{self.remaining}]"


@dataclass(frozen=True)
class StepEffect:
    """Deterministic outcome of playing an action for one slot."""

    next_mode: int      #: mode index after the slot
    energy: float       #: energy charged to this slot (joules)
    can_service: bool   #: whether a request may complete this slot


@dataclass(frozen=True)
class DenseStepTables:
    """The mode-space step function as dense ``(n_modes, n_actions)`` arrays.

    This is the batched runtime's view of :class:`ModeSpace`: every
    (mode, action) pair resolved to flat arrays so one ``step`` over B
    replicas is pure fancy indexing instead of B dict lookups.  Disallowed
    pairs hold ``next_mode = -1`` / ``energy = 0`` / ``can_service =
    False`` and are excluded by ``allowed``.
    """

    next_mode: np.ndarray       #: int64 (M, A); -1 where disallowed
    energy: np.ndarray          #: float64 (M, A)
    can_service: np.ndarray     #: bool (M, A)
    allowed: np.ndarray         #: bool (M, A) action-legality mask
    allowed_padded: np.ndarray  #: int64 (M, max_degree) allowed actions, row-padded
    n_allowed: np.ndarray       #: int64 (M,) valid prefix length of each padded row


class ModeSpace:
    """All modes of a device at a given slot length, with step effects.

    Parameters
    ----------
    device:
        The device power model.
    slot_length:
        Slot duration in seconds; transition latencies are discretized to
        ``ceil(latency / slot_length)`` slots (0 slots = instantaneous).
    """

    def __init__(self, device: PowerStateMachine, slot_length: float = 1.0) -> None:
        if slot_length <= 0:
            raise ValueError(f"slot_length must be > 0, got {slot_length}")
        self.device = device
        self.slot_length = float(slot_length)

        #: action a = "command power state action_names[a]"
        self.action_names: List[str] = device.state_names
        self._action_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.action_names)
        }

        self._modes: List[Mode] = []
        self._mode_index: Dict[Tuple, int] = {}
        for name in device.state_names:
            self._add_mode(Mode("steady", name))
        # countdown modes for multi-slot transitions: remaining = 1..L-1
        self._latency_slots: Dict[Tuple[str, str], int] = {}
        for tr in device.transitions:
            n_slots = int(math.ceil(tr.latency / self.slot_length - 1e-12))
            self._latency_slots[tr.key] = n_slots
            for remaining in range(1, n_slots):
                self._add_mode(Mode("trans", tr.target, tr.source, remaining))

        self._effects: Dict[Tuple[int, int], StepEffect] = {}
        self._allowed: List[List[int]] = [[] for _ in self._modes]
        self._build_effects()
        self._dense: Optional[DenseStepTables] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _add_mode(self, mode: Mode) -> None:
        key = (mode.kind, mode.state, mode.source, mode.remaining)
        self._mode_index[key] = len(self._modes)
        self._modes.append(mode)

    def _index_of(self, mode: Mode) -> int:
        return self._mode_index[(mode.kind, mode.state, mode.source, mode.remaining)]

    def _steady_index(self, name: str) -> int:
        return self._mode_index[("steady", name, "", 0)]

    def _per_slot_transition_energy(self, source: str, target: str) -> float:
        tr = self.device.transition(source, target)
        n_slots = self._latency_slots[(source, target)]
        if n_slots == 0:
            return tr.energy
        return tr.energy / n_slots

    def _build_effects(self) -> None:
        slot = self.slot_length
        for m_idx, mode in enumerate(self._modes):
            if mode.kind == "steady":
                here = self.device.state(mode.state)
                stay_action = self._action_index[mode.state]
                self._allowed[m_idx].append(stay_action)
                self._effects[(m_idx, stay_action)] = StepEffect(
                    next_mode=m_idx,
                    energy=here.power * slot,
                    can_service=here.can_service,
                )
                for target in self.device.targets_from(mode.state):
                    action = self._action_index[target]
                    n_slots = self._latency_slots[(mode.state, target)]
                    per_slot_energy = self._per_slot_transition_energy(
                        mode.state, target
                    )
                    if n_slots == 0:
                        # instantaneous switch: the slot is spent in the target
                        dest = self.device.state(target)
                        effect = StepEffect(
                            next_mode=self._steady_index(target),
                            energy=per_slot_energy + dest.power * slot,
                            can_service=dest.can_service,
                        )
                    elif n_slots == 1:
                        effect = StepEffect(
                            next_mode=self._steady_index(target),
                            energy=per_slot_energy,
                            can_service=False,
                        )
                    else:
                        nxt = Mode("trans", target, mode.state, n_slots - 1)
                        effect = StepEffect(
                            next_mode=self._index_of(nxt),
                            energy=per_slot_energy,
                            can_service=False,
                        )
                    self._allowed[m_idx].append(action)
                    self._effects[(m_idx, action)] = effect
            else:
                # transition in flight: only "continue"
                action = self._action_index[mode.state]
                per_slot_energy = self._per_slot_transition_energy(
                    mode.source, mode.state
                )
                if mode.remaining == 1:
                    next_mode = self._steady_index(mode.state)
                else:
                    nxt = Mode("trans", mode.state, mode.source, mode.remaining - 1)
                    next_mode = self._index_of(nxt)
                self._allowed[m_idx].append(action)
                self._effects[(m_idx, action)] = StepEffect(
                    next_mode=next_mode,
                    energy=per_slot_energy,
                    can_service=False,
                )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @property
    def n_modes(self) -> int:
        """Total number of modes (steady + countdown)."""
        return len(self._modes)

    @property
    def n_actions(self) -> int:
        """Size of the global action set (= number of power states)."""
        return len(self.action_names)

    @property
    def modes(self) -> List[Mode]:
        """All modes, index order."""
        return list(self._modes)

    def mode(self, index: int) -> Mode:
        """Mode at ``index``."""
        return self._modes[index]

    def steady_mode_index(self, state_name: str) -> int:
        """Mode index of the steady power state ``state_name``."""
        self.device.state(state_name)
        return self._steady_index(state_name)

    def action_index(self, state_name: str) -> int:
        """Action index commanding power state ``state_name``."""
        try:
            return self._action_index[state_name]
        except KeyError:
            raise KeyError(f"unknown power state {state_name!r}")

    def allowed_actions(self, mode_index: int) -> List[int]:
        """Allowed action indices in the given mode."""
        return list(self._allowed[mode_index])

    def effect(self, mode_index: int, action: int) -> StepEffect:
        """Deterministic slot outcome of (mode, action).

        Raises
        ------
        KeyError
            If the action index is out of range or not allowed in the mode.
        """
        if not 0 <= action < self.n_actions:
            raise KeyError(
                f"action index {action} out of range [0, {self.n_actions})")
        try:
            return self._effects[(mode_index, action)]
        except KeyError:
            mode = self._modes[mode_index]
            raise KeyError(
                f"action {self.action_names[action]!r} not allowed in mode "
                f"{mode.label!r}"
            )

    def latency_slots(self, source: str, target: str) -> int:
        """Discretized latency (slots) of the edge ``source -> target``."""
        return self._latency_slots[(source, target)]

    def dense_tables(self) -> DenseStepTables:
        """Dense-array form of the step function (cached after first call).

        ``allowed_padded`` rows keep the *same order* as
        :meth:`allowed_actions` (stay-action first, then targets), so
        order-sensitive consumers — uniform exploration draws, tie-break
        scans — see exactly what the scalar path sees.
        """
        if self._dense is None:
            m, a = self.n_modes, self.n_actions
            next_mode = np.full((m, a), -1, dtype=np.int64)
            energy = np.zeros((m, a), dtype=np.float64)
            can_service = np.zeros((m, a), dtype=bool)
            allowed = np.zeros((m, a), dtype=bool)
            max_degree = max(len(acts) for acts in self._allowed)
            allowed_padded = np.zeros((m, max_degree), dtype=np.int64)
            n_allowed = np.zeros(m, dtype=np.int64)
            for mode_idx, acts in enumerate(self._allowed):
                n_allowed[mode_idx] = len(acts)
                for k, action in enumerate(acts):
                    effect = self._effects[(mode_idx, action)]
                    next_mode[mode_idx, action] = effect.next_mode
                    energy[mode_idx, action] = effect.energy
                    can_service[mode_idx, action] = effect.can_service
                    allowed[mode_idx, action] = True
                    allowed_padded[mode_idx, k] = action
            for arr in (next_mode, energy, can_service, allowed,
                        allowed_padded, n_allowed):
                arr.setflags(write=False)
            self._dense = DenseStepTables(
                next_mode=next_mode,
                energy=energy,
                can_service=can_service,
                allowed=allowed,
                allowed_padded=allowed_padded,
                n_allowed=n_allowed,
            )
        return self._dense

    def __repr__(self) -> str:
        return (
            f"ModeSpace({self.device.name!r}, slot={self.slot_length}, "
            f"modes={self.n_modes}, actions={self.n_actions})"
        )
