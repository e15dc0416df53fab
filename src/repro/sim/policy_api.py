"""Controller interface of the event-driven simulator.

Event-driven DPM policies are *idle-period* policies: each time the device
drains its queue the policy issues one :class:`IdleDecision` — which rest
state to fall back to and after how long a timeout.  Arrivals always wake
the device (service is never optional); the policy is re-consulted at the
next idle start.  After each idle period the policy receives the realized
idle length, which is the learning signal for the adaptive and predictive
baselines.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device import PowerStateMachine

#: Timeout value meaning "never go down during this idle period".
NEVER = math.inf


@dataclass(frozen=True)
class IdleDecision:
    """What to do for the idle period that just began.

    Attributes
    ----------
    target_state:
        Rest state to enter if the idle period survives the timeout;
        None means stay in the wait state regardless.
    timeout:
        Seconds to linger in the wait state before moving; 0 moves
        immediately, :data:`NEVER` (or ``target_state=None``) never moves.
    """

    target_state: Optional[str]
    timeout: float = 0.0

    def __post_init__(self) -> None:
        if self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")


@dataclass(frozen=True)
class IdleContext:
    """Information handed to the policy at idle start."""

    now: float                     #: current simulation time
    device: PowerStateMachine      #: the controlled device model
    wait_state: str                #: state the device idles in by default
    next_arrival: Optional[float]  #: oracle peek; None for causal policies


@dataclass(frozen=True)
class BatchIdleContext:
    """All idle periods of R runs, handed to a policy at once.

    The vectorized event kernel (:mod:`repro.runtime.eventsim`) extracts
    every idle gap of R traces up front and asks the policy for all
    their decisions in one call instead of one :meth:`EventPolicy.
    on_idle` round-trip per gap.  The batch's makeup must not matter, so
    :meth:`EventPolicy.decide_batch` must be a pure per-gap function.

    Attributes
    ----------
    gap_starts:
        Idle-start times, one per gap, trace by trace; within a trace in
        chronological order, its trailing gap (after the final service
        completion) last.
    next_arrivals:
        Arrival time ending each gap; ``nan`` where the policy must stay
        causal (simulator not in oracle mode) and for the trailing gap
        (no further arrivals) — exactly the gaps whose scalar
        :class:`IdleContext` would carry ``next_arrival=None``.
    device, wait_state:
        As in :class:`IdleContext`.
    """

    gap_starts: np.ndarray
    next_arrivals: np.ndarray
    device: PowerStateMachine
    wait_state: str


@dataclass(frozen=True)
class BatchIdleDecision:
    """Per-gap decisions answering a :class:`BatchIdleContext`.

    ``target_idx[i]`` indexes ``device.state_names`` (-1 means "stay in
    the wait state", i.e. a scalar ``target_state=None``); ``timeouts[i]``
    mirrors :attr:`IdleDecision.timeout` (0 = move immediately,
    :data:`NEVER` = never).
    """

    target_idx: np.ndarray
    timeouts: np.ndarray


@dataclass(frozen=True)
class StepBatchContext:
    """One idle gap *per replica*, handed to a stateful policy in lock-step.

    The lock-step batched engine (:func:`~repro.runtime.eventsim.
    run_step_batched`) advances R independent replication runs one idle
    gap per step.  Where :class:`BatchIdleContext` lays out all gaps of
    *one* run, this context lays out the *current* gap of R runs — the
    axis along which stateful policies (whose decisions depend on the
    realized idle history) can still vectorize, because the replicas
    never interact.

    Attributes
    ----------
    gap_starts:
        Idle-start time of the gap opening now, one entry per replica.
    next_arrivals:
        Arrival time ending each replica's gap; ``nan`` where the policy
        must stay causal (non-oracle runs) and for trailing gaps.
    active:
        Boolean mask of replicas that actually have a gap this step;
        entries where it is False carry stale values and the returned
        decisions for them are ignored.
    device, wait_state:
        As in :class:`IdleContext` (replicas share one device model).
    """

    gap_starts: np.ndarray
    next_arrivals: np.ndarray
    active: np.ndarray
    device: PowerStateMachine
    wait_state: str


class EventPolicy(ABC):
    """Idle-period power-management policy."""

    #: short name used in report tables
    name: str = "policy"

    def reset(self) -> None:
        """Clear learned state before a fresh simulation run."""

    @abstractmethod
    def on_idle(self, ctx: IdleContext) -> IdleDecision:
        """Decide the rest state and timeout for the idle period starting now."""

    def on_idle_end(self, idle_length: float) -> None:
        """Feedback: the idle period that just ended lasted ``idle_length``."""

    def decide_batch(self, ctx: BatchIdleContext) -> Optional[BatchIdleDecision]:
        """Vectorized decisions for every idle gap of a run, or None.

        Opt-in fast-path hook: a policy may implement this only when it
        is *stateless* — :meth:`on_idle` a pure function of the
        :class:`IdleContext` and :meth:`on_idle_end` a no-op — and entry
        ``i`` of the returned decisions must match what :meth:`on_idle`
        would produce for gap ``i`` alone (the gaps of several runs
        share one call).  Returning None (the default) keeps the policy on
        the scalar event loop.
        """
        return None

    # -- lock-step cross-replication hooks (stateful-batchable policies) --- #

    def make_step_state(
        self, n: int, device: PowerStateMachine, wait_state: str
    ) -> Optional[object]:
        """Fresh dense per-replica state for ``n`` lock-step replicas.

        Opt-in hook for *stateful* policies whose decision and feedback
        rules vectorize across independent replications: return an
        object holding the policy's learned state as ``(n,)`` arrays —
        the batched equivalent of ``n`` :meth:`reset` instances.  The
        engine threads it through :meth:`decide_step_batch` and
        :meth:`end_step_batch`; it must be fully external to ``self``
        so an abandoned batched run never contaminates the instance the
        scalar fallback then uses.  Returning None (the default) means
        the policy does not support lock-step batching.
        """
        return None

    def decide_step_batch(
        self, states: object, ctx: StepBatchContext
    ) -> Optional[BatchIdleDecision]:
        """Decisions for the idle gap opening now in every replica.

        Called once per lock-step round with the state object from
        :meth:`make_step_state`; entry ``i`` of the returned arrays must
        equal what :meth:`on_idle` would decide for replica ``i`` given
        its realized idle history.  Only consulted when
        :meth:`make_step_state` returned non-None.
        """
        raise NotImplementedError

    def end_step_batch(
        self, states: object, idle_lengths: np.ndarray, active: np.ndarray
    ) -> None:
        """Batched :meth:`on_idle_end`: the gaps that just closed.

        Must update ``states`` exactly as ``n`` scalar
        :meth:`on_idle_end` calls would, for replicas where ``active``
        is True; entries where it is False carry stale values and must
        be left untouched.
        """
        raise NotImplementedError
