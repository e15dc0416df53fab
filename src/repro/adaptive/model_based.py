"""The model-based adaptive DPM controller — the technique Q-DPM replaces.

Implements the full classical pipeline the paper describes:

    parameter estimator  ->  mode-switch controller  ->  policy optimizer

On every slot it executes its current optimal policy, feeds the arrival
indicator to the estimator and the change detector, and when the detector
fires it re-estimates the arrival rate, rebuilds the exact DTMDP, and
re-runs the offline optimizer (LP by default — the one the paper times).
All overheads are metered: number of re-optimizations, wall-clock spent
in estimation + optimization, and (optionally) a *decision freeze* that
models the policy being stale while the slow optimizer runs on an
embedded CPU.

Interface-compatible with :class:`repro.core.QDPM` (same ``run`` /
``RunHistory``), so the Fig. 2 harness can overlay both.
:class:`ModelBasedSpec` is the controller's picklable recipe: a sweep
(``RolloutSpec.model_based``) builds one controller per seed from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.qdpm import RunHistory, run_lockstep
from ..env.model_builder import build_dpm_model
from ..env.slotted_env import SlottedDPMEnv
from ..mdp import DeterministicPolicy
from .change_detect import BernoulliCUSUM
from .estimator import SlidingWindowEstimator


@dataclass
class AdaptationEvent:
    """One re-optimization performed by the controller."""

    slot: int              #: slot at which the new policy took effect
    detected_rate: float   #: rate estimate used for the rebuild
    optimize_seconds: float  #: wall-clock cost of model build + solve


@dataclass
class AdaptationLog:
    """All overhead bookkeeping of one run."""

    events: List[AdaptationEvent] = field(default_factory=list)
    estimator_seconds: float = 0.0
    detector_seconds: float = 0.0

    @property
    def n_reoptimizations(self) -> int:
        return len(self.events)

    @property
    def optimize_seconds(self) -> float:
        return sum(e.optimize_seconds for e in self.events)


class ModelBasedAdaptiveDPM:
    """Estimator + change detector + offline optimizer, online.

    Parameters
    ----------
    env:
        The slotted environment to control (same instance type Q-DPM
        controls).
    discount:
        Discount factor for the offline solver.
    solver:
        ``"linear_programming"`` (the paper's target), ``"policy_iteration"``
        or ``"value_iteration"``.
    estimator:
        Rate estimator; defaults to a 2000-slot sliding window.
    detector:
        Change detector; defaults to a :class:`BernoulliCUSUM` armed at
        the initial estimate.
    min_samples:
        Samples the estimator must hold before a re-optimization is
        trusted (prevents thrashing right after a detection reset).
    freeze_slots:
        Decision-latency model: for this many slots after a detection the
        controller keeps running the *stale* policy, emulating the time
        the optimizer needs on the target CPU.  0 = optimizer is free.
    initial_rate:
        Rate used to build the first policy.
    """

    def __init__(
        self,
        env: SlottedDPMEnv,
        discount: float = 0.95,
        solver: str = "linear_programming",
        estimator: Optional[SlidingWindowEstimator] = None,
        detector: Optional[BernoulliCUSUM] = None,
        min_samples: int = 500,
        freeze_slots: int = 0,
        initial_rate: float = 0.2,
    ) -> None:
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if freeze_slots < 0:
            raise ValueError("freeze_slots must be >= 0")
        self.env = env
        self.discount = float(discount)
        self.solver = solver
        self.estimator = (
            estimator if estimator is not None else SlidingWindowEstimator(2000)
        )
        self.detector = (
            detector if detector is not None else BernoulliCUSUM(initial_rate)
        )
        self.min_samples = int(min_samples)
        self.freeze_slots = int(freeze_slots)
        self.log = AdaptationLog()
        self._policy = self._optimize(initial_rate, slot=0, record=False)
        self._pending_since: Optional[int] = None

    @property
    def policy(self) -> DeterministicPolicy:
        """The policy currently executed."""
        return self._policy

    def _optimize(
        self, rate: float, slot: int, record: bool = True
    ) -> DeterministicPolicy:
        """Rebuild the exact model at ``rate`` and solve it."""
        start = time.perf_counter()
        model = build_dpm_model(
            self.env.device,
            arrival_rate=rate,
            slot_length=self.env.slot_length,
            queue_capacity=self.env.queue_capacity,
            p_serve=self.env.p_serve,
            perf_weight=self.env.perf_weight,
            loss_penalty=self.env.loss_penalty,
        )
        result = model.solve(self.discount, self.solver)
        elapsed = time.perf_counter() - start
        if record:
            self.log.events.append(
                AdaptationEvent(slot=slot, detected_rate=rate, optimize_seconds=elapsed)
            )
        return result.policy

    def run(self, n_slots: int, record_every: int = 1000) -> RunHistory:
        """Control the environment for ``n_slots`` slots.

        Returns the same :class:`~repro.core.qdpm.RunHistory` Q-DPM
        produces (``td_error`` is zero — there is no TD learning here);
        re-optimization instants are in :attr:`log`.
        """
        return run_lockstep(self.env, self._control_step, n_slots,
                            record_every=record_every)

    def _control_step(self) -> tuple:
        """One slot: act on the current policy, feed the estimator and
        detector, re-optimize once a detected change has settled."""
        state = self.env.state
        action = self._policy(state)
        if action not in self.env.allowed_actions(state):
            # stale policy may command an illegal action mid-transition;
            # fall back to the forced action
            action = self.env.allowed_actions(state)[0]
        _, reward, info = self.env.step(action)

        t0 = time.perf_counter()
        self.estimator.update(info.arrived)
        self.log.estimator_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        alarm = self.detector.update(info.arrived)
        self.log.detector_seconds += time.perf_counter() - t0

        if alarm and self._pending_since is None:
            # change detected: restart estimation on post-change data
            self.estimator.reset()
            self._pending_since = info.slot
        if (
            self._pending_since is not None
            and self.estimator.n_samples >= self.min_samples
            and info.slot - self._pending_since >= self.freeze_slots
        ):
            new_rate = self.estimator.estimate()
            self._policy = self._optimize(new_rate, slot=info.slot)
            self.detector.reset(new_rate)
            self._pending_since = None
        return reward, info, 0.0


@dataclass(frozen=True)
class ModelBasedSpec:
    """Picklable recipe of one :class:`ModelBasedAdaptiveDPM` per env:
    a :class:`SlidingWindowEstimator` of ``window`` slots and a
    :class:`BernoulliCUSUM` armed at ``initial_rate``; the other fields
    are the controller's own settings."""

    window: int = 2000
    min_samples: int = 500
    freeze_slots: int = 0
    solver: str = "linear_programming"
    initial_rate: float = 0.2
    cusum_drift: float = 0.05
    cusum_threshold: float = 20.0

    def controller(self, env: SlottedDPMEnv,
                   discount: float) -> ModelBasedAdaptiveDPM:
        """A fresh controller of ``env``."""
        return ModelBasedAdaptiveDPM(
            env,
            discount=discount,
            solver=self.solver,
            estimator=SlidingWindowEstimator(self.window),
            detector=BernoulliCUSUM(self.initial_rate,
                                    drift=self.cusum_drift,
                                    threshold=self.cusum_threshold),
            min_samples=self.min_samples,
            freeze_slots=self.freeze_slots,
            initial_rate=self.initial_rate,
        )
