"""Exact DTMDP construction for the slotted DPM environment.

Writes down, in closed form, the ``(P, R)`` model of
:class:`~repro.env.slotted_env.SlottedDPMEnv` for a *frozen* arrival
probability.  This is what the model-based baseline optimizes (LP /
policy iteration / value iteration) and what provides the "optimal policy
derived by analytical techniques which assume model is completely known
in prior" of the paper's Fig. 1.

Besides the MDP itself, the builder exports per-(state, action) tables of
expected energy, expected end-of-slot queue, and expected loss — so the
long-run *power*, *latency*, and *energy-saving ratio* of any policy are
computable exactly via stationary analysis, without simulation noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..checks import check_count, check_nonnegative
from ..device import PowerStateMachine
from ..mdp import (
    DeterministicPolicy,
    FiniteMDP,
    SolveResult,
    linear_programming,
    long_run_state_average,
    policy_iteration,
    policy_occupancy,
    start_occupancy,
    value_iteration,
)
from .states import ModeSpace


@dataclass(frozen=True)
class PolicyPerformance:
    """Exact long-run performance of a policy on a frozen DPM model."""

    mean_power: float          #: watts
    mean_queue: float          #: time-average backlog
    mean_latency: float        #: seconds (Little's law on accepted arrivals)
    loss_rate: float           #: fraction of arrivals dropped
    energy_saving_ratio: float #: 1 - power / always-on power
    average_reward: float      #: long-run reward per slot


@dataclass
class DPMModel:
    """An exact slotted-DPM model: MDP plus physical per-pair tables."""

    mdp: FiniteMDP
    energy: np.ndarray         #: (S, A) expected energy per slot
    queue: np.ndarray          #: (S, A) expected end-of-slot queue
    loss: np.ndarray           #: (S, A) expected dropped arrivals per slot
    mode_space: ModeSpace
    arrival_rate: float
    p_serve: float
    queue_capacity: int
    perf_weight: float
    loss_penalty: float

    @property
    def slot_length(self) -> float:
        """Slot duration inherited from the mode space."""
        return self.mode_space.slot_length

    def initial_state(self) -> int:
        """Flattened index of (home mode, empty queue)."""
        home = self.mode_space.steady_mode_index(
            self.mode_space.device.initial_state
        )
        return home * (self.queue_capacity + 1)

    def always_on_power(self) -> float:
        """Power of the home servicing state (the saving-ratio baseline)."""
        device = self.mode_space.device
        return device.state(device.initial_state).power

    def solve(
        self,
        discount: float,
        method: str = "policy_iteration",
    ) -> SolveResult:
        """Compute the optimal policy with the chosen exact solver.

        ``method`` is one of ``"value_iteration"``, ``"policy_iteration"``,
        ``"linear_programming"``.
        """
        solvers = {
            "value_iteration": value_iteration,
            "policy_iteration": policy_iteration,
            "linear_programming": linear_programming,
        }
        try:
            solver = solvers[method]
        except KeyError:
            raise KeyError(f"unknown solver {method!r}; options: {sorted(solvers)}")
        return solver(self.mdp, discount)

    def evaluate_policy(
        self, policy: DeterministicPolicy, epsilon: float = 0.0
    ) -> PolicyPerformance:
        """Exact long-run metrics of a policy via stationary analysis.

        ``epsilon`` > 0 evaluates the epsilon-soft version of the policy
        (uniform random among allowed actions with probability epsilon) —
        the *fair* reference for an online learner that keeps exploring,
        since pure-greedy references make the exploration tax look like a
        convergence failure.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        start = self.initial_state()
        n_states = self.mdp.n_states
        idx = np.arange(n_states)
        acts = policy.actions
        if epsilon == 0.0:
            pi = policy_occupancy(self.mdp, policy, start)
            mean_energy = float(pi @ self.energy[idx, acts])
            mean_queue = float(pi @ self.queue[idx, acts])
            mean_loss = float(pi @ self.loss[idx, acts])
            mean_reward = float(pi @ self.mdp.reward[idx, acts])
        else:
            # action distribution of the epsilon-soft policy
            probs = np.where(self.mdp.allowed, epsilon, 0.0)
            probs /= np.maximum(probs.sum(axis=1, keepdims=True), 1e-300)
            probs *= epsilon
            probs[idx, acts] += 1.0 - epsilon
            p_mix = np.einsum("sa,sat->st", probs, self.mdp.transition)
            pi = start_occupancy(p_mix, start)
            mean_energy = float(pi @ (probs * self.energy).sum(axis=1))
            mean_queue = float(pi @ (probs * self.queue).sum(axis=1))
            mean_loss = float(pi @ (probs * self.loss).sum(axis=1))
            reward = np.where(self.mdp.allowed, self.mdp.reward, 0.0)
            mean_reward = float(pi @ (probs * reward).sum(axis=1))
        mean_power = mean_energy / self.slot_length
        accepted_rate = self.arrival_rate - mean_loss  # per slot
        if accepted_rate > 1e-12:
            latency = mean_queue / (accepted_rate / self.slot_length)
        else:
            latency = 0.0
        baseline = self.always_on_power()
        saving = 1.0 - mean_power / baseline if baseline > 0 else 0.0
        loss_rate = mean_loss / self.arrival_rate if self.arrival_rate > 0 else 0.0
        return PolicyPerformance(
            mean_power=mean_power,
            mean_queue=mean_queue,
            mean_latency=latency,
            loss_rate=loss_rate,
            energy_saving_ratio=saving,
            average_reward=mean_reward,
        )

    def state_labels(self) -> List[str]:
        """Readable labels aligned with the flattened state indexing."""
        labels = []
        for mode in self.mode_space.modes:
            for q in range(self.queue_capacity + 1):
                labels.append(f"{mode.label}|q={q}")
        return labels


def build_dpm_model(
    device: PowerStateMachine,
    arrival_rate: float,
    slot_length: float = 1.0,
    queue_capacity: int = 8,
    p_serve: float = 1.0,
    perf_weight: float = 0.5,
    loss_penalty: float = 2.0,
) -> DPMModel:
    """Construct the exact DTMDP of the slotted environment.

    Parameters mirror :class:`~repro.env.slotted_env.SlottedDPMEnv` with a
    frozen ``arrival_rate`` in place of a schedule.

    The state indexing matches the environment exactly
    (``state = mode_index * (queue_capacity + 1) + queue``), so a policy
    solved on this model can be executed verbatim in the environment.
    """
    if not 0.0 <= arrival_rate <= 1.0:
        raise ValueError(f"arrival_rate must be in [0, 1], got {arrival_rate}")
    queue_capacity = check_count("queue_capacity", queue_capacity)
    if not 0.0 < p_serve <= 1.0:
        raise ValueError(f"p_serve must be in (0, 1], got {p_serve}")
    perf_weight = check_nonnegative("perf_weight", perf_weight)
    loss_penalty = check_nonnegative("loss_penalty", loss_penalty)

    space = ModeSpace(device, slot_length)
    n_q = queue_capacity + 1
    n_states = space.n_modes * n_q
    n_actions = space.n_actions

    transition = np.zeros((n_states, n_actions, n_states))
    reward = np.zeros((n_states, n_actions))
    allowed = np.zeros((n_states, n_actions), dtype=bool)
    energy_tab = np.zeros((n_states, n_actions))
    queue_tab = np.zeros((n_states, n_actions))
    loss_tab = np.zeros((n_states, n_actions))

    p_arr = arrival_rate
    for m_idx in range(space.n_modes):
        for q in range(n_q):
            s = m_idx * n_q + q
            for a in space.allowed_actions(m_idx):
                effect = space.effect(m_idx, a)
                allowed[s, a] = True
                energy_tab[s, a] = effect.energy

                serve_prob = p_serve if (effect.can_service and q > 0) else 0.0
                # outcomes: (served?, arrived?)
                for served, p_srv in ((1, serve_prob), (0, 1.0 - serve_prob)):
                    if p_srv == 0.0:
                        continue
                    q_mid = q - served
                    for arrived, p_a in ((1, p_arr), (0, 1.0 - p_arr)):
                        prob = p_srv * p_a
                        if prob == 0.0:
                            continue
                        lost = 0
                        q_next = q_mid
                        if arrived:
                            if q_mid < queue_capacity:
                                q_next = q_mid + 1
                            else:
                                lost = 1
                        s_next = effect.next_mode * n_q + q_next
                        transition[s, a, s_next] += prob
                        queue_tab[s, a] += prob * q_next
                        loss_tab[s, a] += prob * lost
                reward[s, a] = (
                    -effect.energy
                    - perf_weight * queue_tab[s, a]
                    - loss_penalty * loss_tab[s, a]
                )

    labels_s = []
    for mode in space.modes:
        for q in range(n_q):
            labels_s.append(f"{mode.label}|q={q}")
    mdp = FiniteMDP(
        transition=transition,
        reward=reward,
        allowed=allowed,
        state_labels=labels_s,
        action_labels=[f"goto:{n}" for n in space.action_names],
    )
    return DPMModel(
        mdp=mdp,
        energy=energy_tab,
        queue=queue_tab,
        loss=loss_tab,
        mode_space=space,
        arrival_rate=arrival_rate,
        p_serve=p_serve,
        queue_capacity=queue_capacity,
        perf_weight=perf_weight,
        loss_penalty=loss_penalty,
    )
