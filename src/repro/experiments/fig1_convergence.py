"""FIG1 reproduction: "Convergence on Optimal Policy".

Protocol (paper section 3, Fig. 1): stationary synthetic input drives the
slotted environment; Q-DPM learns online; the reference is the optimal
policy "derived by analytical techniques which assume model is completely
known in prior".

The y-axis is the *payoff* — the paper's reinforcement signal, "energy
reduction or certain function of energy reduction": per-slot reward
``-(energy) - perf_weight * queue - loss_penalty * losses``.  Plotting
raw energy saving alone would be misleading (a policy that sleeps through
requests shows splendid savings); the payoff is the quantity the optimal
policy actually maximizes, so convergence *to the optimal line* is
well-defined.  We plot the windowed online payoff and, sampled at every
record point, the *exact* long-run payoff of the greedy policy snapshot
(stationary analysis — no exploration noise), plus the corresponding
energy-saving ratios as secondary data.

Rollouts route through the batched :class:`~repro.runtime.SweepRunner`:
``config.sweep.n_seeds`` independent learners train lock-step, the chart
shows the lead seed, and the across-seed payoff gets a bootstrap CI.
The lead seed's greedy-policy snapshots come back with its chunk's
results (``RolloutSpec.snapshot_seeds``), whichever process ran it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis import CI, ascii_chart, convergence_point
from ..device import get_preset
from ..env import build_dpm_model
from ..mdp import DeterministicPolicy
from ..runtime import RolloutSpec
from ..workload import ConstantRate
from .config import Fig1Config


@dataclass
class Fig1Result:
    """Everything needed to render and assert on the Fig. 1 reproduction."""

    config: Fig1Config
    slots: np.ndarray                 #: record points (slot indices)
    online_reward: np.ndarray         #: windowed payoff while learning
    online_saving: np.ndarray         #: windowed saving ratio while learning
    snapshot_reward: np.ndarray       #: exact payoff of eps-soft snapshots
    snapshot_saving: np.ndarray       #: exact saving of eps-soft snapshots
    optimal_reward: float             #: exact payoff of the optimal policy
    optimal_saving: float             #: exact saving of the optimal policy
    optimal_soft_reward: float        #: optimal policy made epsilon-soft
    final_policy_agreement: float     #: state agreement with the optimum
    convergence_slot: Optional[int]   #: online payoff enters the soft band
    n_seeds: int = 1                  #: independent learners swept
    reward_ci: Optional[CI] = None    #: across-seed horizon payoff CI
    execution: Optional[dict] = None  #: sweep execution metadata (verification)

    def render(self) -> str:
        """ASCII figure matching the paper's Fig. 1 layout.

        The online curve is the paper's y-axis; the dashed references are
        the exact optimal payoff and the exploration-fair version of it
        (the optimal policy forced to explore with the same epsilon the
        learner uses) — the level the online curve can actually reach.
        """
        chart = ascii_chart(
            self.slots,
            {"Q-DPM (online)": self.online_reward,
             "Q-DPM (snapshot, exact)": self.snapshot_reward},
            hlines={"optimal": self.optimal_reward,
                    "optimal(eps-soft)": self.optimal_soft_reward},
            title=(
                "Fig.1 Convergence on Optimal Policy "
                f"(arrival_rate={self.config.arrival_rate})"
            ),
            y_label="payoff",
        )
        conv = (
            f"{self.convergence_slot}" if self.convergence_slot is not None else "never"
        )
        tail = (
            f"\noptimal payoff/slot: {self.optimal_reward:.4f}"
            f" (energy-saving ratio {self.optimal_saving:.4f})"
            f"\noptimal payoff under the learner's epsilon: "
            f"{self.optimal_soft_reward:.4f}"
            f"\nfinal snapshot payoff (exact, eps-soft): "
            f"{self.snapshot_reward[-1]:.4f}"
            f" (saving {self.snapshot_saving[-1]:.4f})"
            f"\nfinal policy agreement: {self.final_policy_agreement:.3f}"
            f"\nconvergence slot (payoff band +-{self.config.tolerance} around "
            f"eps-soft optimal): {conv}"
        )
        if self.n_seeds > 1 and self.reward_ci is not None:
            tail += (
                f"\nonline payoff across {self.n_seeds} seeds: "
                f"{self.reward_ci} (95% bootstrap CI)"
            )
        return chart + tail


def run_fig1(config: Fig1Config = Fig1Config()) -> Fig1Result:
    """Run the FIG1 experiment; deterministic given the config seeds."""
    if config.n_slots < config.record_every:
        raise ValueError(
            f"n_slots ({config.n_slots}) must be at least record_every "
            f"({config.record_every}): fig1 needs one full record window"
        )
    device = get_preset(config.env.device)
    model = build_dpm_model(
        device,
        arrival_rate=config.arrival_rate,
        slot_length=config.env.slot_length,
        queue_capacity=config.env.queue_capacity,
        p_serve=config.env.p_serve,
        perf_weight=config.env.perf_weight,
        loss_penalty=config.env.loss_penalty,
    )
    optimal = model.solve(config.env.discount, "policy_iteration")
    opt_perf = model.evaluate_policy(optimal.policy)
    opt_soft = model.evaluate_policy(optimal.policy, epsilon=config.epsilon)

    seeds = config.seeds()
    spec = RolloutSpec.from_env_config(
        config.env,
        ConstantRate(config.arrival_rate),
        config.n_slots,
        record_every=config.record_every,
        learning_rate=config.learning_rate,
        epsilon=config.epsilon,
        snapshot_seeds=(seeds[0],),
    )
    sweep = config.sweep.runner().run_many(spec, seeds)
    lead = sweep.runs[0]
    history = lead.history

    # evaluate each full window's snapshot exactly *as deployed*,
    # epsilon-soft (a possible partial tail record is dropped).  Q-DPM
    # never stops exploring, and the epsilon-soft chain is ergodic, so
    # the evaluation is immune to the absorbing-trap artifacts a
    # strictly-greedy reading of a half-trained table exhibits at
    # rarely-visited states.
    n = config.n_slots // config.record_every
    snapshots = [
        model.evaluate_policy(DeterministicPolicy(actions),
                              epsilon=config.epsilon)
        for actions in lead.snapshots[:n]
    ]
    slots = history.slots[:n]

    final_policy = DeterministicPolicy(lead.snapshots[-1])
    agreement = final_policy.agreement(optimal.policy)
    conv = convergence_point(
        slots,
        history.reward[:n],
        opt_soft.average_reward,
        config.tolerance,
        config.sustain,
    )
    return Fig1Result(
        config=config,
        slots=np.asarray(slots),
        online_reward=history.reward[:n],
        online_saving=history.saving_ratio[:n],
        snapshot_reward=np.array([p.average_reward for p in snapshots]),
        snapshot_saving=np.array([p.energy_saving_ratio for p in snapshots]),
        optimal_reward=opt_perf.average_reward,
        optimal_saving=opt_perf.energy_saving_ratio,
        optimal_soft_reward=opt_soft.average_reward,
        final_policy_agreement=agreement,
        convergence_slot=conv,
        n_seeds=len(seeds),
        reward_ci=sweep.reward_ci() if len(seeds) > 1 else None,
        execution=getattr(sweep, "execution", None),
    )
