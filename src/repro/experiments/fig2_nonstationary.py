"""FIG2 reproduction: "Rapid Response".

Protocol (paper section 3, Fig. 2): temporarily stationary synthetic
input — the arrival rate switches between segments at marked points.
Q-DPM keeps adapting every slot; the model-based adaptive pipeline must
*detect* the change, *re-estimate* the parameter, and *re-optimize* (LP),
paying lag at every switch.  We overlay the windowed payoff curves of
both controllers (payoff = the paper's reinforcement signal; see
:mod:`repro.experiments.fig1_convergence` for why it, and not raw energy
saving, is the comparable axis), draw the per-segment exact optimal
payoff as reference levels, mark the switching points, and quantify the
per-switch response time of each controller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..adaptive import AdaptationLog, ModelBasedSpec
from ..analysis import CI, SwitchResponse, ascii_chart, switch_responses
from ..device import get_preset
from ..env import build_dpm_model
from ..runtime import RolloutSpec, merge_verification_blocks
from ..workload import PiecewiseConstantRate
from .config import Fig2Config


@dataclass
class Fig2Result:
    """Curves and per-switch analysis of the Fig. 2 reproduction."""

    config: Fig2Config
    slots: np.ndarray
    qdpm_reward: np.ndarray
    mb_reward: np.ndarray
    qdpm_saving: np.ndarray
    mb_saving: np.ndarray
    switch_points: List[int]
    segment_optimal_reward: List[float]   #: exact optimal payoff per segment
    segment_optimal_saving: List[float]
    qdpm_responses: List[SwitchResponse]
    mb_responses: List[SwitchResponse]
    mb_log: AdaptationLog
    n_seeds: int = 1                      #: seeds per controller arm
    qdpm_reward_ci: Optional[CI] = None   #: across-seed Q-DPM payoff CI
    mb_reward_ci: Optional[CI] = None     #: across-seed model-based payoff CI
    execution: Optional[dict] = None      #: merged sweep verification metadata

    def render(self) -> str:
        """ASCII figure matching the paper's Fig. 2 layout."""
        hlines = {
            f"opt(seg{i})": r
            for i, r in enumerate(self.segment_optimal_reward)
        }
        chart = ascii_chart(
            self.slots,
            {"Q-DPM": self.qdpm_reward, "model-based": self.mb_reward},
            vlines=self.switch_points,
            hlines=hlines,
            title="Fig.2 Rapid Response (vertical bars = switching points)",
            y_label="payoff",
        )
        lines = [chart, ""]
        lines.append("per-switch response time (slots to re-enter the band):")
        for q, m in zip(self.qdpm_responses, self.mb_responses):
            q_t = "never" if q.response_slots is None else str(q.response_slots)
            m_t = "never" if m.response_slots is None else str(m.response_slots)
            lines.append(
                f"  switch@{q.switch_slot}: Q-DPM {q_t} vs model-based {m_t} "
                f"(target payoff {q.target:.3f})"
            )
        lines.append(
            f"model-based re-optimizations: {self.mb_log.n_reoptimizations}"
        )
        if self.n_seeds > 1 and self.qdpm_reward_ci is not None:
            lines.append(
                f"payoff across {self.n_seeds} seeds (95% bootstrap CI): "
                f"Q-DPM {self.qdpm_reward_ci} vs "
                f"model-based {self.mb_reward_ci}"
            )
        return "\n".join(lines)


def _segment_optima(config: Fig2Config) -> Tuple[List[float], List[float]]:
    """Exact optimal (payoff, saving) per segment's frozen rate."""
    device = get_preset(config.env.device)
    rewards: List[float] = []
    savings: List[float] = []
    for rate in config.segment_rates:
        model = build_dpm_model(
            device,
            arrival_rate=rate,
            slot_length=config.env.slot_length,
            queue_capacity=config.env.queue_capacity,
            p_serve=config.env.p_serve,
            perf_weight=config.env.perf_weight,
            loss_penalty=config.env.loss_penalty,
        )
        result = model.solve(config.env.discount, "policy_iteration")
        perf = model.evaluate_policy(result.policy)
        rewards.append(perf.average_reward)
        savings.append(perf.energy_saving_ratio)
    return rewards, savings


def _segment_steady_levels(
    slots: np.ndarray,
    series: np.ndarray,
    switch_points: List[int],
    n_slots: int,
    tail_fraction: float = 0.3,
) -> List[float]:
    """Steady payoff level a controller reaches in each post-switch segment
    (mean over the segment's trailing ``tail_fraction`` of records)."""
    targets: List[float] = []
    bounds = list(switch_points) + [n_slots]
    for start, end in zip(switch_points, bounds[1:]):
        tail_start = end - int((end - start) * tail_fraction)
        mask = (slots >= tail_start) & (slots < end)
        targets.append(float(series[mask].mean()) if mask.any() else float("nan"))
    return targets


def _merged_execution(*sweeps) -> Optional[dict]:
    """One execution block covering every sweep arm, for the CLI summary."""
    merged = merge_verification_blocks(
        [getattr(s, "execution", None) for s in sweeps]
    )
    return {"verification": merged} if merged else None


def run_fig2(config: Fig2Config = Fig2Config()) -> Fig2Result:
    """Run the FIG2 experiment; deterministic given the config seeds.

    Both controller arms route through the unified
    :class:`~repro.runtime.SweepRunner` on the same workload seeds: the
    Q-DPM seeds train on the slotted engines, and the model-based
    pipeline (stateful estimator + CUSUM + LP re-optimizer — inherently
    scalar) is the same spec with ``model_based`` set, one controller per
    seed on the scalar stack; the first seed's adaptation log is the one
    reported.  With ``config.sweep.n_seeds > 1`` the plotted curves are
    across-seed means.
    """
    n_slots = config.segment_slots * len(config.segment_rates)
    schedule = PiecewiseConstantRate(
        [(config.segment_slots, r) for r in config.segment_rates]
    )
    switch_points = schedule.switch_points(n_slots)
    opt_rewards, opt_savings = _segment_optima(config)

    spec = RolloutSpec.from_env_config(
        config.env,
        schedule,
        n_slots,
        record_every=config.record_every,
        learning_rate=config.learning_rate,
        epsilon=config.epsilon,
    )
    seeds = config.seeds()
    runner = config.sweep.runner()

    sweep_q = runner.run_many(spec, seeds)
    sweep_m = runner.run_many(replace(spec, model_based=ModelBasedSpec(
        window=config.mb_window,
        min_samples=config.mb_min_samples,
        freeze_slots=config.mb_freeze_slots,
        solver=config.mb_solver,
        initial_rate=config.mb_initial_rate,
        cusum_drift=config.mb_cusum_drift,
        cusum_threshold=config.mb_cusum_threshold,
    )), seeds)

    multi = len(seeds) > 1
    hist_q = sweep_q.mean_history() if multi else sweep_q.runs[0].history
    hist_m = sweep_m.mean_history() if multi else sweep_m.runs[0].history

    n = min(len(hist_q.slots), len(hist_m.slots))
    slots = hist_q.slots[:n]

    # Response targets are *self-relative*: each controller must return to
    # its own steady level for the new segment.  Using the theoretical
    # optimum would penalize Q-DPM's permanent exploration tax (a constant
    # offset, not a tracking lag) and hand the non-exploring model-based
    # controller a free win — the question here is tracking *speed*.
    q_targets = _segment_steady_levels(
        slots, hist_q.reward[:n], switch_points, n_slots
    )
    m_targets = _segment_steady_levels(
        slots, hist_m.reward[:n], switch_points, n_slots
    )
    q_resp = switch_responses(
        slots, hist_q.reward[:n], switch_points, q_targets,
        config.tolerance, config.sustain,
    )
    m_resp = switch_responses(
        slots, hist_m.reward[:n], switch_points, m_targets,
        config.tolerance, config.sustain,
    )
    return Fig2Result(
        config=config,
        slots=slots,
        qdpm_reward=hist_q.reward[:n],
        mb_reward=hist_m.reward[:n],
        qdpm_saving=hist_q.saving_ratio[:n],
        mb_saving=hist_m.saving_ratio[:n],
        switch_points=list(switch_points),
        segment_optimal_reward=opt_rewards,
        segment_optimal_saving=opt_savings,
        qdpm_responses=q_resp,
        mb_responses=m_resp,
        mb_log=sweep_m.runs[0].adaptation,
        n_seeds=len(seeds),
        qdpm_reward_ci=sweep_q.reward_ci() if multi else None,
        mb_reward_ci=sweep_m.reward_ci() if multi else None,
        execution=_merged_execution(sweep_q, sweep_m),
    )
