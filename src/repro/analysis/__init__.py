"""Analysis helpers: curve metrics, bootstrap CIs, terminal plots."""

from .ascii_plot import ascii_chart, format_table
from .competitive import (
    CompetitiveReport,
    competitive_report,
    energy_break_even,
    deterministic_lower_bound_ratio,
    idle_period_energy_oracle,
    idle_period_energy_timeout,
)
from .bootstrap import CI, bootstrap_ci
from .metrics import (
    TAIL_QUANTILES,
    SwitchResponse,
    convergence_point,
    latency_percentiles,
    switch_responses,
)

__all__ = [
    "ascii_chart",
    "CompetitiveReport",
    "competitive_report",
    "energy_break_even",
    "idle_period_energy_timeout",
    "idle_period_energy_oracle",
    "deterministic_lower_bound_ratio",
    "format_table",
    "CI",
    "bootstrap_ci",
    "convergence_point",
    "switch_responses",
    "SwitchResponse",
    "latency_percentiles",
    "TAIL_QUANTILES",
]
