"""Finite MDP library: containers, chains, and exact solvers."""

from .dtmc import (
    start_occupancy,
    is_stochastic,
    long_run_occupancy,
    stationary_distribution,
)
from .evaluation import (
    average_reward,
    long_run_state_average,
    policy_evaluation,
    policy_occupancy,
)
from .linprog_solver import linear_programming
from .mdp import FiniteMDP, random_mdp
from .policy import (
    DeterministicPolicy,
    greedy_policy,
    induced_chain,
    induced_reward,
)
from .policy_iteration import policy_iteration
from .value_iteration import (
    SolveResult,
    bellman_backup,
    q_from_values,
    value_iteration,
)

__all__ = [
    "FiniteMDP",
    "random_mdp",
    "DeterministicPolicy",
    "greedy_policy",
    "induced_chain",
    "induced_reward",
    "SolveResult",
    "value_iteration",
    "bellman_backup",
    "q_from_values",
    "policy_iteration",
    "linear_programming",
    "policy_evaluation",
    "policy_occupancy",
    "average_reward",
    "long_run_state_average",
    "is_stochastic",
    "stationary_distribution",
    "long_run_occupancy",
    "start_occupancy",
]
