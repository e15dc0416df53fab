"""Linear-programming policy optimization — the model-based baseline.

This is the optimizer the paper singles out: "the widely applied linear
programming policy optimization runs extremely slow" (even on a
Pentium III 800 MHz).  We implement the standard primal LP for discounted
MDPs —

    minimize    sum_s V(s)
    subject to  V(s) >= R(s, a) + beta * sum_s' P(s'|s, a) V(s')
                for every allowed pair (s, a)

— via ``scipy.optimize.linprog`` (HiGHS), extract the greedy policy from
the optimal values, and let the CLAIM-EFF benchmark time it against a
single Q-table update.
"""

from __future__ import annotations

import numpy as np

from .mdp import FiniteMDP
from .policy import greedy_policy
from .value_iteration import SolveResult, q_from_values


def linear_programming(
    mdp: FiniteMDP,
    discount: float,
) -> SolveResult:
    """Solve the discounted MDP exactly with the primal LP.

    Raises
    ------
    ValueError
        For a discount outside [0, 1).
    RuntimeError
        If the LP solver reports failure.
    """
    if not 0.0 <= discount < 1.0:
        raise ValueError(f"discount must be in [0, 1), got {discount}")
    # scipy costs more to import than all of ``repro``; only LP solves pay it
    from scipy import sparse
    from scipy.optimize import linprog

    n_states, n_actions = mdp.n_states, mdp.n_actions

    # Constraint rows: (beta * P(.|s,a) - e_s) . V <= -R(s,a) per allowed pair.
    pairs = np.argwhere(mdp.allowed)
    rows = []
    rhs = np.empty(len(pairs))
    for i, (s, a) in enumerate(pairs):
        row = discount * mdp.transition[s, a]
        row = row.copy()
        row[s] -= 1.0
        rows.append(row)
        rhs[i] = -mdp.reward[s, a]
    a_ub = sparse.csr_matrix(np.asarray(rows))
    cost = np.ones(n_states)

    result = linprog(
        c=cost,
        A_ub=a_ub,
        b_ub=rhs,
        bounds=[(None, None)] * n_states,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP policy optimization failed: {result.message}")
    values = np.asarray(result.x, dtype=float)
    q = q_from_values(mdp, values, discount)
    policy = greedy_policy(q, mdp=mdp)
    residual = float(np.abs(np.max(q, axis=1) - values).max())
    iterations = int(getattr(result, "nit", 0))
    return SolveResult(values, policy, iterations, residual)
