"""Discrete-time Markov chain utilities.

Used to turn "policy + MDP" into long-run performance numbers: the
stationary distribution of the induced chain gives the exact average
power, queue length, and energy-saving ratio of a policy — the flat
"optimal" reference line in the Fig. 1 reproduction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def is_stochastic(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """True if ``matrix`` is row-stochastic within ``tol``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if np.any(matrix < -tol):
        return False
    return bool(np.all(np.abs(matrix.sum(axis=1) - 1.0) <= tol))


def stationary_distribution(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Stationary distribution of a unichain transition matrix.

    Solves ``pi P = pi, sum(pi) = 1`` by least squares on the augmented
    linear system.  Assumes a single recurrent class (unichain) — true for
    every policy-induced chain of the slotted DPM environment because
    Bernoulli arrivals/services randomize all cycles.  For a chain with
    several recurrent classes the returned vector is *one* valid
    stationary distribution; use :func:`long_run_occupancy` when the
    start state matters.

    Raises
    ------
    ValueError
        If ``matrix`` is not square row-stochastic.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not is_stochastic(matrix, tol=1e-6):
        raise ValueError("matrix must be square and row-stochastic")
    n = matrix.shape[0]
    # (P^T - I) pi = 0 with normalization row appended
    a = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise ValueError("failed to find a stationary distribution")
    pi = pi / total
    residual = np.abs(pi @ matrix - pi).max()
    if residual > 1e-6:
        # fall back to power iteration with Cesaro averaging (periodic or
        # ill-conditioned chains)
        pi = long_run_occupancy(matrix, np.full(n, 1.0 / n))
    return pi


def long_run_occupancy(
    matrix: np.ndarray,
    start: np.ndarray,
    max_iter: int = 200_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Cesaro-limit state occupancy from a start distribution.

    Power iteration with running average; converges for any finite chain
    (periodic included) to the long-run fraction of time per state.
    """
    matrix = np.asarray(matrix, dtype=float)
    dist = np.asarray(start, dtype=float)
    if dist.shape != (matrix.shape[0],):
        raise ValueError("start distribution has wrong length")
    if abs(dist.sum() - 1.0) > 1e-8 or np.any(dist < 0):
        raise ValueError("start must be a probability distribution")
    avg = dist.copy()
    for k in range(1, max_iter + 1):
        dist = dist @ matrix
        new_avg = avg + (dist - avg) / (k + 1)
        if np.abs(new_avg - avg).max() < tol and k > 100:
            return new_avg / new_avg.sum()
        avg = new_avg
    return avg / avg.sum()


def start_occupancy(
    matrix: np.ndarray,
    start_state: int,
    prob_tol: float = 1e-12,
) -> np.ndarray:
    """Exact long-run occupancy from a given start state, reducible chains
    included.

    A policy-induced chain need not be unichain: a half-trained greedy
    policy can create absorbing "trap" classes that are unreachable from
    the start state, and the start-independent stationary solve may pick
    the wrong class.  This routine is exact for any finite chain:

    1. decompose the transition graph into strongly connected components;
    2. identify the *closed* (recurrent) classes;
    3. solve the absorption probabilities from the start state into each
       closed class (linear system on the transient states);
    4. solve the stationary distribution inside each closed class;
    5. mix the class stationary distributions by absorption probability.

    Returns the long-run fraction of time spent in each state.
    """
    import networkx as nx

    matrix = np.asarray(matrix, dtype=float)
    if not is_stochastic(matrix, tol=1e-6):
        raise ValueError("matrix must be square and row-stochastic")
    n = matrix.shape[0]
    if not 0 <= start_state < n:
        raise ValueError(f"start_state out of range: {start_state}")

    support = matrix > prob_tol
    graph = nx.from_numpy_array(support.astype(int), create_using=nx.DiGraph)
    sccs = list(nx.strongly_connected_components(graph))

    # closed class = no edge leaving the component
    closed: list = []
    component_of = np.empty(n, dtype=int)
    for idx, comp in enumerate(sccs):
        for node in comp:
            component_of[node] = idx
    for idx, comp in enumerate(sccs):
        comp_list = sorted(comp)
        rows = support[np.ix_(comp_list, comp_list)]
        leaves = support[comp_list].sum() - rows.sum()
        if leaves == 0:
            closed.append(comp_list)

    # stationary distribution inside each closed class
    class_stationary = []
    for comp_list in closed:
        sub = matrix[np.ix_(comp_list, comp_list)]
        sub = sub / sub.sum(axis=1, keepdims=True)  # renormalize numerics
        pi_sub = stationary_distribution(sub)
        class_stationary.append(pi_sub)

    closed_states = set()
    for comp_list in closed:
        closed_states.update(comp_list)

    # if the start state already lives in a closed class, we are done
    for comp_list, pi_sub in zip(closed, class_stationary):
        if start_state in comp_list:
            out = np.zeros(n)
            out[comp_list] = pi_sub
            return out

    # absorption probabilities from the transient states
    transient = sorted(set(range(n)) - closed_states)
    t_index = {s: i for i, s in enumerate(transient)}
    q = matrix[np.ix_(transient, transient)]
    lhs = np.eye(len(transient)) - q
    out = np.zeros(n)
    start_row = t_index[start_state]
    for comp_list, pi_sub in zip(closed, class_stationary):
        r = matrix[np.ix_(transient, comp_list)].sum(axis=1)
        absorb = np.linalg.solve(lhs, r)
        prob = float(absorb[start_row])
        if prob > 0:
            out[comp_list] += prob * pi_sub
    total = out.sum()
    if total <= 0:
        raise ValueError("no closed class reachable from the start state")
    return out / total
