"""The Q-table: the entire run-time data structure of Q-DPM.

The paper: "Q values can be encoded in a |s| x |a| table that requires a
little bit memory space.  Hence, it is feasible to implement Q-DPM on
almost any embedded nodes."  This module is that table, plus the visit
counters used by decaying learning rates and the masking needed because
not every power command is legal in every mode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np


class QTable:
    """Dense tabular action-value function with action masking.

    Parameters
    ----------
    n_observations, n_actions:
        Table dimensions.
    initial_value:
        Optimistic or pessimistic initialization of every entry.
    dtype:
        Storage dtype; ``np.float32`` halves the footprint on an
        embedded target, ``float64`` (default) removes rounding concerns.
    """

    def __init__(
        self,
        n_observations: int,
        n_actions: int,
        initial_value: float = 0.0,
        dtype: type = np.float64,
    ) -> None:
        if n_observations < 1 or n_actions < 1:
            raise ValueError("table dimensions must be >= 1")
        self._q = np.full((n_observations, n_actions), initial_value, dtype=dtype)
        self._visits = np.zeros((n_observations, n_actions), dtype=np.int64)
        # float64 rows do the per-slot arithmetic on (identical) Python
        # floats; other dtypes keep NumPy scalars, which round to the dtype
        self._float64 = self._q.dtype == np.float64

    @property
    def n_observations(self) -> int:
        """Number of observation rows."""
        return self._q.shape[0]

    @property
    def n_actions(self) -> int:
        """Number of action columns."""
        return self._q.shape[1]

    @property
    def values(self) -> np.ndarray:
        """Copy of the raw Q matrix."""
        return self._q.copy()

    @property
    def visit_counts(self) -> np.ndarray:
        """Copy of the per-pair update counters."""
        return self._visits.copy()

    def get(self, observation: int, action: int) -> float:
        """Q(observation, action)."""
        return float(self._q[observation, action])

    def set(self, observation: int, action: int, value: float) -> None:
        """Overwrite one entry (used by tests and warm starts)."""
        self._q[observation, action] = value

    def visits(self, observation: int, action: int) -> int:
        """Number of updates applied to the pair so far."""
        return self._visits.item(observation, action)

    # ------------------------------------------------------------------ #
    # the two O(|A|) runtime operations of Q-DPM
    # ------------------------------------------------------------------ #

    def best_action(
        self,
        observation: int,
        allowed: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Greedy action among ``allowed``; random tie-break if ``rng``.

        Raises
        ------
        ValueError
            If ``allowed`` is empty.
        """
        if rng is None:
            return int(self.near_best(observation, allowed)[0])
        allowed = np.asarray(allowed, dtype=int)
        if allowed.size == 0:
            raise ValueError("allowed action set must be non-empty")
        row = self._q[observation, allowed]
        best = row.max()
        ties = allowed[row >= best - 1e-12]
        if ties.size > 1:
            return int(rng.choice(ties))
        return int(ties[0])

    def near_best(self, observation: int, allowed: Sequence[int],
                  tolerance: float = 1e-12) -> List[int]:
        """Allowed actions within ``tolerance`` of their row max, in
        ``allowed`` order; ``ValueError`` if ``allowed`` is empty."""
        values = self._values(observation, allowed)
        best = max(values)
        floor = (best - tolerance if self._float64
                 else float(self._q.dtype.type(best) - tolerance))
        return [a for a, v in zip(allowed, values) if v >= floor]

    def max_value(self, observation: int, allowed: Sequence[int]) -> float:
        """max_a Q(observation, a) over the allowed actions (the last of
        equal maxima, -0.0 or 0.0, as NumPy's reduction keeps)."""
        return float(max(reversed(self._values(observation, allowed))))

    def _values(self, observation: int, allowed: Sequence[int]) -> List[float]:
        q = self._q[observation].tolist()  # no NumPy call per action
        values = [q[a] for a in allowed]
        if not values:
            raise ValueError("allowed action set must be non-empty")
        return values

    def update_toward(
        self,
        observation: int,
        action: int,
        target: float,
        learning_rate: float,
    ) -> float:
        """Relaxation step ``Q <- (1 - lr) Q + lr * target`` (paper Eqn. 3).

        Returns the absolute change (the "temporal-difference magnitude"),
        which convergence diagnostics track.
        """
        if not 0.0 <= learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in [0, 1], got {learning_rate}")
        old = (self._q.item(observation, action) if self._float64
               else self._q[observation, action])
        new = (1.0 - learning_rate) * old + learning_rate * target
        self._q[observation, action] = new
        self._visits[observation, action] += 1
        return float(abs(new - old))

    # ------------------------------------------------------------------ #
    # batched variants — B replicas per call (the vectorized runtime)
    # ------------------------------------------------------------------ #

    def batch_best_action(
        self,
        observations: np.ndarray,
        allowed_mask: np.ndarray,
        tolerance: float = 1e-12,
        validate: bool = True,
    ) -> np.ndarray:
        """Greedy action per replica via masked argmax.

        Parameters
        ----------
        observations:
            int array of shape ``(B,)`` — one row index per replica.
        allowed_mask:
            bool array of shape ``(B, n_actions)`` — legality per replica.
        validate:
            Skip the shape / non-empty checks when False (hot loops whose
            masks come straight from the mode space are safe by
            construction).

        Ties within ``tolerance`` of the row max break toward the lowest
        action *index*.  Note this differs from :meth:`best_action`,
        whose deterministic branch follows the caller's ``allowed``
        sequence order — a boolean mask carries no order, so callers
        that need order-sensitive tie-breaking (e.g. "prefer the stay
        action") must resolve ties themselves (see
        ``BatchedQDPM.control_step``).

        Raises
        ------
        ValueError
            If ``validate`` and any replica has an empty allowed set.
        """
        observations = np.asarray(observations, dtype=np.int64)
        allowed_mask = np.asarray(allowed_mask, dtype=bool)
        if validate:
            if allowed_mask.shape != (observations.size, self.n_actions):
                raise ValueError(
                    f"allowed_mask shape {allowed_mask.shape} does not match "
                    f"({observations.size}, {self.n_actions})"
                )
            if not allowed_mask.any(axis=1).all():
                raise ValueError(
                    "allowed action set must be non-empty per replica"
                )
        rows = self._q[observations]
        masked = np.where(allowed_mask, rows, -np.inf)
        best = masked.max(axis=1, keepdims=True)
        near_best = allowed_mask & (rows >= best - tolerance)
        return near_best.argmax(axis=1)

    def batch_max_value(
        self,
        observations: np.ndarray,
        allowed_mask: np.ndarray,
        validate: bool = True,
    ) -> np.ndarray:
        """``max_a Q(obs_b, a)`` per replica over each allowed set."""
        observations = np.asarray(observations, dtype=np.int64)
        allowed_mask = np.asarray(allowed_mask, dtype=bool)
        if validate and not allowed_mask.any(axis=1).all():
            raise ValueError("allowed action set must be non-empty per replica")
        masked = np.where(allowed_mask, self._q[observations], -np.inf)
        return masked.max(axis=1)

    def batch_update(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        learning_rates: Union[float, np.ndarray],
        unique: bool = False,
    ) -> np.ndarray:
        """Vectorized Eqn.-3 relaxation at B (observation, action) pairs.

        Returns the per-pair absolute TD change, aligned with the inputs.
        Visit counters are exact under duplicate pairs (``np.add.at``);
        the Q write itself is one shot, so duplicates all relax from the
        same pre-update value instead of compounding sequentially — the
        lock-step engine never produces duplicates (each replica owns a
        disjoint row block), so callers that might must deduplicate first.
        ``unique=True`` is the caller's guarantee that all pairs are
        distinct, unlocking a fancy-indexed visit increment that is much
        faster than ``np.add.at``.
        """
        observations = np.asarray(observations, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        lrs = np.asarray(learning_rates, dtype=np.float64)
        if lrs.min() < 0.0 or lrs.max() > 1.0:
            raise ValueError("learning rates must be in [0, 1]")
        old = self._q[observations, actions]
        new = (1.0 - lrs) * old + lrs * targets
        self._q[observations, actions] = new
        if unique:
            self._visits[observations, actions] += 1
        else:
            np.add.at(self._visits, (observations, actions), 1)
        return np.abs(new - old)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Bytes held by the Q matrix itself (the CLAIM-MEM number)."""
        return int(self._q.nbytes)

    def copy(self) -> "QTable":
        """Deep copy (used for snapshotting during experiments)."""
        clone = QTable(
            self.n_observations, self.n_actions, dtype=self._q.dtype.type
        )
        clone._q = self._q.copy()
        clone._visits = self._visits.copy()
        assert clone._q.dtype == self._q.dtype
        return clone

    # ------------------------------------------------------------------ #
    # persistence (warm-starting a deployed controller)
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Persist values and visit counts to an ``.npz`` file."""
        np.savez_compressed(path, q=self._q, visits=self._visits)

    @classmethod
    def load(cls, path: str) -> "QTable":
        """Restore a table written by :meth:`save`."""
        with np.load(path) as data:
            q = data["q"]
            visits = data["visits"]
        if q.ndim != 2 or q.shape != visits.shape:
            raise ValueError(f"corrupt Q-table file {path!r}")
        table = cls(q.shape[0], q.shape[1], dtype=q.dtype.type)
        table._q = q.copy()
        table._visits = visits.astype(np.int64).copy()
        return table

    def __repr__(self) -> str:
        return f"QTable({self.n_observations}x{self.n_actions})"
