"""The Q-row operations against an independent NumPy oracle.

``QTable.max_value``, ``QTable.best_action(rng=None)``,
``QTable.update_toward`` and ``FixedDrawEpsilonGreedy.select`` scan a
handful of allowed entries with Python floats.  The oracles below state
the same rules with NumPy (fancy index, ``ufunc.reduce``, ``nonzero``,
scalar arithmetic in the table's dtype); every result must agree bit
for bit on float64 and float32 tables, at exact ties and at near-ties
on both sides of the 1e-12 tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FixedDrawEpsilonGreedy, QTable

N_ACTIONS = 4
TOLERANCE = 1e-12


# ---------------------------------------------------------------------- #
# the oracle: the same rules, written with NumPy
# ---------------------------------------------------------------------- #

def oracle_max_value(q, obs, allowed):
    return float(q[obs, np.asarray(allowed, dtype=int)].max())


def oracle_best_action(q, obs, allowed):
    allowed = np.asarray(allowed, dtype=int)
    row = q[obs, allowed]
    return int(allowed[row >= row.max() - TOLERANCE][0])


def oracle_update(q, visits, obs, action, target, lr):
    old = q[obs, action]
    new = (1.0 - lr) * old + lr * target
    q[obs, action] = new
    visits[obs, action] += 1
    return float(abs(new - old))


def oracle_select(q, obs, allowed, epsilon, rng):
    allowed = np.asarray(allowed, dtype=int)
    draws = rng.random(3)
    row = q[obs, allowed]
    near = row >= row.max() - TOLERANCE
    count = int(near.sum())
    greedy = int(allowed[np.nonzero(near)[0][min(int(draws[2] * count),
                                                  count - 1)]])
    if draws[0] < epsilon:
        return int(allowed[min(int(draws[1] * allowed.size),
                               allowed.size - 1)])
    return greedy


def bits(x) -> bytes:
    """Exact bit pattern, so -0.0 and 0.0 differ."""
    return np.float64(x).tobytes()


# ---------------------------------------------------------------------- #
# inputs: rows full of exact ties and near-ties
# ---------------------------------------------------------------------- #

DTYPES = st.sampled_from([np.float64, np.float32])
ALLOWED = st.lists(st.integers(0, N_ACTIONS - 1), min_size=1,
                   max_size=N_ACTIONS, unique=True)


def _near_tie_candidates(best, dtype):
    """Values at, just inside and just outside the near-max band of
    ``best``, both where float64 puts its edge and where the table's
    dtype does."""
    edges = [best - TOLERANCE, float(dtype(best) - TOLERANCE)]
    out = [best, -best, 0.0, -0.0]
    for edge in edges:
        out += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
        if dtype is np.float32:
            e32 = np.float32(edge)
            out += [np.nextafter(e32, np.float32(np.inf)),
                    np.nextafter(e32, np.float32(-np.inf))]
    return [float(dtype(v)) for v in out]


@st.composite
def rows(draw):
    """``(dtype, row, allowed)``: a one-row table whose allowed entries
    hold an exact maximum, ties and near-ties of it."""
    dtype = draw(DTYPES)
    best = float(dtype(draw(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-12, -3e-13, 1e-6, 250.0]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))))
    pool = _near_tie_candidates(best, dtype)
    row = [draw(st.one_of(st.sampled_from(pool),
                          st.floats(-1e3, 1e3, allow_nan=False,
                                    allow_infinity=False)))
           for _ in range(N_ACTIONS)]
    allowed = draw(ALLOWED)
    row[draw(st.sampled_from(allowed))] = best
    return dtype, np.asarray(row, dtype=dtype), allowed


def _table(dtype, row):
    table = QTable(1, N_ACTIONS, dtype=dtype)
    table._q[0] = row
    return table


# ---------------------------------------------------------------------- #
# the pins
# ---------------------------------------------------------------------- #

class TestRowScansMatchOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=rows())
    def test_max_value(self, case):
        dtype, row, allowed = case
        got = _table(dtype, row).max_value(0, allowed)
        assert type(got) is float
        assert bits(got) == bits(oracle_max_value(row[None], 0, allowed))

    @settings(max_examples=400, deadline=None)
    @given(case=rows())
    def test_best_action_without_rng(self, case):
        dtype, row, allowed = case
        got = _table(dtype, row).best_action(0, allowed)
        assert type(got) is int
        assert got == oracle_best_action(row[None], 0, allowed)

    @settings(max_examples=400, deadline=None)
    @given(case=rows(), epsilon=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_fixed_draw_select(self, case, epsilon, seed):
        dtype, row, allowed = case
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        got = FixedDrawEpsilonGreedy(epsilon).select(
            _table(dtype, row), 0, allowed, 0, rng)
        want = oracle_select(row[None], 0, allowed, epsilon, oracle_rng)
        assert type(got) is int
        assert got == want
        twin.random(3)
        # exactly one three-uniform block per call
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=400, deadline=None)
    @given(case=rows(), action=st.integers(0, N_ACTIONS - 1),
           target=st.floats(-1e3, 1e3, allow_nan=False,
                            allow_infinity=False),
           lr=st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                        st.floats(0.0, 1.0)))
    def test_update_toward(self, case, action, target, lr):
        dtype, row, _ = case
        table = _table(dtype, row)
        q, visits = row[None].copy(), np.zeros((1, N_ACTIONS), np.int64)
        got = table.update_toward(0, action, target, lr)
        want = oracle_update(q, visits, 0, action, target, lr)
        assert type(got) is float
        assert bits(got) == bits(want)
        assert table.values.dtype == dtype
        assert table.values.tobytes() == q.tobytes()
        assert np.array_equal(table.visit_counts, visits)


class TestChecksKept:
    def test_empty_allowed_raises_before_drawing(self):
        table = QTable(1, 3)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for call in (lambda: table.max_value(0, []),
                     lambda: table.best_action(0, []),
                     lambda: FixedDrawEpsilonGreedy(0.3).select(
                         table, 0, [], 0, rng)):
            with pytest.raises(ValueError, match="non-empty"):
                call()
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lr", [-0.1, 1.5])
    def test_learning_rate_range(self, dtype, lr):
        table = QTable(1, 3, dtype=dtype)
        with pytest.raises(ValueError, match="learning_rate"):
            table.update_toward(0, 0, 1.0, lr)
        assert table.visits(0, 0) == 0
