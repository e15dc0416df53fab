"""Q-table tests, including the Eqn.-3 update contraction property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QTable


class TestConstruction:
    def test_shape_and_init(self):
        table = QTable(4, 3, initial_value=-1.5)
        assert table.n_observations == 4
        assert table.n_actions == 3
        assert table.get(2, 1) == -1.5

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            QTable(0, 3)
        with pytest.raises(ValueError):
            QTable(3, 0)

    def test_float32_memory(self):
        small = QTable(100, 4, dtype=np.float32)
        big = QTable(100, 4, dtype=np.float64)
        assert small.memory_bytes() == big.memory_bytes() // 2


class TestUpdate:
    def test_update_toward_formula(self):
        table = QTable(2, 2)
        table.set(0, 1, 10.0)
        delta = table.update_toward(0, 1, 20.0, learning_rate=0.25)
        assert table.get(0, 1) == pytest.approx(12.5)
        assert delta == pytest.approx(2.5)

    def test_visit_counting(self):
        table = QTable(2, 2)
        assert table.visits(0, 0) == 0
        table.update_toward(0, 0, 1.0, 0.5)
        table.update_toward(0, 0, 1.0, 0.5)
        assert table.visits(0, 0) == 2
        assert table.visits(1, 1) == 0

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            QTable(1, 1).update_toward(0, 0, 1.0, 1.5)

    def test_lr_one_jumps_to_target(self):
        table = QTable(1, 1, initial_value=5.0)
        table.update_toward(0, 0, -3.0, 1.0)
        assert table.get(0, 0) == -3.0

    def test_lr_zero_is_noop(self):
        table = QTable(1, 1, initial_value=5.0)
        assert table.update_toward(0, 0, 100.0, 0.0) == 0.0
        assert table.get(0, 0) == 5.0

    @given(
        target=st.floats(min_value=-100, max_value=100),
        lr=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_repeated_updates_converge_to_target(self, target, lr):
        """The relaxation update is a contraction toward a fixed target."""
        table = QTable(1, 1, initial_value=0.0)
        for _ in range(2000):
            table.update_toward(0, 0, target, lr)
        assert table.get(0, 0) == pytest.approx(target, abs=1e-3 + 1e-3 * abs(target))


class TestSelection:
    def test_best_action_masked(self):
        table = QTable(1, 3)
        table.set(0, 0, 1.0)
        table.set(0, 1, 5.0)
        table.set(0, 2, 3.0)
        assert table.best_action(0, [0, 2]) == 2  # action 1 not allowed

    def test_best_action_empty_raises(self):
        with pytest.raises(ValueError):
            QTable(1, 2).best_action(0, [])

    def test_tie_break_deterministic_without_rng(self):
        table = QTable(1, 3)
        assert table.best_action(0, [2, 0, 1]) == 2  # first in allowed order

    def test_tie_break_random_with_rng(self):
        table = QTable(1, 3)
        rng = np.random.default_rng(0)
        picks = {table.best_action(0, [0, 1, 2], rng=rng) for _ in range(50)}
        assert len(picks) > 1

    def test_max_value(self):
        table = QTable(1, 3)
        table.set(0, 1, 7.0)
        assert table.max_value(0, [0, 1]) == 7.0
        assert table.max_value(0, [0, 2]) == 0.0

    def test_near_best_keeps_allowed_order_within_tolerance(self):
        table = QTable(1, 4)
        table.set(0, 0, 1.0)
        table.set(0, 1, 0.99)
        table.set(0, 2, 0.5)
        table.set(0, 3, 1.0)
        assert table.near_best(0, [3, 2, 1, 0]) == [3, 0]
        assert table.near_best(0, [3, 2, 1, 0], tolerance=0.05) == [3, 1, 0]
        assert table.best_action(0, [1, 2]) == 1

    def test_max_value_empty_raises(self):
        with pytest.raises(ValueError):
            QTable(1, 2).max_value(0, [])


class TestCopy:
    def test_copy_is_independent(self):
        table = QTable(2, 2)
        table.update_toward(0, 0, 5.0, 1.0)
        clone = table.copy()
        clone.update_toward(0, 0, -5.0, 1.0)
        assert table.get(0, 0) == 5.0
        assert clone.get(0, 0) == -5.0
        assert clone.visits(0, 0) == 2

    def test_values_returns_copy(self):
        table = QTable(1, 1)
        values = table.values
        values[0, 0] = 99.0
        assert table.get(0, 0) == 0.0
