"""Rate schedule tests (Fig. 2's switching input and the sinusoidal drift)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    ConstantRate,
    PiecewiseConstantRate,
    SinusoidalRate,
)


class TestConstantRate:
    def test_rate_everywhere(self):
        schedule = ConstantRate(0.3)
        assert schedule.rate_at(0) == 0.3
        assert schedule.rate_at(10**9) == 0.3
        assert schedule.switch_points(1000) == []
        assert schedule.mean_rate(1000) == 0.3
        assert schedule.max_rate(1000) == 0.3

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ConstantRate(1.5)
        with pytest.raises(ValueError):
            ConstantRate(-0.1)


class TestPiecewiseConstant:
    def make(self):
        return PiecewiseConstantRate([(100, 0.3), (200, 0.1), (100, 0.5)])

    def test_rates_per_segment(self):
        s = self.make()
        assert s.rate_at(0) == 0.3
        assert s.rate_at(99) == 0.3
        assert s.rate_at(100) == 0.1
        assert s.rate_at(299) == 0.1
        assert s.rate_at(300) == 0.5

    def test_final_rate_holds_forever(self):
        assert self.make().rate_at(10_000) == 0.5

    def test_switch_points(self):
        assert self.make().switch_points(400) == [100, 300]
        assert self.make().switch_points(200) == [100]

    def test_total_slots(self):
        assert self.make().total_slots == 400

    def test_segment_index(self):
        s = self.make()
        assert s.segment_index_at(0) == 0
        assert s.segment_index_at(150) == 1
        assert s.segment_index_at(999) == 2
        with pytest.raises(ValueError):
            s.segment_index_at(-1)

    def test_mean_rate_exact(self):
        s = self.make()
        expected = (100 * 0.3 + 200 * 0.1 + 100 * 0.5) / 400
        assert s.mean_rate(400) == pytest.approx(expected)

    def test_mean_rate_beyond_end_uses_final(self):
        s = PiecewiseConstantRate([(100, 0.2)])
        assert s.mean_rate(200) == pytest.approx(0.2)

    def test_max_rate(self):
        assert self.make().max_rate(400) == 0.5

    def test_mean_rate_partial_horizon(self):
        # first 150 slots: 100 at 0.3, then 50 at 0.1
        expected = (100 * 0.3 + 50 * 0.1) / 150
        assert self.make().mean_rate(150) == pytest.approx(expected)

    def test_mean_rate_zero_horizon_is_first_rate(self):
        assert self.make().mean_rate(0) == 0.3

    def test_switch_points_exclude_the_final_end(self):
        # the last segment holds forever, so its end is no switch
        assert self.make().switch_points(10_000) == [100, 300]

    def test_segments_is_a_copy(self):
        s = self.make()
        s.segments.append((50, 0.9))
        assert s.total_slots == 400
        assert len(s.segments) == 3

    @given(
        segments=st.lists(
            st.tuples(st.integers(1, 40), st.sampled_from((0.0, 0.25, 0.5, 1.0))),
            min_size=1, max_size=5,
        ),
        horizon=st.integers(1, 250),
    )
    @settings(max_examples=80, deadline=None)
    def test_mean_rate_matches_per_slot_average(self, segments, horizon):
        s = PiecewiseConstantRate(segments)
        brute = sum(s.rate_at(t) for t in range(horizon)) / horizon
        assert s.mean_rate(horizon) == pytest.approx(brute)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantRate([])
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(0, 0.5)])
        with pytest.raises(ValueError):
            PiecewiseConstantRate([(10, 1.5)])


class TestSinusoidal:
    def test_oscillates_around_base(self):
        s = SinusoidalRate(0.3, 0.1, period=100)
        values = [s.rate_at(t) for t in range(100)]
        assert max(values) == pytest.approx(0.4, abs=0.01)
        assert min(values) == pytest.approx(0.2, abs=0.01)
        assert np.mean(values) == pytest.approx(0.3, abs=0.01)

    def test_clipped_to_unit_interval(self):
        s = SinusoidalRate(0.9, 0.5, period=10)
        assert all(0.0 <= s.rate_at(t) <= 1.0 for t in range(30))

    def test_peak_and_trough_clip_exactly(self):
        high = SinusoidalRate(0.9, 0.5, period=8)
        assert high.rate_at(2) == 1.0  # quarter period: 0.9 + 0.5
        assert high.max_rate(8) == 1.0
        low = SinusoidalRate(0.2, 0.5, period=8)
        assert low.rate_at(6) == 0.0  # three quarters: 0.2 - 0.5
        assert low.max_rate(8) == pytest.approx(0.7)

    def test_periodic(self):
        s = SinusoidalRate(0.4, 0.2, period=37)
        for t in range(0, 200, 13):
            assert s.rate_at(t + 37) == pytest.approx(s.rate_at(t))

    def test_validation(self):
        with pytest.raises(ValueError):
            SinusoidalRate(1.5, 0.1, 10)
        with pytest.raises(ValueError):
            SinusoidalRate(0.5, -0.1, 10)
        with pytest.raises(ValueError):
            SinusoidalRate(0.5, 0.1, 0)

    @given(
        base=st.floats(min_value=0, max_value=1),
        amplitude=st.floats(min_value=0, max_value=1),
        slot=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_a_probability(self, base, amplitude, slot):
        s = SinusoidalRate(base, amplitude, period=1000)
        assert 0.0 <= s.rate_at(slot) <= 1.0
