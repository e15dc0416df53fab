"""Trace container tests, including property-based CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import Trace


class TestConstruction:
    def test_basic(self):
        trace = Trace([1.0, 2.0, 5.0])
        assert len(trace) == 3
        assert trace.duration == 5.0

    def test_explicit_duration(self):
        assert Trace([1.0], duration=10.0).duration == 10.0

    def test_empty_trace(self):
        trace = Trace([], duration=4.0)
        assert len(trace) == 0
        assert trace.duration == 4.0

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace([2.0, 1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Trace([-1.0, 2.0])

    def test_duration_before_last_arrival_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Trace([5.0], duration=3.0)

    def test_demand_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="service_demands"):
            Trace([1.0, 2.0], service_demands=[0.5])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Trace([1.0], service_demands=[-0.5])

    @pytest.mark.parametrize("times", [[1.0, np.nan], [np.nan], [1.0, np.inf]])
    def test_non_finite_arrival_rejected(self, times):
        with pytest.raises(ValueError, match="arrival_times must be finite"):
            Trace(times, duration=5.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            Trace([], duration=duration)
        with pytest.raises(ValueError, match="duration"):
            Trace([1.0], duration=duration)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_demand_rejected(self, bad):
        with pytest.raises(ValueError, match="service_demands must be finite"):
            Trace([1.0, 2.0], duration=5.0, service_demands=[0.5, bad])

    def test_files_with_non_finite_values_rejected(self, tmp_path):
        for text in ("# duration=nan\narrival_time,service_demand\n1.0,\n",
                     "# duration=5.0\narrival_time,service_demand\nnan,\n",
                     "# duration=5.0\narrival_time,service_demand\n1.0,nan\n"):
            with pytest.raises(ValueError, match="finite"):
                Trace.from_csv(text)
            path = tmp_path / "trace.csv"
            path.write_text(text)
            with pytest.raises(ValueError, match="finite"):
                Trace.load(str(path))

    def test_iteration(self):
        assert list(Trace([1.0, 2.0])) == [1.0, 2.0]


class TestDerived:
    def test_interarrivals_from_zero(self):
        gaps = Trace([1.0, 3.0, 6.0]).interarrivals()
        assert gaps.tolist() == [1.0, 2.0, 3.0]

    def test_interarrivals_empty(self):
        assert Trace([], duration=1.0).interarrivals().size == 0

    def test_idle_periods_zero_service(self):
        idle = Trace([1.0, 3.0], duration=5.0).idle_periods(0.0)
        assert idle.tolist() == [1.0, 2.0, 2.0]

    def test_idle_periods_with_service(self):
        idle = Trace([1.0, 3.0], duration=5.0).idle_periods(0.5)
        assert idle.tolist() == pytest.approx([1.0, 1.5, 1.5])

    def test_idle_periods_back_to_back_clipped(self):
        # second request arrives before first finishes -> zero idle
        idle = Trace([1.0, 1.2], duration=5.0).idle_periods(0.5)
        assert idle[1] == 0.0

    def test_idle_periods_empty_trace(self):
        assert Trace([], duration=3.0).idle_periods().tolist() == [3.0]

    def test_idle_periods_negative_service_rejected(self):
        with pytest.raises(ValueError):
            Trace([1.0]).idle_periods(-0.1)

    def test_stats_poisson_cv_near_one(self, rng):
        times = np.cumsum(rng.exponential(1.0, size=20_000))
        stats = Trace(times).stats()
        assert stats.cv_interarrival == pytest.approx(1.0, abs=0.05)
        assert stats.arrival_rate == pytest.approx(1.0, rel=0.05)

    def test_stats_empty(self):
        stats = Trace([], duration=2.0).stats()
        assert stats.n_requests == 0
        assert stats.arrival_rate == 0.0


class TestManipulation:
    def test_slice_rebased(self):
        sub = Trace([1.0, 3.0, 6.0], duration=8.0).slice(2.0, 7.0)
        assert sub.arrival_times.tolist() == [1.0, 4.0]
        assert sub.duration == 5.0

    def test_slice_bad_range(self):
        with pytest.raises(ValueError):
            Trace([1.0], duration=2.0).slice(1.5, 0.5)

    def test_concat_shifts(self):
        a = Trace([1.0], duration=2.0)
        b = Trace([0.5], duration=1.0)
        joined = a.concat(b)
        assert joined.arrival_times.tolist() == [1.0, 2.5]
        assert joined.duration == 3.0

    def test_concat_preserves_demands(self):
        a = Trace([1.0], duration=2.0, service_demands=[0.3])
        b = Trace([0.5], duration=1.0)
        joined = a.concat(b)
        assert joined.service_demands.tolist() == [0.3, 0.0]

    def test_merge_sorts(self):
        merged = Trace.merge(
            [Trace([1.0, 4.0], duration=5.0), Trace([2.0], duration=3.0)]
        )
        assert merged.arrival_times.tolist() == [1.0, 2.0, 4.0]
        assert merged.duration == 5.0


class TestSerialization:
    def test_roundtrip_with_demands(self):
        trace = Trace([0.5, 1.5], duration=3.0, service_demands=[0.1, 0.2])
        clone = Trace.from_csv(trace.to_csv())
        assert clone.arrival_times.tolist() == [0.5, 1.5]
        assert clone.service_demands.tolist() == [0.1, 0.2]
        assert clone.duration == 3.0

    def test_roundtrip_without_demands(self):
        trace = Trace([0.5, 1.5], duration=3.0)
        clone = Trace.from_csv(trace.to_csv())
        assert clone.service_demands is None

    def test_save_load(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = Trace([1.0, 2.0], duration=4.0)
        trace.save(str(path))
        assert Trace.load(str(path)).arrival_times.tolist() == [1.0, 2.0]

    @given(
        times=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_csv_roundtrip_property(self, times):
        trace = Trace(sorted(times))
        clone = Trace.from_csv(trace.to_csv())
        assert np.allclose(clone.arrival_times, trace.arrival_times)
        assert clone.duration == pytest.approx(trace.duration)
