"""Curve metric tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import convergence_point, latency_percentiles, switch_responses
from repro.analysis.metrics import sorted_percentiles


class TestConvergencePoint:
    def test_simple_convergence(self):
        slots = np.array([0, 10, 20, 30, 40])
        series = np.array([0.0, 0.5, 0.9, 0.95, 0.93])
        assert convergence_point(slots, series, 0.95, 0.06, sustain=2) == 20

    def test_requires_sustained_entry(self):
        slots = np.array([0, 10, 20, 30, 40])
        series = np.array([0.95, 0.0, 0.0, 0.95, 0.95])
        assert convergence_point(slots, series, 0.95, 0.01, sustain=2) == 30

    def test_never_converges(self):
        slots = np.array([0, 10])
        series = np.array([0.0, 0.1])
        assert convergence_point(slots, series, 1.0, 0.05) is None

    def test_sustain_past_end_allowed(self):
        slots = np.array([0, 10])
        series = np.array([0.0, 1.0])
        assert convergence_point(slots, series, 1.0, 0.05, sustain=5) == 10

    def test_band_edge_counts_as_inside(self):
        slots = np.array([0, 10, 20])
        series = np.array([0.0, 0.75, 0.75])
        assert convergence_point(slots, series, 1.0, 0.25, sustain=2) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_point(np.array([1]), np.array([1, 2]), 0.0, 0.1)
        with pytest.raises(ValueError):
            convergence_point(np.array([1]), np.array([1.0]), 0.0, 0.1, sustain=0)


class TestSwitchResponses:
    def test_recovery_measured_per_switch(self):
        slots = np.arange(0, 100, 10)
        series = np.array([1.0, 1.0, 1.0, 0.2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        responses = switch_responses(
            slots, series, switch_points=[30], targets=[1.0],
            tolerance=0.05, sustain=2,
        )
        assert len(responses) == 1
        resp = responses[0]
        assert resp.switch_slot == 30
        assert resp.dip == pytest.approx(0.2)
        assert resp.recovery_slot == 50
        assert resp.response_slots == 20

    def test_never_recovers(self):
        slots = np.arange(0, 50, 10)
        series = np.array([1.0, 1.0, 0.2, 0.3, 0.2])
        responses = switch_responses(
            slots, series, [20], [1.0], tolerance=0.05
        )
        assert responses[0].response_slots is None

    def test_multiple_switches_segmented(self):
        slots = np.arange(0, 120, 10)
        series = np.concatenate([
            np.full(4, 1.0),    # slots 0-30
            [0.0, 1.0, 1.0, 1.0],  # switch at 40, recovers at 50
            [0.2, 0.8, 0.8, 0.8],  # switch at 80, recovers at 90
        ])
        responses = switch_responses(
            slots, series, [40, 80], [1.0, 0.8], tolerance=0.05, sustain=2
        )
        assert responses[0].response_slots == 10
        assert responses[1].response_slots == 10

    def test_switch_without_records_reports_nothing(self):
        slots = np.arange(0, 50, 10)
        series = np.ones(5)
        resp = switch_responses(slots, series, [100], [1.0], tolerance=0.05)[0]
        assert np.isnan(resp.dip)
        assert resp.recovery_slot is None
        assert resp.response_slots is None

    def test_horizon_truncates_the_segment(self):
        slots = np.arange(0, 100, 10)
        series = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        full = switch_responses(slots, series, [20], [1.0], 0.05, sustain=2)
        cut = switch_responses(slots, series, [20], [1.0], 0.05, sustain=2,
                               horizon=50)
        assert full[0].response_slots == 30
        assert cut[0].response_slots is None  # recovery lies past slot 50
        assert cut[0].dip == 0.0

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            switch_responses(np.array([0]), np.array([1.0]), [1], [], 0.1)


class TestLatencyPercentiles:
    def test_default_tail_quantiles(self):
        from repro.analysis import TAIL_QUANTILES, latency_percentiles

        delays = np.arange(1, 101, dtype=float)  # 1..100
        p50, p95, p99 = latency_percentiles(delays)
        assert TAIL_QUANTILES == (50.0, 95.0, 99.0)
        assert p50 == pytest.approx(np.percentile(delays, 50))
        assert p95 == pytest.approx(np.percentile(delays, 95))
        assert p99 == pytest.approx(np.percentile(delays, 99))
        assert p50 <= p95 <= p99

    def test_empty_stream_yields_zeros(self):
        from repro.analysis import latency_percentiles

        assert latency_percentiles([]) == (0.0, 0.0, 0.0)

    def test_custom_quantiles_and_validation(self):
        from repro.analysis import latency_percentiles

        assert latency_percentiles([5.0, 5.0], qs=(0, 100)) == (5.0, 5.0)
        with pytest.raises(ValueError):
            latency_percentiles([1.0], qs=())
        with pytest.raises(ValueError):
            latency_percentiles([1.0], qs=(101.0,))
        with pytest.raises(ValueError):
            latency_percentiles([1.0], qs=(-1.0,))


#: the quantile sets the package asks for: the tail summary, the
#: bootstrap's 95% interval, the ends, and t = 0.5 exactly at n = 3
QS = st.sampled_from([(50.0, 95.0, 99.0), (2.5, 97.5), (0.0, 100.0), (25.0, 75.0)])
#: ties and zeros come from a small pool of values.  ``+ 0.0`` turns
#: -0.0 into 0.0: the two zeros tie, and ``np.percentile``'s partition
#: orders tied values differently from a sort (no latency or resampled
#: mean is -0.0)
VALUES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, 0.1, 0.7, 1.0, 3.0, 1e-300]),
).map(lambda x: x + 0.0)


def hexes(values):
    return [float(v).hex() for v in values]


class TestQuantileRuleMatchesNumpy:
    """:func:`sorted_percentiles` is ``np.percentile``, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(VALUES, min_size=1, max_size=300),
           qs=st.one_of(QS, st.lists(st.floats(0.0, 100.0), min_size=1,
                                     max_size=4).map(tuple)))
    @example(values=[0.1, 0.7, 3.0], qs=(25.0, 75.0))
    @example(values=[0.0], qs=(0.0, 100.0))
    @example(values=[0.5, 0.5], qs=(2.5, 97.5))
    @example(values=[0.3, 0.1], qs=(50.0, 95.0, 99.0))
    def test_bit_identical(self, values, qs):
        expected = np.percentile(np.asarray(values), qs)
        got = sorted_percentiles(np.sort(values), qs)
        assert hexes(got) == hexes(expected)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=600),
           qs=QS)
    def test_latency_percentiles_bit_identical(self, values, qs):
        assert hexes(latency_percentiles(values, qs)) == hexes(
            np.percentile(values, qs))

    def test_default_tail_on_many_streams(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 150, 151, 599, 600):
            for _ in range(20):
                values = rng.exponential(size=n)
                assert hexes(latency_percentiles(values)) == hexes(
                    np.percentile(values, (50.0, 95.0, 99.0)))

    def test_nan_yields_nan_like_numpy(self):
        values = np.sort([1.0, np.nan, 2.0])
        assert all(np.isnan(sorted_percentiles(values, (0.0, 50.0))))

    def test_non_finite_latency_refused(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="1 non-finite"):
                latency_percentiles([1.0, bad, 2.0])
