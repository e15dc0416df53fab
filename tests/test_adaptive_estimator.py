"""Parameter estimator tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import SlidingWindowEstimator


class TestSlidingWindow:
    def test_prior_before_data(self):
        est = SlidingWindowEstimator(window=100, prior_rate=0.3)
        assert est.estimate() == 0.3
        assert est.n_samples == 0

    def test_mle_is_window_mean(self):
        est = SlidingWindowEstimator(window=4)
        for x in (1, 0, 1, 1):
            est.update(x)
        assert est.estimate() == pytest.approx(0.75)

    def test_window_slides(self):
        est = SlidingWindowEstimator(window=2)
        est.update(1)
        est.update(1)
        est.update(0)
        est.update(0)
        assert est.estimate() == 0.0
        assert est.n_samples == 2

    def test_tracks_bernoulli_rate(self, rng):
        est = SlidingWindowEstimator(window=5000)
        for x in rng.random(20_000) < 0.27:
            est.update(bool(x))
        assert est.estimate() == pytest.approx(0.27, abs=0.02)

    def test_reset(self):
        est = SlidingWindowEstimator(window=10)
        est.update(1)
        est.reset(prior_rate=0.8)
        assert est.n_samples == 0
        assert est.estimate() == 0.8

    def test_reset_without_prior_keeps_prior(self):
        est = SlidingWindowEstimator(window=10, prior_rate=0.4)
        est.update(1)
        est.reset()
        assert est.n_samples == 0
        assert est.estimate() == 0.4

    def test_window_one_is_last_observation(self):
        est = SlidingWindowEstimator(window=1)
        for x in (1, 0, 0, 1):
            est.update(x)
            assert est.estimate() == x
        assert est.window == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowEstimator(window=0)
        with pytest.raises(ValueError):
            SlidingWindowEstimator(prior_rate=1.5)
        with pytest.raises(ValueError):
            SlidingWindowEstimator().reset(prior_rate=-0.1)

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_estimate_always_in_unit_interval(self, bits):
        est = SlidingWindowEstimator(window=10)
        for b in bits:
            est.update(b)
        assert 0.0 <= est.estimate() <= 1.0

    @given(bits=st.lists(st.booleans(), max_size=60),
           window=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_running_sum_matches_window_mean(self, bits, window):
        """The incremental sum equals a recount of the last ``window``
        observations after every update."""
        est = SlidingWindowEstimator(window=window)
        for i, b in enumerate(bits):
            est.update(b)
            recent = bits[max(0, i + 1 - window):i + 1]
            assert est.n_samples == len(recent)
            assert est.estimate() == sum(recent) / len(recent)
