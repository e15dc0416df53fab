"""Bootstrap CI tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CI, bootstrap_ci


class TestBootstrapCI:
    def test_ci_contains_point_estimate(self, rng):
        samples = rng.normal(5.0, 1.0, size=200)
        ci = bootstrap_ci(samples, rng=rng)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.contains(ci.estimate)

    def test_ci_covers_true_mean_for_normal_data(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            samples = rng.normal(2.0, 1.0, size=150)
            ci = bootstrap_ci(samples, confidence=0.95, rng=rng)
            hits += ci.contains(2.0)
        assert hits >= 16  # ~95% coverage, generous slack

    def test_narrower_with_more_data(self, rng):
        small = bootstrap_ci(rng.normal(0, 1, size=20), rng=rng)
        large = bootstrap_ci(rng.normal(0, 1, size=5000), rng=rng)
        assert large.half_width < small.half_width

    def test_custom_statistic(self, rng):
        samples = rng.exponential(1.0, size=500)
        ci = bootstrap_ci(samples, statistic=np.median, rng=rng)
        assert ci.estimate == pytest.approx(np.median(samples))

    def test_single_sample_degenerate(self):
        ci = bootstrap_ci(np.array([3.0]))
        assert ci.low == ci.high == ci.estimate == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]), confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]), n_resamples=0)

    def test_str_format(self):
        ci = CI(1.0, 0.5, 1.5, 0.95)
        text = str(ci)
        assert "1" in text and "0.5" in text

    def test_deterministic_default_rng(self):
        samples = np.arange(50, dtype=float)
        a = bootstrap_ci(samples)
        b = bootstrap_ci(samples)
        assert (a.low, a.high) == (b.low, b.high)


# --------------------------------------------------------------------- #
# independent oracle: the per-resample loop, bit for bit
# --------------------------------------------------------------------- #


def _loop_ci(samples, statistic, n_resamples, confidence, seed):
    """Test-only percentile bootstrap: one ``statistic`` call per
    resample row, over the same index matrix draw."""
    samples = np.asarray(samples, dtype=float)
    point = float(statistic(samples))
    if samples.size == 1:
        return point, point, point
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, samples.size, size=(n_resamples, samples.size))
    stats = np.array([statistic(samples[row]) for row in idx])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return point, float(low), float(high)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _sample_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    shape = draw(st.sampled_from(["free", "constant", "ties"]))
    if shape == "constant":
        return np.full(n, draw(_finite))
    if shape == "ties":
        pool = draw(st.lists(_finite, min_size=1, max_size=3))
        return np.array(draw(st.lists(st.sampled_from(pool),
                                      min_size=n, max_size=n)))
    return np.array(draw(st.lists(_finite, min_size=n, max_size=n)))


class TestBootstrapOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        samples=_sample_arrays(),
        statistic=st.sampled_from([np.mean, np.median]),
        n_resamples=st.integers(min_value=1, max_value=60),
        confidence=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_resample_loop_bit_for_bit(
        self, samples, statistic, n_resamples, confidence, seed
    ):
        ci = bootstrap_ci(samples, statistic=statistic,
                          n_resamples=n_resamples, confidence=confidence,
                          rng=np.random.default_rng(seed))
        want = _loop_ci(samples, statistic, n_resamples, confidence, seed)
        assert (ci.estimate, ci.low, ci.high) == want
        assert ci.confidence == confidence

    def test_default_resample_count_matches_loop(self, rng):
        samples = rng.exponential(2.0, size=32)
        for statistic in (np.mean, np.median):
            ci = bootstrap_ci(samples, statistic=statistic)
            assert (ci.estimate, ci.low, ci.high) == _loop_ci(
                samples, statistic, 2000, 0.95, 0)

    def test_statistic_without_axis_raises(self):
        with pytest.raises(TypeError):
            bootstrap_ci(np.arange(5.0), statistic=lambda x: float(x.mean()))
