"""Trace builder tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    Deterministic,
    Exponential,
    Pareto,
    Trace,
    Uniform,
    renewal_trace,
)


class TestRenewalTrace:
    def test_duration_and_rate(self, rng):
        trace = renewal_trace(Exponential(0.5), 10_000.0, rng)
        assert trace.duration == 10_000.0
        assert trace.stats().arrival_rate == pytest.approx(0.5, rel=0.05)

    def test_all_arrivals_inside_window(self, rng):
        trace = renewal_trace(Exponential(2.0), 100.0, rng)
        assert trace.arrival_times.max() < 100.0

    def test_max_requests_guard(self, rng):
        trace = renewal_trace(Exponential(100.0), 1e6, rng, max_requests=500)
        assert len(trace) == 500

    def test_bad_duration(self, rng):
        with pytest.raises(ValueError):
            renewal_trace(Exponential(1.0), 0.0, rng)


def loop_renewal_trace(dist, duration, rng, max_requests=10_000_000):
    """Reference: the per-gap Python loop that :func:`renewal_trace`
    vectorizes (same 1,024-gap batches, one float add per gap)."""
    arrivals = []
    t = 0.0
    while t < duration and len(arrivals) < max_requests:
        for g in dist.sample(rng, 1024):
            t += float(g)
            if t >= duration or len(arrivals) >= max_requests:
                break
            arrivals.append(t)
    return Trace(arrivals, duration=duration)


def assert_matches_loop(dist, duration, seed, **kwargs):
    """Same arrivals, bit for bit, and the same RNG state afterwards (a
    caller that draws its next trace from the same generator sees the
    same stream)."""
    fast_rng, loop_rng = (np.random.default_rng(seed) for _ in range(2))
    fast = renewal_trace(dist, duration, fast_rng, **kwargs)
    loop = loop_renewal_trace(dist, duration, loop_rng, **kwargs)
    assert fast.duration == loop.duration
    assert np.array_equal(fast.arrival_times, loop.arrival_times)
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
    return fast


DISTS = st.one_of(
    st.floats(0.01, 50.0).map(Exponential),
    st.sampled_from((0.25, 0.5, 1.0, 3.0, 7)).map(Deterministic),
    st.floats(0.01, 2.0).map(lambda lo: Uniform(lo, 2 * lo)),
    st.floats(1.1, 3.0).map(lambda a: Pareto(a, 0.5)),
)


class TestRenewalTraceMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(dist=DISTS, duration=st.floats(0.001, 3_000.0),
           seed=st.integers(0, 2**32 - 1),
           max_requests=st.one_of(st.none(), st.integers(0, 5_000)))
    def test_any_window_and_cap(self, dist, duration, seed, max_requests):
        kwargs = {} if max_requests is None else {"max_requests": max_requests}
        assert_matches_loop(dist, duration, seed, **kwargs)

    def test_window_shorter_than_first_gap(self):
        assert len(assert_matches_loop(Deterministic(10.0), 5.0, 0)) == 0
        assert len(assert_matches_loop(Exponential(1e-6), 1.0, 0)) == 0

    @pytest.mark.parametrize("period, duration", [
        (0.5, 100.0),    # mid-batch: the 200th arrival lands on the end
        (0.25, 256.0),   # the 1,024th gap of a batch lands on the end
        (0.25, 512.0),   # ... of the second batch
    ])
    def test_deterministic_gap_lands_on_the_window_end(self, period, duration):
        trace = assert_matches_loop(Deterministic(period), duration, 0)
        assert len(trace) == int(duration / period) - 1

    @pytest.mark.parametrize("cap", [1, 500, 1023, 1024, 1025, 2048])
    def test_cap_mid_batch_and_at_a_batch_boundary(self, cap):
        trace = assert_matches_loop(Exponential(100.0), 1e6, 3,
                                    max_requests=cap)
        assert len(trace) == cap
