"""Change detector tests: detect true shifts, hold on stationary input."""

import numpy as np
import pytest

from repro.adaptive import BernoulliCUSUM


def feed(detector, rng, rate, n):
    """Feed n Bernoulli(rate) samples; return the first alarm index or None."""
    for i in range(n):
        if detector.update(rng.random() < rate):
            return i
    return None


class TestCUSUM:
    def test_detects_upward_shift(self, rng):
        det = BernoulliCUSUM(target_rate=0.1)
        delay = feed(det, rng, 0.5, 3000)
        assert delay is not None
        assert delay < 400

    def test_detects_downward_shift(self, rng):
        det = BernoulliCUSUM(target_rate=0.4)
        delay = feed(det, rng, 0.05, 3000)
        assert delay is not None
        assert delay < 400

    def test_bigger_shift_detected_faster(self):
        delays_small = []
        delays_big = []
        for seed in range(10):
            r = np.random.default_rng(seed)
            small = BernoulliCUSUM(0.1)
            delays_small.append(feed(small, r, 0.25, 5000) or 5000)
            r = np.random.default_rng(seed)
            big = BernoulliCUSUM(0.1)
            delays_big.append(feed(big, r, 0.8, 5000) or 5000)
        assert np.mean(delays_big) < np.mean(delays_small)

    def test_quiet_on_stationary_stream(self):
        rng = np.random.default_rng(7)
        det = BernoulliCUSUM(target_rate=0.3)
        alarms = sum(det.update(rng.random() < 0.3) for _ in range(20_000))
        assert alarms == 0

    def test_reset_rearms(self, rng):
        det = BernoulliCUSUM(0.1, drift=0.02, threshold=5.0)
        feed(det, rng, 0.9, 100)
        det.reset(0.9)
        assert det.target_rate == 0.9
        # now 0.9 is normal: no alarm
        assert feed(det, rng, 0.9, 500) is None

    def test_upward_alarm_slot_exact(self):
        # g+ gains 1 - 0 - 0.05 = 0.95 per arrival: 0.95, 1.9, 2.85 > 2
        det = BernoulliCUSUM(target_rate=0.0, drift=0.05, threshold=2.0)
        assert [det.update(True) for _ in range(3)] == [False, False, True]

    def test_downward_alarm_slot_exact(self):
        # g- gains 0.5 - 0 - 0.1 = 0.4 per empty slot: 0.4, 0.8, 1.2 > 1
        det = BernoulliCUSUM(target_rate=0.5, drift=0.1, threshold=1.0)
        assert [det.update(False) for _ in range(3)] == [False, False, True]

    def test_threshold_is_strict(self):
        det = BernoulliCUSUM(target_rate=0.0, drift=0.0, threshold=2.0)
        assert det.update(True) is False
        assert det.update(True) is False  # g+ == threshold: no alarm yet
        assert det.update(True) is True

    def test_statistics_clamp_at_zero(self):
        # five arrivals lift g+ to 2.5; five empty slots pull it back to
        # 0, not to -2.5 ... so seven more arrivals are needed to pass 3
        det = BernoulliCUSUM(target_rate=0.5, drift=0.0, threshold=3.0)
        assert not any(det.update(x) for x in [True] * 5 + [False] * 5)
        alarms = [det.update(True) for _ in range(7)]
        assert alarms == [False] * 6 + [True]

    def test_reset_without_rate_keeps_target(self):
        det = BernoulliCUSUM(target_rate=0.2, drift=0.0, threshold=1.0)
        det.update(True)  # g+ = 0.8, one arrival short of an alarm
        det.reset()
        assert det.target_rate == 0.2
        assert det.update(True) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliCUSUM(1.5)
        with pytest.raises(ValueError):
            BernoulliCUSUM(0.5, drift=-0.1)
        with pytest.raises(ValueError):
            BernoulliCUSUM(0.5, threshold=0.0)
        with pytest.raises(ValueError):
            BernoulliCUSUM(0.5).reset(target_rate=2.0)
