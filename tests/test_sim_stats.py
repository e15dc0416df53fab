"""Simulator accounting tests."""

import pytest

from repro.sim import EnergyMeter, IdleTracker, LatencyTracker


class TestEnergyMeter:
    def test_piecewise_integration(self):
        meter = EnergyMeter()
        meter.set_condition(0.0, 2.0, "on")     # 2 W from t=0
        meter.set_condition(3.0, 0.5, "idle")   # 0.5 W from t=3
        meter.finish(7.0)
        assert meter.total_energy == pytest.approx(2.0 * 3 + 0.5 * 4)
        assert meter.residency["on"] == pytest.approx(3.0)
        assert meter.residency["idle"] == pytest.approx(4.0)

    def test_lump_energy(self):
        meter = EnergyMeter()
        meter.set_condition(0.0, 0.0, "off")
        meter.add_lump(5.0)
        meter.finish(10.0)
        assert meter.total_energy == pytest.approx(5.0)

    def test_negative_lump_rejected(self):
        with pytest.raises(ValueError):
            EnergyMeter().add_lump(-1.0)

    def test_time_reversal_rejected(self):
        meter = EnergyMeter()
        meter.set_condition(5.0, 1.0, "on")
        with pytest.raises(ValueError, match="backwards"):
            meter.set_condition(4.0, 1.0, "on")

    def test_zero_span_ok(self):
        meter = EnergyMeter()
        meter.set_condition(1.0, 3.0, "a")
        meter.set_condition(1.0, 2.0, "b")
        meter.finish(1.0)
        assert meter.total_energy == 0.0


class TestLatencyTracker:
    def test_statistics(self):
        tracker = LatencyTracker()
        for latency in (1.0, 2.0, 3.0, 10.0):
            tracker.record(0.0, latency)
        assert tracker.count == 4
        assert tracker.values == [1.0, 2.0, 3.0, 10.0]

    def test_completion_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            LatencyTracker().record(5.0, 4.0)


class TestIdleTracker:
    def test_wrong_shutdown_detection(self):
        tracker = IdleTracker()
        tracker.record_shutdown(idle_length=1.0, break_even=2.0)  # wrong
        tracker.record_shutdown(idle_length=5.0, break_even=2.0)  # right
        tracker.record_shutdown(idle_length=None, break_even=2.0)  # unknown
        assert tracker.n_shutdowns == 3
        assert tracker.n_wrong_shutdowns == 1
