"""Fault model: seeded schedules, interval conventions, determinism.

The contract under test is the one the failure-aware routing loop
builds on: a schedule is a pure function of ``(seed, n_devices,
horizon)``, a device is down on ``[start, end)`` exactly, and the
whole-array ``severity_rows`` lookup agrees with the point queries bit
for bit at every query instant.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    FaultProcess,
    FaultSchedule,
    no_faults,
    resolve_fault_schedule,
)


def down_mask(sched, times):
    """Fail-stop mask ``(T, n_devices)``: the infinite severities."""
    return np.isinf(sched.severity_rows(times))


class TestFaultSchedule:
    def test_interval_convention_half_open(self):
        sched = FaultSchedule([[(2.0, 5.0)]], horizon=10.0)
        assert not sched.is_down(0, 1.999)
        assert sched.is_down(0, 2.0)          # down at the failure instant
        assert sched.is_down(0, 4.999)
        assert not sched.is_down(0, 5.0)      # up at the repair instant
        assert not sched.is_down(0, 9.0)

    def test_alive_mask_matches_is_down(self):
        # device 3: a brownout, then an adjacent outage, then another
        sched = FaultSchedule(
            [[(1.0, 3.0)], [], [(0.5, 2.0), (4.0, 6.0)],
             [(0.0, 1.0, 2.0), (1.0, 3.0), (3.0, 4.0)]], horizon=10.0
        )
        for t in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.5, 6.0, 9.9):
            expected = [not sched.is_down(d, t) for d in range(4)]
            assert sched.alive_mask(t).tolist() == expected

    def test_availability_and_down_time(self):
        sched = FaultSchedule([[(0.0, 2.0), (6.0, 8.0)], []], horizon=10.0)
        assert sched.down_time(0) == pytest.approx(4.0)
        assert sched.down_time(1) == 0.0
        assert sched.availability() == pytest.approx([0.6, 1.0])

    def test_all_down_at(self):
        sched = FaultSchedule([[(1.0, 2.0)], [(1.5, 3.0)]], horizon=5.0)
        assert not sched.all_down_at(0.0)
        assert sched.all_down_at(1.5)
        assert not sched.all_down_at(2.5)

    @pytest.mark.parametrize("bad", [
        [[(2.0, 1.0)]],             # start >= end
        [[(-1.0, 1.0)]],            # before the window
        [[(0.0, 11.0)]],            # past the horizon
        [[(0.0, 3.0), (2.0, 4.0)]], # overlapping
        [[(4.0, 5.0), (1.0, 2.0)]], # unsorted
    ])
    def test_invalid_intervals_raise(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule(bad, horizon=10.0)

    def test_empty_fleet_and_horizon_raise(self):
        with pytest.raises(ValueError):
            FaultSchedule([], horizon=10.0)
        with pytest.raises(ValueError):
            FaultSchedule([[]], horizon=0.0)

    def test_no_faults_helper(self):
        sched = no_faults(3, 100.0)
        assert sched.availability().tolist() == [1.0, 1.0, 1.0]
        assert sched.alive_mask(50.0).all()


class TestBrownoutSeverity:
    """Satellite + tentpole surface: intervals may carry a severity
    (service-demand multiplier >= 1.0); infinity means fail-stop, and
    only fail-stop intervals count as *down*."""

    def test_bare_intervals_are_fail_stop(self):
        sched = FaultSchedule([[(1.0, 3.0)]], horizon=10.0)
        assert not sched.has_brownouts
        assert sched.severity_at(0, 2.0) == float("inf")
        assert sched.is_down(0, 2.0)

    def test_brownout_interval_is_degraded_not_down(self):
        sched = FaultSchedule([[(1.0, 3.0, 4.0)]], horizon=10.0)
        assert sched.has_brownouts
        assert not sched.is_down(0, 2.0)
        assert sched.alive_mask(2.0).all()
        assert sched.severity_at(0, 2.0) == 4.0
        assert sched.severity_at(0, 0.5) == 1.0   # outside: nominal
        assert sched.severity_at(0, 3.0) == 1.0   # half-open [start, end)
        assert sched.down_time(0) == 0.0
        assert sched.availability().tolist() == [1.0]

    def test_mixed_intervals_split_accounting(self):
        sched = FaultSchedule(
            [[(1.0, 2.0, 2.0), (4.0, 6.0)]], horizon=10.0)
        assert sched.has_brownouts
        assert sched.down_time(0) == pytest.approx(2.0)
        assert sched.interval_severities(0) == [2.0, float("inf")]
        assert sched.availability().tolist() == [0.8]

    @pytest.mark.parametrize("bad", [
        [[(1.0, 2.0, 0.5)]],               # severity < 1
        [[(1.0, 2.0, 0.0)]],
        [[(1.0, 2.0, -3.0)]],
        [[(1.0, 2.0, float("nan"))]],
        [[(1.0, 2.0, 3.0, 4.0)]],          # not a pair/triple
        [[(1.0,)]],
    ])
    def test_invalid_severity_raises(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule(bad, horizon=10.0)


class TestDownMaskVectorized:
    """The fail-stop mask ``isinf(severity_rows(times))`` is one
    searchsorted sweep per device; it must agree with per-instant
    ``is_down`` point queries on every boundary convention."""

    def test_matches_point_queries(self):
        sched = FaultSchedule(
            [[(1.0, 3.0), (5.0, 7.0, 2.0)], [], [(0.5, 2.0), (4.0, 6.0)]],
            horizon=10.0,
        )
        times = np.array([0.0, 0.5, 1.0, 1.999, 2.0, 3.0, 4.0, 5.0, 6.0,
                          6.999, 7.0, 9.9])
        mask = down_mask(sched, times)
        assert mask.shape == (times.size, 3)
        for i, t in enumerate(times):
            for d in range(3):
                assert mask[i, d] == sched.is_down(d, float(t)), (t, d)

    def test_unsorted_and_repeated_query_times(self):
        sched = FaultSchedule([[(2.0, 5.0)]], horizon=10.0)
        times = np.array([9.0, 2.0, 2.0, 1.0, 4.999, 5.0])
        assert down_mask(sched, times)[:, 0].tolist() == [
            False, True, True, False, True, False]

    def test_brownouts_never_masked_down(self):
        sched = FaultSchedule([[(0.0, 10.0, 100.0)]], horizon=10.0)
        times = np.linspace(0.0, 9.9, 23)
        assert not down_mask(sched, times).any()

    def test_empty_times_and_empty_device(self):
        sched = FaultSchedule([[(1.0, 2.0)], []], horizon=10.0)
        assert down_mask(sched, np.array([])).shape == (0, 2)
        assert not down_mask(sched, np.array([1.5]))[:, 1].any()

    def test_random_schedules_fuzz(self):
        rng = np.random.default_rng(424242)
        for trial in range(25):
            proc = FaultProcess(
                mtbf=float(rng.uniform(3.0, 30.0)),
                mttr=float(rng.uniform(1.0, 10.0)),
                severity=(float(rng.uniform(1.0, 8.0))
                          if trial % 3 == 0 else float("inf")),
            )
            sched = proc.realize(3, 200.0, seed=trial)
            times = rng.uniform(-5.0, 205.0, size=64)
            mask = down_mask(sched, times)
            for i, t in enumerate(times):
                for d in range(3):
                    assert mask[i, d] == sched.is_down(d, float(t))


class TestSeverityRows:
    """``severity_rows(times)`` is the whole-trace first-attempt lookup
    of the fault-aware routing loop: every entry must equal the
    ``severity_at`` point query bit for bit, and its infinite entries
    must be exactly the devices ``alive_mask`` reports down."""

    @staticmethod
    def assert_matches_point_queries(sched, times):
        rows = sched.severity_rows(times)
        assert rows.shape == (times.size, sched.n_devices)
        assert rows.dtype == np.float64
        for k, t in enumerate(times.tolist()):
            for d in range(sched.n_devices):
                want = np.float64(sched.severity_at(d, t))
                assert rows[k, d].tobytes() == want.tobytes(), (t, d)
            assert np.array_equal(np.isinf(rows[k]), ~sched.alive_mask(t))

    def test_adjacent_intervals_and_exact_boundaries(self):
        # device 0: fail-stop then brownout then fail-stop, each ending
        # exactly where the next starts; device 1 has no intervals;
        # device 2 a brownout touching the horizon's end
        sched = FaultSchedule(
            [[(1.0, 2.0), (2.0, 3.0, 2.5), (3.0, 4.0)], [],
             [(0.0, 1.0, 1.0), (6.0, 10.0, 4.0)]],
            horizon=10.0,
        )
        edges = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0]
        times = np.array(sorted(
            edges
            + [np.nextafter(e, -np.inf) for e in edges]
            + [np.nextafter(e, np.inf) for e in edges]
            + [-1.0, 5.0, 11.0]
        ))
        self.assert_matches_point_queries(sched, times)
        rows = sched.severity_rows(np.array([1.0, 2.0, 3.0, 4.0]))
        assert rows[:, 0].tolist() == [np.inf, 2.5, np.inf, 1.0]
        assert rows[:, 1].tolist() == [1.0] * 4

    def test_empty_times_and_fleet_without_faults(self):
        assert FaultSchedule([[(1.0, 2.0)], []], 10.0).severity_rows(
            np.array([])).shape == (0, 2)
        rows = no_faults(3, 10.0).severity_rows(np.array([0.0, 5.0]))
        assert rows.tolist() == [[1.0] * 3] * 2

    def test_interval_free_schedule_builds_no_table(self):
        sched = FaultSchedule([[], [], [], []], horizon=5.0)
        times = np.array([-1.0, 0.0, 2.5, 5.0, 6.0])
        self.assert_matches_point_queries(sched, times)
        rows = sched.severity_rows(times)
        assert rows.strides == (0, 0) and not rows.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(
        spans=st.lists(
            st.lists(
                st.tuples(st.integers(1, 4),
                          st.sampled_from([math.inf, 1.0, 1.5, 3.0])),
                max_size=5,
            ),
            min_size=1, max_size=3,
        ),
        gaps=st.lists(st.integers(0, 2), min_size=15, max_size=15),
        ticks=st.lists(st.integers(-2, 82), max_size=30),
    )
    def test_random_schedules_match_point_queries(self, spans, gaps, ticks):
        """Intervals on a quarter-second grid, often exactly adjacent
        (gap 0), queried on the same grid: every start and end is hit."""
        intervals = []
        gap = iter(gaps)
        for device_spans in spans:
            t = 0
            device = []
            for length, sev in device_spans:
                t += next(gap)
                device.append((t * 0.25, (t + length) * 0.25, sev))
                t += length
            intervals.append(device)
        sched = FaultSchedule(intervals, horizon=20.0)
        times = np.array(ticks, dtype=np.float64) * 0.25
        self.assert_matches_point_queries(sched, times)


class TestTransitionsAvailabilityOracle:
    """Property-style fuzz: availability() must agree with a brute-force
    per-timestep oracle on randomized interval sets, including adjacent
    and near-zero-length intervals."""

    def _random_schedule(self, rng, horizon=50.0):
        """Random sorted, non-overlapping intervals per device, with
        adjacent (end == next start) pairs and tiny intervals thrown
        in, and a random subset made brownouts."""
        n_devices = int(rng.integers(1, 5))
        intervals = []
        for _ in range(n_devices):
            cuts = np.sort(rng.uniform(0.0, horizon, size=2 * int(
                rng.integers(0, 5))))
            dev = []
            for s, e in zip(cuts[::2], cuts[1::2]):
                if e <= s:
                    continue
                if rng.random() < 0.25:
                    dev.append((float(s), float(e),
                                float(rng.uniform(1.0, 6.0))))
                else:
                    dev.append((float(s), float(e)))
            # occasionally make two intervals exactly adjacent
            if len(dev) >= 2 and rng.random() < 0.5:
                s0, e0 = dev[0][0], dev[0][1]
                dev[1] = (e0, dev[1][1]) if dev[1][1] > e0 else dev[1]
                dev = [d for d in dev if d[1] > d[0]]
                dev.sort()
            intervals.append(dev)
        return FaultSchedule(intervals, horizon=horizon)

    def test_availability_matches_riemann_oracle(self):
        rng = np.random.default_rng(7)
        grid = np.arange(0.0, 50.0, 0.01)
        for _ in range(10):
            sched = self._random_schedule(rng)
            availability = sched.availability()
            down = down_mask(sched, grid)
            for d in range(sched.n_devices):
                oracle = 1.0 - down[:, d].mean()
                assert availability[d] == pytest.approx(oracle, abs=2e-3)

    def test_overlapping_random_intervals_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule([[(0.0, 3.0, 2.0), (2.0, 4.0)]], horizon=10.0)
        with pytest.raises(ValueError):
            FaultSchedule([[(1.0, 1.0)]], horizon=10.0)  # zero-length


class TestFaultProcess:
    def test_realize_is_pure_function_of_seed(self):
        proc = FaultProcess(mtbf=50.0, mttr=5.0)
        a = proc.realize(4, 1_000.0, seed=7)
        b = proc.realize(4, 1_000.0, seed=7)
        for d in range(4):
            assert a.intervals(d) == b.intervals(d)
        c = proc.realize(4, 1_000.0, seed=8)
        assert any(a.intervals(d) != c.intervals(d) for d in range(4))

    def test_per_device_streams_independent_of_fleet_size(self):
        """Device d's fault history is keyed (seed, d): growing the
        fleet never perturbs existing devices' schedules."""
        proc = FaultProcess(mtbf=30.0, mttr=4.0)
        small = proc.realize(2, 500.0, seed=3)
        large = proc.realize(8, 500.0, seed=3)
        for d in range(2):
            assert small.intervals(d) == large.intervals(d)

    def test_deterministic_schedule_is_exact_and_correlated(self):
        proc = FaultProcess(mtbf=10.0, mttr=2.0, deterministic=True)
        sched = proc.realize(3, 25.0, seed=0)
        expected = [(10.0, 12.0), (22.0, 24.0)]
        for d in range(3):
            assert sched.intervals(d) == expected

    def test_exponential_means_are_plausible(self):
        proc = FaultProcess(mtbf=100.0, mttr=10.0)
        sched = proc.realize(64, 100_000.0, seed=1)
        spans = [e - s for d in range(64) for s, e in sched.intervals(d)]
        # repair-interval mean ~ mttr (loose 3-sigma-ish bounds)
        assert 8.0 < float(np.mean(spans)) < 12.0
        # availability ~ mtbf / (mtbf + mttr) = 0.909
        assert 0.88 < float(sched.availability().mean()) < 0.94

    def test_start_down_cohort(self):
        proc = FaultProcess(
            mtbf=1e6, mttr=5.0, deterministic=True, start_down=0.5
        )
        sched = proc.realize(4, 100.0, seed=0)
        assert sched.is_down(0, 0.0) and sched.is_down(1, 0.0)
        assert not sched.is_down(2, 0.0) and not sched.is_down(3, 0.0)
        assert not sched.is_down(0, 5.0)  # repaired after mttr exactly

    def test_intervals_clipped_to_horizon(self):
        proc = FaultProcess(mtbf=8.0, mttr=100.0, deterministic=True)
        sched = proc.realize(1, 10.0, seed=0)
        assert sched.intervals(0) == [(8.0, 10.0)]

    @pytest.mark.parametrize("kwargs", [
        {"mtbf": 0.0, "mttr": 1.0},
        {"mtbf": -1.0, "mttr": 1.0},
        {"mtbf": 1.0, "mttr": 0.0},
        {"mtbf": 1.0, "mttr": -2.0},
        {"mtbf": 1.0, "mttr": 1.0, "start_down": 1.0},
        {"mtbf": 1.0, "mttr": 1.0, "start_down": -0.1},
        {"mtbf": 1.0, "mttr": 1.0, "severity": 0.5},
        {"mtbf": 1.0, "mttr": 1.0, "severity": float("nan")},
        {"mtbf": float("nan"), "mttr": 1.0},
        {"mtbf": 1.0, "mttr": float("nan")},
    ])
    def test_invalid_process_raises(self, kwargs):
        with pytest.raises(ValueError):
            FaultProcess(**kwargs)

    def test_brownout_process_realizes_brownout_schedule(self):
        proc = FaultProcess(mtbf=20.0, mttr=5.0, severity=3.0)
        sched = proc.realize(2, 500.0, seed=4)
        assert sched.has_brownouts
        assert sched.availability().tolist() == [1.0, 1.0]
        sevs = [s for d in range(2) for s in sched.interval_severities(d)]
        assert sevs and all(s == 3.0 for s in sevs)

    def test_severity_does_not_perturb_interval_stream(self):
        """The severity tag rides along without extra RNG draws: the
        same seed yields the same intervals fail-stop or brownout."""
        fail_stop = FaultProcess(mtbf=20.0, mttr=5.0).realize(
            3, 500.0, seed=9)
        brownout = FaultProcess(mtbf=20.0, mttr=5.0, severity=2.5).realize(
            3, 500.0, seed=9)
        for d in range(3):
            assert fail_stop.intervals(d) == brownout.intervals(d)


class TestResolveFaultSchedule:
    def test_passthrough_and_realize(self):
        sched = no_faults(2, 10.0)
        assert resolve_fault_schedule(sched, 2, 10.0) is sched
        proc = FaultProcess(mtbf=5.0, mttr=1.0)
        realized = resolve_fault_schedule(proc, 3, 10.0, seed=4)
        assert isinstance(realized, FaultSchedule)
        assert realized.n_devices == 3
        assert resolve_fault_schedule(None, 2, 10.0) is None

    def test_device_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="2 devices"):
            resolve_fault_schedule(no_faults(2, 10.0), 4, 10.0)

    def test_wrong_type_raises(self):
        with pytest.raises(TypeError):
            resolve_fault_schedule(0.5, 2, 10.0)

    @pytest.mark.parametrize("n_devices", (2.5, math.nan, math.inf))
    def test_non_integral_count_rejected(self, n_devices):
        """A fractional, NaN or infinite fleet size is refused, never
        truncated into a match with a schedule's device count."""
        schedule = FaultSchedule([[(1.0, 2.0)], []], 10.0)
        with pytest.raises(ValueError, match="n_devices must be an integer"):
            resolve_fault_schedule(schedule, n_devices, 10.0)
        with pytest.raises(ValueError, match="n_devices must be an integer"):
            resolve_fault_schedule(FaultProcess(mtbf=5.0, mttr=1.0),
                                   n_devices, 10.0)
