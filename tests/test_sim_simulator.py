"""Event-driven simulator tests against hand-computed scenarios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AlwaysOn,
    FixedTimeout,
    GreedySleep,
    OracleShutdown,
    PredictiveShutdown,
)
from repro.device import (
    PowerState,
    PowerStateMachine,
    Transition,
    mobile_hard_disk,
    two_state,
)
from repro.sim import DPMSimulator, default_wait_state
from repro.workload import Exponential, Trace, renewal_trace


def simple_device():
    """on 1 W (serves), rest 0 W; down 0.1 J / 1 s, up 0.3 J / 1 s."""
    states = [PowerState("on", 1.0, can_service=True), PowerState("rest", 0.0)]
    transitions = [
        Transition("on", "rest", 0.1, 1.0),
        Transition("rest", "on", 0.3, 1.0),
    ]
    return PowerStateMachine("simple", states, transitions, initial_state="on")


class TestDefaultWaitState:
    def test_free_idle_state_chosen(self):
        hdd = mobile_hard_disk()
        assert default_wait_state(hdd) == "idle"

    def test_home_when_no_free_state(self):
        assert default_wait_state(simple_device()) == "on"

    def test_home_when_round_trip_only_half_free(self):
        """A free descent is not enough: the return leg must also be
        free and instant, else the device must wait at home."""
        for leg_cost in (dict(energy=0.2, latency=0.0),
                         dict(energy=0.0, latency=0.5)):
            device = PowerStateMachine(
                "halffree",
                [PowerState("on", 1.0, can_service=True), PowerState("nap", 0.1)],
                [
                    Transition("on", "nap", energy=0.0, latency=0.0),
                    Transition("nap", "on", **leg_cost),
                ],
                initial_state="on",
            )
            assert default_wait_state(device) == "on"

    def test_home_when_free_state_saves_nothing(self):
        """A free round trip to an equal-power state is not an
        improvement (strict comparison) — stay home."""
        device = PowerStateMachine(
            "flat",
            [PowerState("on", 1.0, can_service=True), PowerState("mirror", 1.0)],
            [
                Transition("on", "mirror", energy=0.0, latency=0.0),
                Transition("mirror", "on", energy=0.0, latency=0.0),
            ],
            initial_state="on",
        )
        assert default_wait_state(device) == "on"

    def test_tie_breaks_to_first_declared_state(self):
        """Two equally cheap free-round-trip states: the pick is
        deterministic — declaration order wins (strict < keeps the
        incumbent), in either ordering."""
        def tied(order):
            states = [PowerState("on", 1.0, can_service=True)] + [
                PowerState(name, 0.2) for name in order
            ]
            transitions = []
            for name in order:
                transitions.append(Transition("on", name, 0.0, 0.0))
                transitions.append(Transition(name, "on", 0.0, 0.0))
            return PowerStateMachine("tied", states, transitions, initial_state="on")

        assert default_wait_state(tied(["nap_a", "nap_b"])) == "nap_a"
        assert default_wait_state(tied(["nap_b", "nap_a"])) == "nap_b"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_park_is_home_or_free_instant_round_trip(self, data):
        """Every event engine parks the idle device here and folds the
        park into plain residency, which is only exact when the round
        trip from home costs no energy and no time in either direction."""
        n = data.draw(st.integers(2, 5), label="n_states")
        power = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5])
        states = [PowerState(f"s{i}", data.draw(power, label=f"p{i}"),
                             can_service=i == 0) for i in range(n)]
        # missing edge, free edge, or one costing energy, latency or both
        edge = st.sampled_from([None, (0.0, 0.0), (0.3, 0.0), (0.0, 0.4),
                                (0.3, 0.4)])
        transitions = []
        for a in states:
            for b in states:
                if a is not b:
                    cost = data.draw(edge, label=f"{a.name}->{b.name}")
                    if cost is not None:
                        transitions.append(Transition(a.name, b.name, *cost))
        device = PowerStateMachine("random", states, transitions,
                                   initial_state="s0")
        home = device.initial_state

        def free_round_trip(name):
            if not (device.can_transition(home, name)
                    and device.can_transition(name, home)):
                return False
            legs = (device.transition(home, name), device.transition(name, home))
            return all(t.energy == 0 and t.latency == 0 for t in legs)

        wait = default_wait_state(device)
        assert wait == home or free_round_trip(wait)
        # and it is the cheapest such park
        for name in device.state_names:
            if name == home or free_round_trip(name):
                assert device.state(wait).power <= device.state(name).power


class TestAlwaysOnScenario:
    def test_energy_is_power_times_duration(self):
        device = simple_device()
        trace = Trace([1.0, 3.0], duration=10.0)
        report = DPMSimulator(device, AlwaysOn(), service_time=0.5).run(trace)
        assert report.total_energy == pytest.approx(10.0)
        assert report.mean_power == pytest.approx(1.0)
        assert report.energy_saving_ratio == pytest.approx(0.0)
        assert report.n_requests == 2
        assert report.mean_latency == pytest.approx(0.5)
        assert report.n_shutdowns == 0


class TestGreedyScenario:
    def test_hand_computed_energy(self):
        """One request at t=5, window 10 s, service 1 s.

        Timeline: idle 0-5 -> down transition 0-1 (0.1 J), rest 1-5 (0 W);
        arrival 5: up 5-6 (0.3 J), serve 6-7 (1 J);
        idle ends: down 7-8 (0.1 J), rest 8-10.
        Total = 0.1 + 0.3 + 1.0 + 0.1 = 1.5 J.
        """
        device = simple_device()
        trace = Trace([5.0], duration=10.0)
        report = DPMSimulator(device, GreedySleep("rest"), service_time=1.0).run(trace)
        assert report.total_energy == pytest.approx(1.5)
        assert report.n_requests == 1
        # latency = up (1 s) + service (1 s)
        assert report.mean_latency == pytest.approx(2.0)
        assert report.n_shutdowns == 2

    def test_wake_during_down_transition(self):
        """Arrival mid-down-transition: finish down, then wake.

        Request at t=0.5 while down transition (0-1) is in flight:
        down completes at 1 (0.1 J), up 1-2 (0.3 J), serve 2-3 (1 J),
        down again 3-4 (0.1 J), rest 4-5.
        """
        device = simple_device()
        trace = Trace([0.5], duration=5.0)
        report = DPMSimulator(device, GreedySleep("rest"), service_time=1.0).run(trace)
        assert report.total_energy == pytest.approx(1.5)
        # latency = 0.5 (rest of down) + 1 (up) + 1 (serve) = 2.5
        assert report.mean_latency == pytest.approx(2.5)


class TestTimeoutScenario:
    def test_timeout_longer_than_gap_never_sleeps(self):
        device = simple_device()
        trace = Trace([2.0, 4.0, 6.0], duration=8.0)
        report = DPMSimulator(
            device, FixedTimeout(5.0, "rest"), service_time=0.5
        ).run(trace)
        assert report.n_shutdowns == 0
        assert report.total_energy == pytest.approx(8.0)

    def test_timeout_fires_on_long_gap(self):
        device = simple_device()
        trace = Trace([1.0], duration=20.0)
        report = DPMSimulator(
            device, FixedTimeout(2.0, "rest"), service_time=1.0
        ).run(trace)
        # initial idle 0-1 is ended by the arrival before the timeout;
        # wait 0-1 + serve 1-2 (2 J), wait 2-4 (2 J), down 4-5 (0.1 J),
        # rest 5-20 (0 J)
        assert report.n_shutdowns == 1
        assert report.total_energy == pytest.approx(4.1)
        assert report.mean_latency == pytest.approx(1.0)


class TestOracleScenario:
    def test_oracle_never_wrong(self, rng):
        device = mobile_hard_disk()
        trace = renewal_trace(Exponential(0.1), 5_000.0, rng)
        report = DPMSimulator(
            device, OracleShutdown(), service_time=0.3, oracle=True
        ).run(trace)
        assert report.n_wrong_shutdowns == 0

    def test_oracle_beats_greedy_and_always_on(self, rng):
        device = mobile_hard_disk()
        trace = renewal_trace(Exponential(0.08), 10_000.0, rng)
        reports = {}
        for name, policy, oracle in (
            ("on", AlwaysOn(), False),
            ("greedy", GreedySleep(), False),
            ("oracle", OracleShutdown(), True),
        ):
            sim = DPMSimulator(device, policy, service_time=0.3, oracle=oracle)
            reports[name] = sim.run(trace)
        assert reports["oracle"].total_energy <= reports["greedy"].total_energy
        assert reports["oracle"].total_energy <= reports["on"].total_energy


class TestTraceDemands:
    def test_per_request_demands_used(self):
        device = simple_device()
        trace = Trace([1.0, 2.0], duration=10.0, service_demands=[2.0, 1.0])
        report = DPMSimulator(device, AlwaysOn(), service_time=0.1).run(trace)
        # first served 1-3, second queued (arr 2) served 3-4
        assert report.mean_latency == pytest.approx((2.0 + 2.0) / 2)

    def test_queueing_fifo(self):
        device = simple_device()
        trace = Trace([0.0, 0.0, 0.0], duration=10.0)
        report = DPMSimulator(device, AlwaysOn(), service_time=1.0).run(trace)
        assert report.mean_latency == pytest.approx((1 + 2 + 3) / 3)


class TestReportConsistency:
    def test_residency_sums_to_duration(self, rng):
        device = mobile_hard_disk()
        trace = renewal_trace(Exponential(0.05), 2_000.0, rng)
        report = DPMSimulator(device, FixedTimeout(), service_time=0.4).run(trace)
        assert sum(report.state_residency.values()) == pytest.approx(
            report.duration, rel=1e-6
        )

    def test_all_requests_served(self, rng):
        device = mobile_hard_disk()
        trace = renewal_trace(Exponential(0.2), 1_000.0, rng)
        report = DPMSimulator(device, GreedySleep(), service_time=0.2).run(trace)
        assert report.n_requests == len(trace)

    def test_invalid_service_time(self):
        with pytest.raises(ValueError):
            DPMSimulator(simple_device(), AlwaysOn(), service_time=0.0)

    def test_two_state_preset_runs(self, rng):
        device = two_state()
        trace = renewal_trace(Exponential(0.05), 1_000.0, rng)
        report = DPMSimulator(device, FixedTimeout(), service_time=0.3).run(trace)
        assert report.duration >= 1_000.0
        assert report.total_energy > 0
