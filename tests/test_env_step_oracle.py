"""``SlottedDPMEnv.step`` against an independent copy of the plain step.

The env reads each (mode, action) effect from a flat table and draws its
uniforms from a pre-filled block of its generator.  The oracle below
reads ``ModeSpace.effect`` and makes one ``rng.random()`` call per
uniform, so every state, reward, ``StepInfo`` and total must agree bit
for bit, across block refills, reseeding resets mid-block and resets
that continue the stream.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import (
    abstract_three_state,
    mobile_hard_disk,
    two_state,
    wlan_card,
)
from repro.env import SlottedDPMEnv
from repro.env.slotted_env import EnvTotals, StepInfo
from repro.workload import ConstantRate, PiecewiseConstantRate

#: (device, slot length): every one has multi-slot transitions, so
#: countdown (transitional) modes are in play
PRESETS = [
    (abstract_three_state, 1.0),
    (two_state, 0.5),
    (mobile_hard_disk, 0.25),
    (wlan_card, 1.0),
]


class OracleEnv:
    """The step as written before the flat table and the draw block:
    ``mode_space.effect`` per slot, one ``rng.random()`` per uniform."""

    def __init__(self, env: SlottedDPMEnv, seed) -> None:
        self.env = env  # parameters and the mode space only
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def reset(self, seed=None, queue=0, mode=None):
        env = self.env
        if seed is not None:
            self.rng = np.random.default_rng(seed)
            self.draws = 0
        self.mode = env.mode_space.steady_mode_index(
            mode if mode is not None else env.device.initial_state)
        self.queue = queue
        self.slot = 0
        self.totals = EnvTotals()
        return self.mode * (env.queue_capacity + 1) + self.queue

    def uniform(self) -> float:
        self.draws += 1
        return self.rng.random()

    def step(self, action):
        env = self.env
        effect = env.mode_space.effect(self.mode, action)
        rate = env.schedule.rate_at(self.slot)
        served = False
        if effect.can_service and self.queue > 0:
            served = bool(self.uniform() < env.p_serve)
        queue = self.queue - int(served)
        arrived = bool(self.uniform() < rate)
        lost = False
        if arrived:
            if queue < env.queue_capacity:
                queue += 1
            else:
                lost = True
        reward = (-effect.energy - env.perf_weight * queue
                  - env.loss_penalty * int(lost))
        info = StepInfo(
            slot=self.slot, energy=effect.energy, queue=queue,
            arrived=arrived, served=served, lost=lost,
            mode_label=env.mode_space.mode(effect.next_mode).label,
            arrival_rate=rate,
        )
        t = self.totals
        t.slots += 1
        t.energy += effect.energy
        t.queue_integral += queue
        t.arrivals += int(arrived)
        t.completions += int(served)
        t.losses += int(lost)
        self.mode, self.queue = effect.next_mode, queue
        self.slot += 1
        return self.mode * (env.queue_capacity + 1) + queue, reward, info


def _pair(preset, seed, **kwargs):
    device, slot_length = preset
    env = SlottedDPMEnv(device(), slot_length=slot_length, seed=seed, **kwargs)
    twin = SlottedDPMEnv(device(), slot_length=slot_length, **kwargs)
    oracle = OracleEnv(twin, seed)
    oracle.reset()
    return env, oracle


#: uniforms per leg: around one, two and three 512-value blocks
DRAWS = st.one_of(st.sampled_from([1, 2, 511, 512, 513, 1023, 1024, 1025]),
                  st.integers(1, 1100))
#: how a leg starts: carry on, reset() continuing the stream, or reseed
RESETS = st.one_of(st.just("none"), st.just("continue"),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(PRESETS),
    seed=st.integers(0, 2**32 - 1),
    rate=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    piecewise=st.booleans(),
    p_serve=st.sampled_from([1.0, 0.6]),
    queue_capacity=st.sampled_from([1, 3]),
    choices=st.integers(0, 2**32 - 1),
    legs=st.lists(st.tuples(RESETS, DRAWS, st.integers(0, 3),
                            st.booleans()), min_size=1, max_size=4),
)
def test_step_matches_the_oracle(preset, seed, rate, piecewise, p_serve,
                                 queue_capacity, choices, legs):
    schedule = (PiecewiseConstantRate([(37, rate), (50, 0.5)]) if piecewise
                else ConstantRate(rate))
    env, oracle = _pair(preset, seed, schedule=schedule, p_serve=p_serve,
                        queue_capacity=queue_capacity)
    pick = random.Random(choices)
    for how, n_draws, queue, other_mode in legs:
        if how != "none":
            queue = min(queue, queue_capacity)
            mode = (env.device.state_names[-1] if other_mode else None)
            reseed = None if how == "continue" else how
            assert (env.reset(seed=reseed, queue=queue, mode=mode)
                    == oracle.reset(seed=reseed, queue=queue, mode=mode))
        start = oracle.draws
        while oracle.draws - start < n_draws:
            state = env.state
            allowed = env.allowed_actions(state)
            action = allowed[pick.randrange(len(allowed))]
            got = env.step(action)
            want = oracle.step(action)
            assert got == want
            assert type(got[2].arrived) is bool
            assert type(got[2].served) is bool
            assert env.state == got[0]
        assert env.totals == oracle.totals
        assert env.current_slot == oracle.slot


@pytest.mark.parametrize("preset", PRESETS)
def test_block_boundaries_from_a_fresh_seed(preset):
    """Run each env to 511, 512 and 513 uniforms from a fresh seed, then
    reseed mid-block and carry on past the next refill.  Staying asleep
    takes one uniform a slot, so the sleeping runs stop on each count
    exactly; staying on takes one or two."""
    device, _ = preset
    for state in (device().initial_state, device().state_names[-1]):
        for target in (511, 512, 513):
            env, oracle = _pair(preset, 3, schedule=ConstantRate(0.7),
                                p_serve=0.5)
            env.reset(mode=state)
            oracle.reset(mode=state)
            stay = env.mode_space.action_index(state)
            while oracle.draws < target:
                assert env.step(stay) == oracle.step(stay)
            if not env.device.state(state).can_service:
                assert oracle.draws == target
            assert env.reset(seed=4) == oracle.reset(seed=4)
            home = env.mode_space.action_index(env.device.initial_state)
            while oracle.draws < 700:
                assert env.step(home) == oracle.step(home)
            assert env.totals == oracle.totals


class TestIllegalActions:
    """Every action the flat table does not hold raises what
    ``ModeSpace.effect`` raises, and a negative index never wraps."""

    @staticmethod
    def _same_error(env, action):
        with pytest.raises(Exception) as want:
            env.mode_space.effect(env._mode, action)
        state, slot, totals = env.state, env.current_slot, env.totals
        with pytest.raises(type(want.value)) as got:
            env.step(action)
        assert str(got.value) == str(want.value)
        # nothing moved
        assert (env.state, env.current_slot, env.totals) == (state, slot, totals)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_out_of_range_negative_numpy_and_illegal(self, preset):
        device, slot_length = preset
        env = SlottedDPMEnv(device(), slot_length=slot_length, seed=0)
        space = env.mode_space
        for mode in range(space.n_modes):
            env._mode = mode
            allowed = space.allowed_actions(mode)
            for action in (-1, -env.n_actions, env.n_actions,
                           env.n_actions + 1):
                self._same_error(env, action)
            illegal = [a for a in range(env.n_actions) if a not in allowed]
            for action in illegal:
                self._same_error(env, action)
                self._same_error(env, np.int64(action))
                with pytest.raises(KeyError, match="not allowed in mode"):
                    env.step(action)

    def test_numpy_int_legal_action_steps(self):
        env, oracle = _pair(PRESETS[0], 9)
        for _ in range(600):
            action = np.int64(env.allowed_actions(env.state)[-1])
            assert env.step(action) == oracle.step(action)
