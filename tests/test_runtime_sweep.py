"""SweepRunner: chunking, CI aggregation, policy mode, model-based arm."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    BernoulliCUSUM,
    ModelBasedAdaptiveDPM,
    SlidingWindowEstimator,
)
from repro.core import HarmonicDecay
from repro.device import abstract_three_state
from repro.env import SlottedDPMEnv, build_dpm_model
from repro.mdp import DeterministicPolicy
from repro.runtime import RolloutSpec, SweepRunner, reference_seed_runs, run_chunk
from repro.runtime.sweep import (
    FIXED_POLICY_CROSSOVER,
    LEARNING_CROSSOVER,
    runs_scalar,
)
from repro.workload import ConstantRate, SinusoidalRate


@pytest.fixture(scope="module")
def device():
    return abstract_three_state()


@pytest.fixture(scope="module")
def spec():
    return RolloutSpec(
        schedule=ConstantRate(0.15),
        n_slots=4_000,
        record_every=1_000,
        queue_capacity=6,
        epsilon=0.08,
    )


class TestRunMany:
    def test_one_run_per_seed(self, spec):
        result = SweepRunner(batch_size=2).run_many(spec, seeds=[1, 2, 3, 4, 5])
        assert result.n_seeds == 5
        assert result.seeds == [1, 2, 3, 4, 5]
        for run in result.runs:
            assert run.history.reward.shape == (4,)
            assert run.totals.slots == 4_000

    def test_deterministic_given_seeds(self, spec):
        seeds = [10, 20, 30]
        first = SweepRunner(batch_size=2).run_many(spec, seeds)
        second = SweepRunner(batch_size=2).run_many(spec, seeds)
        for a, b in zip(first.runs, second.runs):
            assert a.mean_reward == b.mean_reward
            assert a.saving_ratio == b.saving_ratio
            assert np.array_equal(a.history.reward, b.history.reward)

    def test_learning_chunking_invariant(self, spec):
        """A seed's trained outcome is independent of batch composition:
        env streams AND exploration streams are per-replica, so
        re-chunking the same seed list is bit-identical per seed."""
        seeds = [10, 20, 30]
        whole = SweepRunner(batch_size=8).run_many(spec, seeds)
        split = SweepRunner(batch_size=1).run_many(spec, seeds)
        for a, b in zip(whole.runs, split.runs):
            assert a.seed == b.seed
            assert a.mean_reward == b.mean_reward
            assert np.array_equal(a.history.reward, b.history.reward)
            assert a.totals == b.totals

    def test_policy_mode_chunking_invariant(self, device):
        """Fixed-policy sweeps are bit-identical however seeds are
        chunked (trajectories depend only on per-replica env streams)."""
        model = build_dpm_model(
            device, arrival_rate=0.15, queue_capacity=6, p_serve=0.9
        )
        policy = model.solve(0.95, "policy_iteration").policy
        pspec = RolloutSpec(
            schedule=ConstantRate(0.15), n_slots=1_000, record_every=1_000,
            queue_capacity=6, policy=policy,
        )
        seeds = [10, 20, 30]
        whole = SweepRunner(batch_size=8).run_many(pspec, seeds)
        split = SweepRunner(batch_size=1).run_many(pspec, seeds)
        for a, b in zip(whole.runs, split.runs):
            assert a.seed == b.seed
            assert a.mean_reward == b.mean_reward
            assert a.totals == b.totals

    def test_ci_aggregation(self, spec):
        result = SweepRunner().run_many(spec, seeds=range(6))
        ci = result.reward_ci()
        rewards = result.rewards()
        assert rewards.shape == (6,)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.estimate == pytest.approx(rewards.mean())
        sci = result.saving_ci()
        assert sci.low <= sci.estimate <= sci.high

    def test_mean_history_and_matrix(self, spec):
        result = SweepRunner().run_many(spec, seeds=[0, 1, 2])
        matrix = result.history_matrix("reward")
        assert matrix.shape == (4, 3)
        mean = result.mean_history()
        assert np.allclose(mean.reward, matrix.mean(axis=1))

    def test_empty_seeds_raises(self, spec):
        with pytest.raises(ValueError):
            SweepRunner().run_many(spec, seeds=[])

    @pytest.mark.parametrize("seed", [1.5, -1, "x"])
    def test_seeds_must_be_whole_numbers(self, spec, seed):
        """A fractional seed is refused, never truncated to another
        seed's run; a negative one is refused before any chunk runs."""
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SweepRunner().run_many(spec, seeds=[0, seed])

    @pytest.mark.parametrize("initial_q", [-np.inf, np.nan, -1e291, 1e300])
    def test_initial_q_bound_holds_on_both_engines(self, spec, initial_q):
        """The spec refuses an initial value the batched engine cannot
        run, so the scalar stack refuses it too, at any chunk width."""
        with pytest.raises(ValueError, match="initial_q"):
            replace(spec, initial_q=initial_q)

    def test_bad_batch_size_raises(self):
        with pytest.raises(ValueError):
            SweepRunner(batch_size=0)


class TestPolicyMode:
    def test_fixed_policy_matches_scalar_rollout(self, device):
        """Policy-mode sweep == the scalar fixed-policy loop, bit for bit
        (matched env streams, deterministic actions)."""
        model = build_dpm_model(
            device, arrival_rate=0.2, queue_capacity=6, p_serve=0.9
        )
        policy = model.solve(0.95, "policy_iteration").policy
        n_slots = 2_000
        spec = RolloutSpec(
            schedule=SinusoidalRate(0.2, 0.1, 500),
            n_slots=n_slots,
            record_every=n_slots,
            queue_capacity=6,
            policy=policy,
            env_seed_offset=100,
        )
        result = SweepRunner().run_many(spec, seeds=[23, 24])

        for run in result.runs:
            env = SlottedDPMEnv(
                device, SinusoidalRate(0.2, 0.1, 500), queue_capacity=6,
                p_serve=0.9, seed=run.seed + 100,
            )
            total = 0.0
            for _ in range(n_slots):
                state = env.state
                action = policy(state)
                if action not in env.allowed_actions(state):
                    action = env.allowed_actions(state)[0]
                _, reward, _ = env.step(action)
                total += reward
            assert run.mean_reward == pytest.approx(total / n_slots, rel=1e-12)
            assert run.saving_ratio == pytest.approx(
                env.energy_saving_ratio(), rel=1e-12
            )
            assert run.totals == env.totals


class TestWarmup:
    def test_warmup_then_main_phase(self, device):
        spec = RolloutSpec(
            schedule=SinusoidalRate(0.2, 0.1, 1_000),
            n_slots=3_000,
            record_every=3_000,
            queue_capacity=6,
            warmup_schedule=ConstantRate(0.2),
            warmup_slots=3_000,
            env_seed_offset=100,
        )
        result = SweepRunner().run_many(spec, seeds=[23])
        run = result.runs[0]
        # totals cover only the main phase
        assert run.totals.slots == 3_000
        # warmed-up controller should beat a cold one on the same workload
        cold = SweepRunner().run_many(
            RolloutSpec(
                schedule=SinusoidalRate(0.2, 0.1, 1_000),
                n_slots=3_000,
                record_every=3_000,
                queue_capacity=6,
                env_seed_offset=100,
            ),
            seeds=[23],
        )
        assert run.mean_reward > cold.runs[0].mean_reward


class TestModelBased:
    def test_sweep_matches_hand_built_controller(self, device, mb_spec):
        """Oracle sharing no sweep code: each seed's run is the one a
        hand-built controller on its own env produces."""
        result = SweepRunner(batch_size=2).run_many(mb_spec, seeds=[5, 6])
        for run in result.runs:
            env = SlottedDPMEnv(device, mb_spec.schedule, queue_capacity=6,
                                p_serve=0.9, seed=run.seed)
            controller = ModelBasedAdaptiveDPM(
                env, discount=0.95, solver="linear_programming",
                estimator=SlidingWindowEstimator(300),
                detector=BernoulliCUSUM(0.3, drift=0.05, threshold=20.0),
                min_samples=200, freeze_slots=100, initial_rate=0.3,
            )
            history = controller.run(2_000, record_every=500)
            for name in ("slots", "energy", "reward", "queue",
                         "saving_ratio", "td_error"):
                assert np.array_equal(getattr(run.history, name),
                                      getattr(history, name))
            assert run.totals == env.totals
            assert run.saving_ratio == env.energy_saving_ratio()
            assert run.mean_reward == pytest.approx(history.reward.mean(),
                                                    rel=1e-12)
            assert controller.log.events
            assert ([(e.slot, e.detected_rate)
                     for e in run.adaptation.events]
                    == [(e.slot, e.detected_rate)
                        for e in controller.log.events])

    def test_runs_on_the_scalar_stack_only(self, mb_spec):
        assert runs_scalar(mb_spec, 2 * FIXED_POLICY_CROSSOVER)
        with pytest.raises(ValueError, match="model-based"):
            reference_seed_runs(mb_spec, [5])


class TestRolloutSpecHelpers:
    def test_from_env_config_duck_typing(self):
        class Cfg:
            device = "abstract3"
            slot_length = 1.0
            queue_capacity = 5
            p_serve = 0.8
            perf_weight = 0.4
            loss_penalty = 1.5
            discount = 0.9

        spec = RolloutSpec.from_env_config(
            Cfg(), ConstantRate(0.1), 1_000, epsilon=0.2
        )
        assert spec.queue_capacity == 5
        assert spec.p_serve == 0.8
        assert spec.discount == 0.9
        assert spec.epsilon == 0.2
        env = spec.build_env([0, 1])
        assert env.n_replicas == 2
        assert env.queue_capacity == 5


class TestEngineDispatch:
    """Chunks below the crossover run on the scalar stack, the rest on
    the batched engine; either way every seed gets the same bits."""

    @staticmethod
    def _engine_counts(result):
        counters = result.execution["metrics"]["counters"]
        return (counters.get("engine.slotted.scalar", 0),
                counters.get("engine.slotted.batched", 0))

    def test_one_seed_runs_scalar(self, spec):
        result = SweepRunner().run_many(spec, seeds=[3])
        assert self._engine_counts(result) == (1, 0)

    def test_wide_chunk_runs_batched(self, spec):
        result = SweepRunner(batch_size=32).run_many(spec, range(32))
        assert self._engine_counts(result) == (0, 1)

    def test_mixed_chunk_widths(self, spec):
        # one batched chunk at the crossover width, one scalar tail of 2
        result = SweepRunner(batch_size=LEARNING_CROSSOVER).run_many(
            spec, range(LEARNING_CROSSOVER + 2))
        assert self._engine_counts(result) == (1, 1)

    def test_crossover_by_controller_kind(self, spec):
        policy = DeterministicPolicy(np.zeros(4, dtype=int))
        fixed = RolloutSpec(schedule=spec.schedule, n_slots=10,
                            policy=policy)
        assert runs_scalar(spec, LEARNING_CROSSOVER - 1)
        assert not runs_scalar(spec, LEARNING_CROSSOVER)
        assert runs_scalar(fixed, FIXED_POLICY_CROSSOVER - 1)
        assert not runs_scalar(fixed, FIXED_POLICY_CROSSOVER)

    def test_snapshots_same_on_scalar_and_batched_engines(self, spec):
        snap = replace(spec, snapshot_seeds=(1, 2))
        scalar = SweepRunner(batch_size=2).run_many(snap, [1, 2])
        batched = SweepRunner(batch_size=LEARNING_CROSSOVER).run_many(
            snap, range(1, LEARNING_CROSSOVER + 1))
        assert self._engine_counts(scalar) == (1, 0)
        assert self._engine_counts(batched) == (0, 1)
        for a, b in zip(scalar.runs, batched.runs):
            assert a.snapshots.shape == (4, spec.scalar_env(0).n_states)
            assert np.array_equal(a.snapshots, b.snapshots)

    @pytest.mark.parametrize("n_seeds", [3, LEARNING_CROSSOVER])
    def test_snapshots_never_change_results(self, spec, n_seeds):
        # a final partial window adds one final-policy row
        partial = RolloutSpec(schedule=spec.schedule, n_slots=2_500,
                              record_every=1_000, queue_capacity=6)
        seeds = list(range(4, 4 + n_seeds))
        snap = replace(partial, snapshot_seeds=tuple(seeds))
        runner = SweepRunner(batch_size=n_seeds)
        snapped = runner.run_many(snap, seeds)
        plain = runner.run_many(partial, seeds)
        for a, b in zip(snapped.runs, plain.runs):
            assert list(a.history.slots) == [999, 1999, 2499]
            for name in ("slots", "energy", "reward", "queue",
                         "saving_ratio", "td_error"):
                assert np.array_equal(getattr(a.history, name),
                                      getattr(b.history, name))
            assert a.mean_reward == b.mean_reward
            assert a.totals == b.totals
            assert len(a.snapshots) == len(a.history)
            assert b.snapshots is None


def _policy(n_states: int, n_actions: int, seed: int) -> DeterministicPolicy:
    """A random policy; on a multi-mode device most states forbid some
    actions, so the illegal-choice fallback to ``allowed[0]`` fires."""
    rng = np.random.default_rng(seed)
    return DeterministicPolicy(rng.integers(0, n_actions, size=n_states))


@st.composite
def _chunk_specs(draw):
    fixed = draw(st.booleans())
    crossover = FIXED_POLICY_CROSSOVER if fixed else LEARNING_CROSSOVER
    width = draw(st.integers(1, crossover + 2))
    queue_capacity = draw(st.integers(1, 3))
    warmup = draw(st.booleans())
    spec = RolloutSpec(
        # three mode graphs; only two_state lacks a zero-latency switch
        device=draw(st.sampled_from(["abstract3", "two_state", "mobile_hdd"])),
        schedule=SinusoidalRate(0.3, 0.2, 7),
        n_slots=draw(st.integers(1, 40)),
        record_every=draw(st.integers(1, 50)),
        queue_capacity=queue_capacity,
        p_serve=0.7,
        epsilon=draw(st.sampled_from([0.0, 0.3, 1.0])),
        learning_rate=draw(st.sampled_from(
            [0.1, HarmonicDecay(0.5, tau=2.0, minimum=0.01)])),
        initial_q=draw(st.sampled_from([0.0, 1.0])),
        warmup_schedule=ConstantRate(0.4) if warmup else None,
        warmup_slots=draw(st.integers(1, 30)) if warmup else 0,
        env_seed_offset=11,
        warmup_seed_offset=23,
    )
    if fixed:
        env = spec.scalar_env(0)
        spec = replace(spec, policy=_policy(
            env.n_states, env.n_actions, draw(st.integers(0, 9))))
    return spec, list(range(draw(st.integers(0, 50)), 100)[:width])


class TestScalarBatchedParity:
    @settings(max_examples=60, deadline=None)
    @given(case=_chunk_specs())
    @example(case=(RolloutSpec(schedule=ConstantRate(0.5), n_slots=1,
                               record_every=5, queue_capacity=1), [0]))
    @example(case=(RolloutSpec(schedule=ConstantRate(0.5), n_slots=1,
                               record_every=1, queue_capacity=1,
                               epsilon=1.0), list(range(7))))
    def test_chunk_matches_other_engine_bit_for_bit(self, case):
        """Whichever engine ``run_chunk`` picks, the other one
        (``reference_seed_runs``) reproduces every seed exactly."""
        spec, seeds = case
        got = run_chunk(spec, seeds)
        want = reference_seed_runs(spec, seeds)
        assert [r.seed for r in got] == [r.seed for r in want] == seeds
        for a, b in zip(got, want):
            assert a.mean_reward == b.mean_reward
            assert a.saving_ratio == b.saving_ratio
            assert a.totals == b.totals
            for name in ("slots", "energy", "reward", "queue",
                         "saving_ratio", "td_error"):
                assert np.array_equal(getattr(a.history, name),
                                      getattr(b.history, name)), name
