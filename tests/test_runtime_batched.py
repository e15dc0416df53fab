"""Batched runtime: exact scalar/batched equivalence + driver behavior.

The contract under test is the tentpole guarantee of
:mod:`repro.runtime`: with per-replica RNG streams fixed, a B-replica
lock-step run *is* B independent scalar runs, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QTable
from repro.device import PRESETS, abstract_three_state, get_preset, two_state
from repro.env import SlottedDPMEnv
from repro.runtime import BatchedQDPM, BatchedSlottedEnv
from repro.workload import ConstantRate, PiecewiseConstantRate, SinusoidalRate


def _drive_matched(device, schedule, seeds, n_slots, **env_kw):
    """Step B scalar envs and one batched env with identical actions and
    matched per-replica streams; assert every observable matches exactly."""
    b = len(seeds)
    scalars = [
        SlottedDPMEnv(device, schedule, seed=s, **env_kw) for s in seeds
    ]
    batched = BatchedSlottedEnv(
        device, schedule, n_replicas=b, seeds=list(seeds), **env_kw
    )
    action_rngs = [np.random.default_rng(900 + i) for i in range(b)]
    for _ in range(n_slots):
        actions = []
        for i, env in enumerate(scalars):
            allowed = env.allowed_actions(env.state)
            actions.append(int(action_rngs[i].choice(allowed)))
        scalar_out = [env.step(a) for env, a in zip(scalars, actions)]
        states, rewards, info = batched.step(np.array(actions))
        for i, (s, r, step_info) in enumerate(scalar_out):
            assert s == states[i]
            assert r == rewards[i]
            assert step_info.energy == info.energy[i]
            assert step_info.queue == info.queue[i]
            assert step_info.arrived == bool(info.arrived[i])
            assert step_info.served == bool(info.served[i])
            assert step_info.lost == bool(info.lost[i])
            assert step_info.arrival_rate == info.arrival_rate
    return scalars, batched


class TestEnvEquivalence:
    def test_stationary_bit_exact(self, device3):
        scalars, batched = _drive_matched(
            device3, ConstantRate(0.2), seeds=range(5), n_slots=300,
            queue_capacity=4, p_serve=0.9,
        )
        for i, env in enumerate(scalars):
            assert env.totals == batched.totals.replica(i)
            assert env.energy_saving_ratio() == batched.energy_saving_ratio()[i]

    def test_nonstationary_bit_exact(self, device3):
        schedule = PiecewiseConstantRate([(100, 0.35), (100, 0.02)])
        scalars, batched = _drive_matched(
            device3, schedule, seeds=(7, 17, 27), n_slots=250,
            queue_capacity=6, p_serve=0.7,
        )
        for i, env in enumerate(scalars):
            assert env.totals == batched.totals.replica(i)

    def test_sinusoidal_two_state_bit_exact(self, device2):
        schedule = SinusoidalRate(0.2, 0.15, 80)
        scalars, batched = _drive_matched(
            device2, schedule, seeds=(0, 1), n_slots=200,
            queue_capacity=3, p_serve=1.0,
        )
        for i, env in enumerate(scalars):
            assert env.totals == batched.totals.replica(i)

    def test_int_seed_expands_to_block(self, device3):
        batched = BatchedSlottedEnv(
            device3, ConstantRate(0.2), n_replicas=3, seeds=42
        )
        explicit = BatchedSlottedEnv(
            device3, ConstantRate(0.2), n_replicas=3, seeds=[42, 43, 44]
        )
        for _ in range(100):
            a = np.zeros(3, dtype=int)
            s1, r1, _ = batched.step(a)
            s2, r2, _ = explicit.step(a)
            assert np.array_equal(s1, s2)
            assert np.array_equal(r1, r2)

    def test_disallowed_action_raises(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.1), n_replicas=2, seeds=0)
        bad = np.argwhere(~env.tables.allowed)
        if bad.size == 0:
            pytest.skip("device allows every action in every mode")
        mode, illegal = (int(v) for v in bad[0])
        env._modes[:] = mode  # force a restricted (e.g. in-transition) mode
        with pytest.raises(KeyError):
            env.step(np.array([illegal, illegal]))

    def test_out_of_range_action_raises(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.1), n_replicas=2, seeds=0)
        with pytest.raises(KeyError):
            env.step(np.array([-1, 0]))   # must not wrap to the last action
        with pytest.raises(KeyError):
            env.step(np.array([0, env.n_actions]))

    def test_action_check_messages(self, device3):
        """Both checks name the first bad replica; -1 is out of range,
        not a wrapped index into the step tables."""
        env = BatchedSlottedEnv(device3, ConstantRate(0.1), n_replicas=2, seeds=0)
        with pytest.raises(KeyError) as err:
            env.step(np.array([0, -1]))
        assert err.value.args[0] == "action index -1 out of range [0, 3) (replica 1)"
        with pytest.raises(KeyError) as err:
            env.step(np.array([3, 0]))
        assert err.value.args[0] == "action index 3 out of range [0, 3) (replica 0)"
        env._modes[:] = env.mode_space.steady_mode_index("sleep")
        with pytest.raises(KeyError) as err:
            env.step(np.array([0, 1]))
        assert err.value.args[0] == "action 'idle' not allowed in mode 'sleep' (replica 1)"

    def test_states_are_read_only(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.1), n_replicas=2, seeds=0)
        for states in (env.reset(), env.step(np.zeros(2, dtype=int))[0],
                       env.states):
            with pytest.raises(ValueError):
                states[0] = 1

    def test_seed_count_mismatch_raises(self, device3):
        with pytest.raises(ValueError):
            BatchedSlottedEnv(
                device3, ConstantRate(0.1), n_replicas=3, seeds=[1, 2]
            )

    def test_reset_restores_initial_state(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.3), n_replicas=2, seeds=1)
        for _ in range(20):
            env.step(np.zeros(2, dtype=int))
        states = env.reset(seeds=1)
        assert env.totals.slots == 0
        assert env.current_slot == 0
        ref = BatchedSlottedEnv(device3, ConstantRate(0.3), n_replicas=2, seeds=1)
        assert np.array_equal(states, ref.states)
        s1, r1, _ = env.step(np.zeros(2, dtype=int))
        s2, r2, _ = ref.step(np.zeros(2, dtype=int))
        assert np.array_equal(s1, s2) and np.array_equal(r1, r2)


class TestActionRange:
    """An out-of-range action raises before the slot runs, whatever its
    sign or size: no negative action wraps into the step tables."""

    def test_every_bad_action_is_out_of_range(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.1), n_replicas=2, seeds=0)
        n = env.n_actions
        for bad in [*range(-3 * n, 0), *range(n, 3 * n), -2**62, 2**62]:
            with pytest.raises(KeyError) as err:
                env.step(np.array([0, bad]))
            assert err.value.args[0] == (
                f"action index {bad} out of range [0, {n}) (replica 1)")
        assert env.current_slot == 0 and env.totals.slots == 0


class TestBlockDrawParity:
    """Each replica reads its uniforms from a pre-drawn block through its
    own cursor, advancing one or two per slot.  Pinned slot by slot
    against scalar twins over several refills, which land while the
    replicas' cursors differ, and across both kinds of mid-run reset."""

    K = BatchedSlottedEnv._DRAW_BLOCK

    @settings(max_examples=25, deadline=None)
    @given(
        b=st.sampled_from([1, 2, 7]),
        seed=st.integers(0, 2**16),
        p_serve=st.sampled_from([0.3, 0.75, 0.95]),
        queue_capacity=st.sampled_from([1, 2, 5]),
        rates=st.lists(st.sampled_from([0.0, 0.2, 0.6, 1.0]),
                       min_size=1, max_size=4),
        segment=st.integers(1, 400),
        reset_at=st.integers(1, 3 * K),
        reseed=st.booleans(),
    )
    def test_every_slot_matches_scalar_twins(self, b, seed, p_serve,
                                             queue_capacity, rates, segment,
                                             reset_at, reseed):
        device3 = abstract_three_state()
        n_slots = 3 * self.K + 2 * self.K // 3
        schedule = PiecewiseConstantRate(
            [(segment, r) for r in rates + [0.0, 1.0]])
        kw = dict(queue_capacity=queue_capacity, p_serve=p_serve)
        seeds = [seed + 31 * i for i in range(b)]
        scalars = [SlottedDPMEnv(device3, schedule, seed=s, **kw)
                   for s in seeds]
        batched = BatchedSlottedEnv(device3, schedule, n_replicas=b,
                                    seeds=seeds, **kw)
        picks = np.random.default_rng(seed).random((n_slots, b))
        for t in range(n_slots):
            if t == reset_at:
                if reseed:
                    batched.reset(seeds=[s + 1 for s in seeds])
                    for env, s in zip(scalars, seeds):
                        env.reset(seed=s + 1)
                else:
                    batched.reset()
                    for env in scalars:
                        env.reset()
            actions = []
            for env, u in zip(scalars, picks[t]):
                allowed = env.allowed_actions(env.state)
                actions.append(allowed[int(u * len(allowed))])
            states, rewards, info = batched.step(np.array(actions))
            for i, (env, action) in enumerate(zip(scalars, actions)):
                state, reward, step_info = env.step(action)
                assert (state, reward) == (states[i], rewards[i]), (t, i)
                assert step_info.slot == info.slot
                assert step_info.energy == info.energy[i]
                assert step_info.queue == info.queue[i]
                assert step_info.arrived == info.arrived[i]
                assert step_info.served == info.served[i]
                assert step_info.lost == info.lost[i]
                assert step_info.mode_label == batched.mode_space.mode(
                    int(info.modes[i])).label
                assert step_info.arrival_rate == info.arrival_rate
        for i, env in enumerate(scalars):
            assert env.totals == batched.totals.replica(i)


class TestQTableBatchOps:
    def test_batch_update_matches_sequential(self, rng):
        n_obs, n_act, b = 30, 4, 12
        seq = QTable(n_obs, n_act, initial_value=0.5)
        bat = seq.copy()
        # unique pairs: distinct observations per draw
        obs = rng.choice(n_obs, size=b, replace=False)
        actions = rng.integers(0, n_act, size=b)
        targets = rng.normal(size=b)
        lrs = rng.uniform(0.05, 0.9, size=b)
        deltas_seq = np.array([
            seq.update_toward(int(o), int(a), float(t), float(lr))
            for o, a, t, lr in zip(obs, actions, targets, lrs)
        ])
        deltas_bat = bat.batch_update(obs, actions, targets, lrs)
        assert np.array_equal(seq.values, bat.values)
        assert np.array_equal(seq.visit_counts, bat.visit_counts)
        assert np.array_equal(deltas_seq, deltas_bat)

    def test_batch_update_scalar_lr_and_visits_on_duplicates(self):
        table = QTable(4, 2)
        obs = np.array([1, 1, 2])
        act = np.array([0, 0, 1])
        table.batch_update(obs, act, np.array([1.0, 1.0, 2.0]), 0.5)
        # np.add.at counts every duplicate update
        assert table.visits(1, 0) == 2
        assert table.visits(2, 1) == 1

    def test_batch_update_rejects_bad_learning_rate(self):
        table = QTable(3, 2)
        with pytest.raises(ValueError):
            table.batch_update(
                np.array([0]), np.array([0]), np.array([1.0]), 1.5
            )

    def test_batch_best_action_matches_scalar(self, rng):
        n_obs, n_act = 20, 5
        table = QTable(n_obs, n_act)
        table._q[:] = rng.normal(size=(n_obs, n_act))
        obs = rng.integers(0, n_obs, size=40)
        mask = np.zeros((40, n_act), dtype=bool)
        for i in range(40):
            k = int(rng.integers(1, n_act + 1))
            mask[i, rng.choice(n_act, size=k, replace=False)] = True
        batch = table.batch_best_action(obs, mask)
        for i in range(40):
            allowed = np.nonzero(mask[i])[0]  # ascending, matches tie rule
            assert batch[i] == table.best_action(int(obs[i]), allowed)

    def test_batch_max_value_matches_scalar(self, rng):
        table = QTable(10, 4)
        table._q[:] = rng.normal(size=(10, 4))
        obs = np.arange(10)
        mask = np.ones((10, 4), dtype=bool)
        mask[:, 0] = False
        batch = table.batch_max_value(obs, mask)
        for i in range(10):
            assert batch[i] == table.max_value(i, [1, 2, 3])

    def test_batch_best_action_empty_allowed_raises(self):
        table = QTable(3, 2)
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError):
            table.batch_best_action(np.array([0, 1]), mask)

    def test_copy_preserves_dtype(self):
        table = QTable(4, 3, initial_value=1.0, dtype=np.float32)
        clone = table.copy()
        assert clone.values.dtype == np.float32
        assert np.array_equal(clone.values, table.values)


class TestBatchedQDPM:
    def test_replica_blocks_match_scalar_updates(self, device3):
        """Lock-step batch updates == B sequential scalar update_toward
        calls on separate tables (replica row blocks are independent)."""
        env = BatchedSlottedEnv(
            device3, ConstantRate(0.25), n_replicas=3, seeds=[3, 4, 5],
            queue_capacity=4, p_serve=0.9,
        )
        driver = BatchedQDPM(env, epsilon=0.0, seed=0)  # pure greedy
        shadow = [QTable(env.n_states, env.n_actions) for _ in range(3)]
        qcap1 = env.queue_capacity + 1
        for _ in range(150):
            states = env.states
            obs = states + driver._offsets
            mask = env.tables.allowed[env.modes]
            actions = driver.table.batch_best_action(obs, mask)
            next_states, rewards, _ = env.step(actions)
            next_modes = env.modes
            for i in range(3):
                allowed = env.mode_space.allowed_actions(
                    int(next_states[i]) // qcap1
                )
                target = rewards[i] + driver.discount * shadow[i].max_value(
                    int(next_states[i]), allowed
                )
                shadow[i].update_toward(
                    int(states[i]), int(actions[i]), float(target), 0.1
                )
            next_mask = env.tables.allowed[next_modes]
            bootstrap = driver.table.batch_max_value(
                next_states + driver._offsets, next_mask
            )
            driver.table.batch_update(
                obs, actions, rewards + driver.discount * bootstrap, 0.1,
                unique=True,
            )
        for i in range(3):
            block = driver.replica_table(i)
            assert np.array_equal(block.values, shadow[i].values)
            assert np.array_equal(block.visit_counts, shadow[i].visit_counts)

    def test_learning_improves_reward(self, device3):
        env = BatchedSlottedEnv(
            device3, ConstantRate(0.15), n_replicas=4, seeds=11,
            queue_capacity=8, p_serve=0.9,
        )
        driver = BatchedQDPM(env, epsilon=0.08, seed=1)
        hist = driver.run(20_000, record_every=2_000)
        assert hist.reward.shape == (10, 4)
        assert hist.reward[-2:].mean() > hist.reward[:2].mean()

    def test_history_windows_and_partial_tail(self, device3):
        env = BatchedSlottedEnv(
            device3, ConstantRate(0.2), n_replicas=2, seeds=0
        )
        driver = BatchedQDPM(env, seed=0)
        hist = driver.run(2_500, record_every=1_000)
        assert len(hist) == 3  # 2 full windows + partial tail
        assert list(hist.slots) == [999, 1999, 2499]
        replica = hist.replica(1)
        assert replica.reward.shape == (3,)
        mean = hist.mean_history()
        assert np.allclose(mean.reward, hist.reward.mean(axis=1))

    def test_greedy_policy_matches_home_fallback(self, device3):
        env = BatchedSlottedEnv(
            device3, ConstantRate(0.15), n_replicas=2, seeds=0
        )
        driver = BatchedQDPM(env, seed=0)
        policy = driver.greedy_policy(0)
        home = env.mode_space.action_index(device3.initial_state)
        # untrained: every steady state with the home action allowed
        # falls back to it
        assert policy(0) == home

    def test_callback_fires_per_full_window(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.2), n_replicas=2, seeds=0)
        driver = BatchedQDPM(env, seed=0)
        seen = []
        driver.run(3_000, record_every=1_000, callback=seen.append)
        assert seen == [999, 1999, 2999]

    def test_invalid_args_raise(self, device3):
        env = BatchedSlottedEnv(device3, ConstantRate(0.2), n_replicas=2, seeds=0)
        with pytest.raises(ValueError):
            BatchedQDPM(env, discount=1.0)
        with pytest.raises(ValueError):
            BatchedQDPM(env, epsilon=-0.1)
        for initial_q in (-np.inf, np.nan, -1e291, 1e291):
            with pytest.raises(ValueError, match="initial_q"):
                BatchedQDPM(env, initial_q=initial_q)
        driver = BatchedQDPM(env)
        with pytest.raises(ValueError):
            driver.run(0)
        with pytest.raises(ValueError):
            driver.replica_table(5)
        with pytest.raises(ValueError):  # the table is sized by the env
            driver.env = BatchedSlottedEnv(device3, ConstantRate(0.2),
                                           n_replicas=2, queue_capacity=4)
        # 1 x 50 x 3 and 2 x 25 x 3 pairs: the same count, another width
        narrow = BatchedQDPM(BatchedSlottedEnv(
            device3, ConstantRate(0.2), n_replicas=1, queue_capacity=9))
        with pytest.raises(ValueError, match="built for 1 x 50 x 3"):
            narrow.env = BatchedSlottedEnv(device3, ConstantRate(0.2),
                                           n_replicas=2, queue_capacity=4)

    def test_exploring_at_the_initial_q_bound(self, device3):
        """Just inside the bound, an always-exploring learner still takes
        only allowed actions and matches its scalar twin."""
        from repro.core import FixedDrawEpsilonGreedy, QDPM, QLearningAgent

        initial_q, seeds = -9.9e290, [3, 4]
        benv = BatchedSlottedEnv(device3, ConstantRate(0.3), n_replicas=2,
                                 seeds=seeds)
        driver = BatchedQDPM(benv, epsilon=1.0, initial_q=initial_q,
                             seed=[s + 1 for s in seeds])
        batched = driver.run(300, record_every=100)
        for i, seed in enumerate(seeds):
            env = SlottedDPMEnv(device3, ConstantRate(0.3), seed=seed)
            agent = QLearningAgent(
                n_observations=env.n_states, n_actions=env.n_actions,
                initial_q=initial_q, seed=seed + 1,
                exploration=FixedDrawEpsilonGreedy(1.0),
            )
            scalar = QDPM(env, agent=agent).run(300, record_every=100)
            _assert_same_history(scalar, batched.replica(i))
            assert np.array_equal(agent.table.values,
                                  driver.replica_table(i).values)


class TestFixedDrawStreamParity:
    """The exploration-stream parity contract: a scalar QDPM using
    FixedDrawEpsilonGreedy consumes the batched engine's exact
    three-uniform-per-slot layout, so under matched seeds (env seed s,
    agent seed s + 1 — the sweep runner's arithmetic) scalar and batched
    runs match stream for stream, not just in distribution."""

    def test_scalar_matches_batched_replica_bit_for_bit(self, device3):
        from repro.core import QDPM, FixedDrawEpsilonGreedy

        seeds = [5, 6, 7]
        n_slots, record_every, eps = 2_500, 500, 0.08
        benv = BatchedSlottedEnv(
            device3, ConstantRate(0.15), n_replicas=len(seeds),
            queue_capacity=6, p_serve=0.9, seeds=seeds,
        )
        driver = BatchedQDPM(benv, epsilon=eps, seed=[s + 1 for s in seeds])
        batched = driver.run(n_slots, record_every=record_every)

        for i, seed in enumerate(seeds):
            env = SlottedDPMEnv(
                device3, ConstantRate(0.15), queue_capacity=6, p_serve=0.9,
                seed=seed,
            )
            controller = QDPM(
                env, epsilon=eps, seed=seed + 1,
                exploration=FixedDrawEpsilonGreedy(eps),
            )
            scalar = controller.run(n_slots, record_every=record_every)
            replica = batched.replica(i)
            assert np.array_equal(scalar.reward, replica.reward)
            assert np.array_equal(scalar.energy, replica.energy)
            assert np.array_equal(scalar.queue, replica.queue)
            assert np.array_equal(scalar.td_error, replica.td_error)
            # trained tables agree to the last bit too
            assert np.array_equal(
                controller.agent.table.values, driver.replica_table(i).values
            )
            assert np.array_equal(
                controller.agent.table.visit_counts,
                driver.replica_table(i).visit_counts,
            )
            assert env.totals == benv.totals.replica(i)

    @settings(max_examples=30, deadline=None)
    @given(
        b=st.sampled_from([1, 2, 7]),
        seed=st.integers(0, 2**16),
        epsilon=st.sampled_from([0.0, 0.3, 1.0]),
        initial_q=st.sampled_from([0.0, -4.0]),
        harmonic=st.booleans(),
        queue_capacity=st.sampled_from([1, 4]),
        warmup=st.integers(0, 150),
        n_train=st.integers(1, 400),
        n_after_reset=st.integers(1, 150),
        n_eval=st.integers(1, 150),
    )
    def test_every_replica_is_a_scalar_run(self, b, seed, epsilon, initial_q,
                                          harmonic, queue_capacity, warmup,
                                          n_train, n_after_reset, n_eval):
        """Replica i of the lock-step learner is a scalar QDPM with
        FixedDrawEpsilonGreedy, slot for slot: actions, TD changes, Q,
        visits and totals, through a warm-up env swap, a reseeding reset
        and greedy evaluation after training.  Rows start all tied, so
        tie-breaking is exercised from the first slot."""
        from repro.core import FixedDrawEpsilonGreedy, HarmonicDecay, QDPM, QLearningAgent

        device = abstract_three_state()
        lr = HarmonicDecay(0.5) if harmonic else 0.2
        kw = dict(queue_capacity=queue_capacity, p_serve=0.8)
        seeds = [seed + 13 * i for i in range(b)]
        warm_schedule, schedule = ConstantRate(0.5), ConstantRate(0.25)

        def recording(env, log):
            step = env.step

            def logged(actions):
                log.append(actions)
                return step(actions)
            env.step = logged
            return env

        batched_actions = []
        benv = recording(BatchedSlottedEnv(device, schedule, n_replicas=b,
                                           seeds=seeds, **kw), batched_actions)
        warm = recording(BatchedSlottedEnv(device, warm_schedule, n_replicas=b,
                                           seeds=[s + 1 for s in seeds], **kw),
                         batched_actions)
        driver = BatchedQDPM(warm if warmup else benv, epsilon=epsilon,
                             learning_rate=lr, initial_q=initial_q,
                             seed=[s + 1 for s in seeds])
        histories = []
        if warmup:
            histories.append(driver.run(warmup, record_every=50))
            driver.env = benv
        histories.append(driver.run(n_train, record_every=100))
        benv.reset(seeds=[s + 2 for s in seeds])
        histories.append(driver.run(n_after_reset, record_every=100))
        histories.append(driver.run(n_eval, learn=False, record_every=100))
        batched_actions = np.array(batched_actions)

        for i, s in enumerate(seeds):
            actions = []
            env = recording(SlottedDPMEnv(device, schedule, seed=s, **kw), actions)
            warm_env = recording(SlottedDPMEnv(device, warm_schedule, seed=s + 1,
                                               **kw), actions)
            agent = QLearningAgent(
                n_observations=env.n_states, n_actions=env.n_actions,
                learning_rate=lr, initial_q=initial_q, seed=s + 1,
                exploration=FixedDrawEpsilonGreedy(epsilon),
            )
            controller = QDPM(warm_env if warmup else env, agent=agent)
            scalar = []
            if warmup:
                scalar.append(controller.run(warmup, record_every=50))
                controller.env = env
            scalar.append(controller.run(n_train, record_every=100))
            env.reset(seed=s + 2)
            scalar.append(controller.run(n_after_reset, record_every=100))
            scalar.append(controller.run(n_eval, learn=False, record_every=100))

            assert np.array_equal(batched_actions[:, i], actions)
            for one, many in zip(scalar, histories):
                replica = many.replica(i)
                for field in ("reward", "energy", "queue", "td_error"):
                    assert np.array_equal(getattr(one, field),
                                          getattr(replica, field)), field
            table = driver.replica_table(i)
            assert np.array_equal(agent.table.values, table.values)
            assert np.array_equal(agent.table.visit_counts, table.visit_counts)
            assert env.totals == benv.totals.replica(i)
            if warmup:
                assert warm_env.totals == warm.totals.replica(i)

    def test_learning_rate_schedule_also_matches(self, device3):
        from repro.core import QDPM, FixedDrawEpsilonGreedy, HarmonicDecay, QLearningAgent

        seed, eps, n_slots = 11, 0.1, 1_500
        lr = HarmonicDecay(0.5)
        benv = BatchedSlottedEnv(
            device3, ConstantRate(0.2), n_replicas=1, queue_capacity=6,
            p_serve=0.9, seeds=[seed],
        )
        driver = BatchedQDPM(
            benv, epsilon=eps, learning_rate=lr, seed=[seed + 1]
        )
        batched = driver.run(n_slots, record_every=n_slots)

        env = SlottedDPMEnv(
            device3, ConstantRate(0.2), queue_capacity=6, p_serve=0.9,
            seed=seed,
        )
        agent = QLearningAgent(
            n_observations=env.n_states, n_actions=env.n_actions,
            learning_rate=lr, exploration=FixedDrawEpsilonGreedy(eps),
            seed=seed + 1,
        )
        controller = QDPM(env, agent=agent)
        scalar = controller.run(n_slots, record_every=n_slots)
        assert np.array_equal(scalar.reward, batched.replica(0).reward)
        assert np.array_equal(
            controller.agent.table.values, driver.replica_table(0).values
        )


class TestPresetParity:
    """Every device preset at B = 1 and B = 32, replica by replica
    against its scalar twin.  The presets cover the degenerate shapes of
    the K-major candidate table and the per-(state, action) step tables:
    ``two_state`` has two actions, ``wlan`` three single-action modes,
    and abstract3's modes allow 3, 3, 2, 1 and 1 actions."""

    N_SLOTS, RECORD_EVERY = 600, 100  # past both draw-block refills
    KW = dict(queue_capacity=3, p_serve=0.8)
    SCHEDULE = PiecewiseConstantRate([(150, 0.6), (150, 0.05)] * 2)

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_learning_matches_fixed_draw_twins(self, preset, b):
        from repro.core import FixedDrawEpsilonGreedy, QDPM, QLearningAgent

        device = get_preset(preset)
        seeds = [100 + 7 * i for i in range(b)]
        benv = BatchedSlottedEnv(device, self.SCHEDULE, n_replicas=b,
                                 seeds=seeds, **self.KW)
        driver = BatchedQDPM(benv, epsilon=0.3, learning_rate=0.2,
                             seed=[s + 1 for s in seeds])
        batched = driver.run(self.N_SLOTS, record_every=self.RECORD_EVERY)
        for i, seed in enumerate(seeds):
            env = SlottedDPMEnv(device, self.SCHEDULE, seed=seed, **self.KW)
            agent = QLearningAgent(
                n_observations=env.n_states, n_actions=env.n_actions,
                learning_rate=0.2, seed=seed + 1,
                exploration=FixedDrawEpsilonGreedy(0.3),
            )
            scalar = QDPM(env, agent=agent).run(
                self.N_SLOTS, record_every=self.RECORD_EVERY)
            _assert_same_history(scalar, batched.replica(i))
            table = driver.replica_table(i)
            assert np.array_equal(agent.table.values, table.values)
            assert np.array_equal(agent.table.visit_counts,
                                  table.visit_counts)
            assert env.totals == benv.totals.replica(i)

    @pytest.mark.parametrize("b", [1, 32])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_fixed_policy_matches_scalar_rollout(self, preset, b):
        from repro.core.qdpm import run_lockstep
        from repro.mdp import DeterministicPolicy
        from repro.runtime.sweep import (
            _fixed_policy_step, _policy_action_lut, _run_fixed_policy)

        device = get_preset(preset)
        seeds = [200 + 5 * i for i in range(b)]
        benv = BatchedSlottedEnv(device, self.SCHEDULE, n_replicas=b,
                                 seeds=seeds, **self.KW)
        # random picks, illegal ones included: those fall back to the
        # mode's first allowed action on both engines
        policy = DeterministicPolicy(np.random.default_rng(len(preset))
                                     .integers(0, benv.n_actions,
                                               benv.n_states))
        batched = _run_fixed_policy(benv, _policy_action_lut(benv, policy),
                                    self.N_SLOTS, self.RECORD_EVERY)
        for i, seed in enumerate(seeds):
            env = SlottedDPMEnv(device, self.SCHEDULE, seed=seed, **self.KW)
            actions = _policy_action_lut(env, policy).tolist()
            scalar = run_lockstep(env, _fixed_policy_step(env, actions),
                                  self.N_SLOTS,
                                  record_every=self.RECORD_EVERY)
            _assert_same_history(scalar, batched.replica(i))
            assert env.totals == benv.totals.replica(i)


def _assert_same_history(scalar, replica):
    for field in ("slots", "reward", "energy", "queue", "saving_ratio",
                  "td_error"):
        assert np.array_equal(getattr(scalar, field),
                              getattr(replica, field)), field
