"""Unified multi-seed sweep runner: one entry point for every experiment.

Every reproduction experiment is, at its core, "roll the slotted system
forward for N slots under some controller, for one or more seeds, and
summarize".  :class:`SweepRunner` owns that loop once:

- seeds are chunked into lock-step batches of ``batch_size``; chunks at
  least as wide as a measured crossover run on the vectorized engine
  (:class:`~repro.runtime.BatchedSlottedEnv` +
  :class:`~repro.runtime.BatchedQDPM`), narrower ones (the experiments'
  default single seed among them) on the scalar stack — one
  :class:`~repro.env.SlottedDPMEnv` + :class:`~repro.core.QDPM` per seed
  with ``FixedDrawEpsilonGreedy``.  Both engines give the same bits per
  seed, and each is the other's shadow reference;
- fixed policies (the frozen-optimal arms) run on either engine with a
  precomputed state->action lookup;
- controllers that cannot be batched (the model-based adaptive pipeline)
  fall back to one scalar rollout per seed, each its own work unit;
- seed chunks are embarrassingly parallel, so ``n_jobs > 1`` ships
  ``(spec, chunk_seeds)`` work units across a process pool through the
  shared chunked-sweep core (:mod:`repro.runtime.chunked`), which
  also runs the invariant pass and shadow verification and reassembles
  results in seed order — per-seed results are bit-identical for every
  ``(batch_size, n_jobs)`` combination;
- per-seed summaries aggregate to mean +- bootstrap CI via the existing
  :mod:`repro.analysis.bootstrap`.

The runner deliberately does not import :mod:`repro.experiments` — the
experiments layer builds :class:`RolloutSpec`s from its config
dataclasses (``RolloutSpec.from_env_config``) and calls down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.bootstrap import CI, bootstrap_ci
from ..checks import check_count
from ..core.exploration import FixedDrawEpsilonGreedy
from ..core.qdpm import QDPM, RunHistory
from ..core.qlearning import QLearningAgent
from ..core.schedules import Schedule
from ..device import get_preset
from ..env.slotted_env import EnvTotals, SlottedDPMEnv
from ..mdp import DeterministicPolicy
from ..workload.nonstationary import RateSchedule
from .batched_env import BatchedSlottedEnv
from .batched_qdpm import BatchedQDPM, BatchRunHistory, run_lockstep
from .chunked import ChunkedRunner, SweepPlan, chunk_seeds, one_cell
from .executor import get_executor, is_picklable
from .telemetry import TELEMETRY
from .verify import check_seed_run, sweep_interrupts


@dataclass(frozen=True)
class RolloutSpec:
    """One rollout recipe: environment + controller + horizon.

    ``policy`` switches the controller: ``None`` rolls a learning Q-DPM
    (with an optional pre-training phase on ``warmup_schedule``), a
    :class:`~repro.mdp.DeterministicPolicy` rolls that fixed policy.
    Per-replica env streams are seeded ``seed + env_seed_offset`` (and
    ``seed + warmup_seed_offset`` during warmup), mirroring the seed
    arithmetic the scalar experiments used.
    """

    schedule: RateSchedule
    n_slots: int
    device: str = "abstract3"
    slot_length: float = 1.0
    queue_capacity: int = 8
    p_serve: float = 0.9
    perf_weight: float = 0.5
    loss_penalty: float = 2.0
    discount: float = 0.95
    learning_rate: Union[float, Schedule] = 0.1
    epsilon: float = 0.1
    initial_q: float = 0.0
    record_every: int = 1_000
    policy: Optional[DeterministicPolicy] = None
    warmup_schedule: Optional[RateSchedule] = None
    warmup_slots: int = 0
    env_seed_offset: int = 0
    warmup_seed_offset: int = 0

    @classmethod
    def from_env_config(cls, env_config, schedule: RateSchedule,
                        n_slots: int, **overrides) -> "RolloutSpec":
        """Build a spec from an experiments ``EnvConfig``-shaped object.

        Duck-typed on the attribute names (device, slot_length,
        queue_capacity, p_serve, perf_weight, loss_penalty, discount) to
        keep the runtime layer import-independent of the experiments
        layer.
        """
        spec = cls(
            schedule=schedule,
            n_slots=n_slots,
            device=env_config.device,
            slot_length=env_config.slot_length,
            queue_capacity=env_config.queue_capacity,
            p_serve=env_config.p_serve,
            perf_weight=env_config.perf_weight,
            loss_penalty=env_config.loss_penalty,
            discount=env_config.discount,
        )
        return replace(spec, **overrides) if overrides else spec

    def _env_args(self, warmup: bool):
        """``(device, schedule, seed offset, shared env kwargs)`` of the
        main or warmup phase."""
        return (get_preset(self.device),
                self.warmup_schedule if warmup else self.schedule,
                self.warmup_seed_offset if warmup else self.env_seed_offset,
                dict(slot_length=self.slot_length,
                     queue_capacity=self.queue_capacity, p_serve=self.p_serve,
                     perf_weight=self.perf_weight,
                     loss_penalty=self.loss_penalty))

    def scalar_env(self, seed: int, warmup: bool = False) -> SlottedDPMEnv:
        """Scalar environment of one seed (main or warmup phase): the
        twin of replica ``seed`` of :meth:`build_env`."""
        device, schedule, offset, kwargs = self._env_args(warmup)
        return SlottedDPMEnv(device, schedule, seed=seed + offset, **kwargs)

    def build_env(self, seeds: Sequence[int],
                  warmup: bool = False) -> BatchedSlottedEnv:
        """Batched environment for one seed chunk (main or warmup phase)."""
        device, schedule, offset, kwargs = self._env_args(warmup)
        return BatchedSlottedEnv(
            device, schedule, n_replicas=len(seeds),
            seeds=[s + offset for s in seeds], **kwargs,
        )


@dataclass
class SeedRun:
    """Summary of one seed's rollout."""

    seed: int
    history: RunHistory
    mean_reward: float       #: reward/slot over the whole horizon
    saving_ratio: float      #: episode energy saving vs always-on
    totals: EnvTotals


@dataclass
class SweepResult:
    """All seeds of one sweep, with CI aggregation helpers."""

    spec: RolloutSpec
    runs: List[SeedRun] = field(default_factory=list)
    #: how the runner executed the sweep: requested vs effective job
    #: count and the decision, resumed/computed chunk counts, the
    #: retry/timeout/degrade events, the shadow ``verification`` block
    #: when sampled, and the ``metrics`` snapshot
    execution: Dict[str, Any] = field(default_factory=dict)

    @property
    def seeds(self) -> List[int]:
        return [r.seed for r in self.runs]

    @property
    def n_seeds(self) -> int:
        return len(self.runs)

    def rewards(self) -> np.ndarray:
        """Per-seed mean reward/slot."""
        return np.array([r.mean_reward for r in self.runs])

    def savings(self) -> np.ndarray:
        """Per-seed energy-saving ratio."""
        return np.array([r.saving_ratio for r in self.runs])

    def reward_ci(self, confidence: float = 0.95) -> CI:
        """Bootstrap CI of the across-seed mean reward."""
        return bootstrap_ci(self.rewards(), confidence=confidence)

    def saving_ci(self, confidence: float = 0.95) -> CI:
        """Bootstrap CI of the across-seed mean saving ratio."""
        return bootstrap_ci(self.savings(), confidence=confidence)

    def history_matrix(self, what: str = "reward") -> np.ndarray:
        """Stacked per-seed traces, shape ``(n_records, n_seeds)``."""
        return np.stack(
            [getattr(r.history, what) for r in self.runs], axis=1
        )

    def mean_history(self) -> RunHistory:
        """Across-seed mean trace."""
        return RunHistory(
            slots=self.runs[0].history.slots.copy(),
            energy=self.history_matrix("energy").mean(axis=1),
            reward=self.history_matrix("reward").mean(axis=1),
            queue=self.history_matrix("queue").mean(axis=1),
            saving_ratio=self.history_matrix("saving_ratio").mean(axis=1),
            td_error=self.history_matrix("td_error").mean(axis=1),
        )


#: Seed chunks narrower than these run on the scalar stack (one
#: ``SlottedDPMEnv`` per seed) instead of the batched engine, whose
#: per-slot NumPy overhead only pays off across enough replicas.
#: Measured as the break-even of replica-slots per CPU second (2-core
#: x86_64, Python 3.11.7, abstract3, 8,000 slots, best of 7): learning,
#: scalar ~115-125k per seed against batched ~11k at B=1, parity at
#: B=11-12; fixed policy, scalar ~400-425k against batched ~25k at B=1,
#: parity at B=19-20.
LEARNING_CROSSOVER = 12
FIXED_POLICY_CROSSOVER = 20


def runs_scalar(spec: RolloutSpec, width: int) -> bool:
    """Whether a chunk of ``width`` seeds runs on the scalar stack."""
    crossover = (LEARNING_CROSSOVER if spec.policy is None
                 else FIXED_POLICY_CROSSOVER)
    return width < crossover


def _policy_action_lut(env, policy: DeterministicPolicy) -> np.ndarray:
    """State -> action lookup (for a scalar or batched env) with the
    scalar experiments' fallback (first allowed action when the
    policy's choice is illegal)."""
    qcap1 = env.queue_capacity + 1
    lut = np.empty(env.n_states, dtype=np.int64)
    for state in range(env.n_states):
        action = policy(state)
        allowed = env.mode_space.allowed_actions(state // qcap1)
        lut[state] = action if action in allowed else allowed[0]
    return lut


def _run_fixed_policy(env: BatchedSlottedEnv, lut: np.ndarray,
                      n_slots: int, record_every: int) -> BatchRunHistory:
    """Roll a fixed policy on the batched engine, windowed like QDPM.run."""
    no_td = np.zeros(env.n_replicas)

    def step():
        actions = lut.take(env.states)
        _, rewards, info = env.step(actions)
        return rewards, info, no_td

    return run_lockstep(env, step, n_slots, record_every=record_every)


def _horizon_mean(history: RunHistory, n_slots: int,
                  record_every: int) -> float:
    """Whole-horizon reward/slot reconstructed from windowed means."""
    n_full = n_slots // record_every
    weights = [record_every] * n_full
    if n_slots % record_every:
        weights.append(n_slots % record_every)
    weights = np.asarray(weights[:len(history.reward)], dtype=float)
    return float((history.reward * weights).sum() / weights.sum())


def _seed_run(spec: RolloutSpec, seed: int, history: RunHistory,
              env) -> SeedRun:
    """Summary of one scalar rollout over ``env``."""
    return SeedRun(
        seed=seed,
        history=history,
        mean_reward=_horizon_mean(history, spec.n_slots, spec.record_every),
        saving_ratio=float(env.energy_saving_ratio()),
        totals=env.totals,
    )


def run_chunk(spec: RolloutSpec, chunk_seeds: Sequence[int],
              on_record=None, on_chunk_done=None) -> List[SeedRun]:
    """Execute one seed chunk of ``spec`` — the sweep's unit of work.

    Chunks narrower than the crossover (:func:`runs_scalar`) run on the
    scalar stack, the rest on the batched engine; both give the same
    bits per seed.  Pure function of ``(spec, chunk_seeds)``: every RNG
    stream is constructed from the chunk's seeds, so the same bits come
    out whether the chunk runs in the parent process or a pool worker.
    The optional hooks are in-process callbacks and are never shipped to
    workers.
    """
    engine = "scalar" if runs_scalar(spec, len(chunk_seeds)) else "batched"
    TELEMETRY.inc(f"engine.slotted.{engine}")
    with TELEMETRY.span("chunk", cat="sweep", kind="slotted",
                        seeds=list(chunk_seeds), engine=engine):
        body = _run_scalar_chunk if engine == "scalar" else _run_batched_chunk
        return body(spec, chunk_seeds, on_record, on_chunk_done)


def _run_batched_chunk(spec: RolloutSpec, chunk_seeds: Sequence[int],
                       on_record=None, on_chunk_done=None) -> List[SeedRun]:
    env = spec.build_env(chunk_seeds)
    if spec.policy is not None:
        lut = _policy_action_lut(env, spec.policy)
        hist = _run_fixed_policy(
            env, lut, spec.n_slots, spec.record_every
        )
    else:
        warmup = spec.warmup_schedule is not None and spec.warmup_slots > 0
        driver = BatchedQDPM(
            spec.build_env(chunk_seeds, warmup=True) if warmup else env,
            discount=spec.discount,
            learning_rate=spec.learning_rate,
            epsilon=spec.epsilon,
            initial_q=spec.initial_q,
            seed=[s + 1 for s in chunk_seeds],
        )
        if warmup:
            driver.run(spec.warmup_slots, record_every=spec.warmup_slots)
            driver.env = env
        callback = None
        if on_record is not None:
            callback = lambda slot: on_record(slot, driver, chunk_seeds)
        hist = driver.run(
            spec.n_slots, record_every=spec.record_every,
            callback=callback,
        )
        if on_chunk_done is not None:
            on_chunk_done(driver, chunk_seeds)
    savings = env.energy_saving_ratio()
    runs: List[SeedRun] = []
    for i, seed in enumerate(chunk_seeds):
        history = hist.replica(i)
        mean = _horizon_mean(history, spec.n_slots, spec.record_every)
        runs.append(SeedRun(seed, history, mean, float(savings[i]),
                            env.totals.replica(i)))
    return runs


class ScalarChunkDriver:
    """What the snapshot hooks see of a learning chunk run on the scalar
    stack: :class:`BatchedQDPM`'s ``greedy_policy(i)`` over one scalar
    :class:`~repro.core.QDPM` per seed."""

    def __init__(self, controllers: List[QDPM]) -> None:
        self.controllers = controllers

    def greedy_policy(self, replica: int = 0,
                      prefer_visited: bool = True) -> DeterministicPolicy:
        """Greedy policy of one seed (semantics of ``QDPM.greedy_policy``)."""
        return self.controllers[replica].greedy_policy(prefer_visited)


#: what the snapshot hooks of :meth:`SweepRunner.run_many` are handed
Driver = Union[BatchedQDPM, ScalarChunkDriver]


def _scalar_learner(spec: RolloutSpec, seed: int,
                    env: SlottedDPMEnv) -> QDPM:
    """Scalar twin of one :class:`BatchedQDPM` replica, warmed up and
    switched to ``env``: a :class:`~repro.core.QDPM` consuming the
    batched engine's per-slot RNG layout via ``FixedDrawEpsilonGreedy``
    (agent seed ``seed + 1``)."""
    warmup = spec.warmup_schedule is not None and spec.warmup_slots > 0
    start_env = spec.scalar_env(seed, warmup=True) if warmup else env
    # QDPM's convenience ctor has no initial_q knob, so build the agent
    # explicitly to mirror every BatchedQDPM parameter
    agent = QLearningAgent(
        n_observations=start_env.n_states,
        n_actions=start_env.n_actions,
        discount=spec.discount,
        learning_rate=spec.learning_rate,
        exploration=FixedDrawEpsilonGreedy(spec.epsilon),
        initial_q=spec.initial_q,
        seed=seed + 1,
    )
    controller = QDPM(start_env, agent=agent)
    if warmup:
        controller.run(spec.warmup_slots, record_every=spec.warmup_slots)
        controller.env = env
    return controller


def _fixed_policy_step(env: SlottedDPMEnv, actions: List[int]):
    def step():
        _, reward, info = env.step(actions[env.state])
        return reward, info, 0.0
    return step


def _run_in_turn(envs: Sequence[SlottedDPMEnv], steps, n_slots: int,
                 record_every: int, callback=None) -> List[RunHistory]:
    """One :func:`run_lockstep` history per scalar env.  With a callback
    and several envs they advance one window at a time in turn, so the
    callback sees all of them at the same slot."""
    if callback is None or len(envs) == 1:
        return [run_lockstep(env, step, n_slots, record_every=record_every,
                             callback=callback)
                for env, step in zip(envs, steps)]
    parts: List[List[RunHistory]] = [[] for _ in envs]
    for start in range(0, n_slots, record_every):
        width = min(record_every, n_slots - start)
        for env, step, part in zip(envs, steps, parts):
            part.append(run_lockstep(env, step, width, record_every=width))
        if width == record_every:
            callback(envs[0].current_slot - 1)
    names = [f.name for f in fields(RunHistory)]
    return [RunHistory(*(np.concatenate([getattr(h, name) for h in part])
                         for name in names))
            for part in parts]


def _run_scalar_chunk(spec: RolloutSpec, chunk_seeds: Sequence[int],
                      on_record=None, on_chunk_done=None) -> List[SeedRun]:
    envs = [spec.scalar_env(seed) for seed in chunk_seeds]
    callback = None
    if spec.policy is not None:
        actions = _policy_action_lut(envs[0], spec.policy).tolist()
        steps = [_fixed_policy_step(env, actions) for env in envs]
    else:
        driver = ScalarChunkDriver([
            _scalar_learner(spec, seed, env)
            for seed, env in zip(chunk_seeds, envs)
        ])
        steps = [c.control_step for c in driver.controllers]
        if on_record is not None:
            callback = lambda slot: on_record(slot, driver, chunk_seeds)
    histories = _run_in_turn(envs, steps, spec.n_slots, spec.record_every,
                             callback)
    if spec.policy is None and on_chunk_done is not None:
        on_chunk_done(driver, chunk_seeds)
    return [_seed_run(spec, seed, history, env)
            for seed, history, env in zip(chunk_seeds, histories, envs)]


def reference_seed_runs(spec: RolloutSpec,
                        chunk_seeds: Sequence[int]) -> List[SeedRun]:
    """Reference path for one :func:`run_chunk` work unit: the engine
    the chunk did *not* run on.

    Scalar-run chunks re-run each seed on the batched engine at
    ``B = 1``; batched chunks re-run each seed on the scalar stack.
    Either way the comparison against the sweep's results is exact
    (``rtol = 0``).
    """
    if runs_scalar(spec, len(chunk_seeds)):
        return [run for seed in chunk_seeds
                for run in _run_batched_chunk(spec, [seed])]
    return _run_scalar_chunk(spec, chunk_seeds)


def _run_factory_chunk(spec: RolloutSpec, chunk_seeds: Sequence[int],
                       controller_factory) -> List[SeedRun]:
    """Scalar-fallback work unit: one ``controller_factory(seed)``
    rollout per seed (module-level, so it can ship to a worker when the
    factory itself is picklable)."""
    runs = []
    for seed in chunk_seeds:
        controller = controller_factory(seed)
        history = controller.run(spec.n_slots, record_every=spec.record_every)
        runs.append(_seed_run(spec, seed, history, controller.env))
    return runs


def _check_seed_run(run: SeedRun, spec: RolloutSpec, seed: int, chunk: int,
                    spec_key: str) -> None:
    # looked up at call time, so a wrapper installed on this module's
    # ``check_seed_run`` sees every check
    check_seed_run(run, spec=spec, spec_key=spec_key,
                   context={"chunk": chunk})


def slotted_plan(spec_id: Any, cells: Sequence[RolloutSpec],
                 seeds: Sequence[int], chunk: int) -> SweepPlan:
    """The :class:`SweepPlan` of ``cells`` x ``seeds`` on the slotted
    engines: one cell for :class:`SweepRunner`, one per grid coordinate
    for :class:`~repro.runtime.GridRunner`.  Each chunk is shadow-verified
    on the engine it did *not* run on, bit-for-bit."""
    chunks = chunk_seeds(seeds, chunk)
    scalar = [runs_scalar(spec, len(c)) for spec in cells for c in chunks]
    return SweepPlan(
        spec=spec_id, cells=cells, seeds=seeds, chunk_size=chunk,
        fn=one_cell(run_chunk), task=lambda cell, c: (cell[0], c),
        seeds_at=1, check=_check_seed_run,
        reference=one_cell(reference_seed_runs),
        reference_name=" + ".join(
            label for engine, label in (
                (False, "scalar stack (batched chunks)"),
                (True, "batched engine at B=1 (scalar chunks)"),
            ) if engine in scalar
        ),
        compare={"rtol": 0.0, "atol": 0.0},
    )


class SweepRunner(ChunkedRunner):
    """Chunked multi-seed executor over the scalar and batched engines.

    ``batch_size`` is the maximum replicas per lock-step batch; longer
    seed lists run in consecutive chunks.  The other settings are the
    shared ones of :class:`~repro.runtime.chunked.ChunkedRunner`, with
    two specifics:

    - ``checkpoint`` does not compose with the snapshot hooks of
      :meth:`run_many` (resumed chunks never execute, so the hooks could
      not fire) nor with ``controller_factory`` (the journal key cannot
      see the factory);
    - ``verify_fraction`` re-runs each sampled chunk per seed on the
      engine it did *not* run on — batched chunks on the scalar stack,
      scalar chunks on the batched engine at ``B = 1`` — and results
      must match **bit-for-bit**.
    """

    def __init__(self, batch_size: int = 32, n_jobs: int = 1,
                 timeout: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.5,
                 checkpoint: Optional[str] = None,
                 verify_fraction: float = 0.0,
                 diagnostics_dir: Optional[str] = None) -> None:
        self._configure("batch_size", batch_size, n_jobs, timeout,
                        max_retries, retry_backoff, checkpoint,
                        verify_fraction, diagnostics_dir)

    def run_many(
        self,
        spec: RolloutSpec,
        seeds: Sequence[int],
        on_record: Optional[Callable[[int, Driver, Sequence[int]], None]] = None,
        on_chunk_done: Optional[Callable[[Driver, Sequence[int]], None]] = None,
        controller_factory: Optional[Callable[[int], object]] = None,
    ) -> SweepResult:
        """Run ``spec`` once per seed; batched and sharded wherever possible.

        ``on_record(slot, driver, chunk_seeds)`` fires at every record
        point of a learning chunk executed in the parent process
        (snapshot hooks); ``on_chunk_done(driver, chunk_seeds)`` after
        such a chunk finishes (final-table extraction).  With
        ``n_jobs = 1`` that is every chunk; with ``n_jobs > 1`` only the
        *first* chunk runs in the parent (overlapped with the worker
        pool), so hooks see exactly the lead chunk — the contract the
        figure experiments rely on.  The driver is a
        :class:`BatchedQDPM` or, for a chunk on the scalar stack, a
        :class:`ScalarChunkDriver`; on both, ``driver.greedy_policy(i)``
        is seed ``chunk_seeds[i]``'s greedy policy at the hook's slot.
        Hooks never change results.
        ``controller_factory(seed)`` switches to the scalar fallback, one
        work unit per seed (hooks do not apply): it returns an object
        with ``.run(n_slots, record_every)`` -> ``RunHistory`` and an
        ``.env`` with ``totals`` / ``energy_saving_ratio()`` (e.g. the
        model-based pipeline).  Closures cannot ship and run in-process.
        """
        seeds = [check_count("seed", s, 0) for s in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        hooked = on_record is not None or on_chunk_done is not None
        if self.checkpoint is not None and (
                hooked or controller_factory is not None):
            raise ValueError(
                "checkpointing does not compose with in-process snapshot "
                "hooks or a controller_factory: resumed chunks load from "
                "the journal without executing, so hooks could not fire, "
                "and the journal key cannot see the factory"
            )
        execute = None
        if controller_factory is not None:
            plan = SweepPlan(
                spec=spec, cells=[spec], seeds=seeds, chunk_size=1,
                fn=one_cell(_run_factory_chunk), seeds_at=1,
                check=_check_seed_run,
                task=lambda cell, c: (cell[0], c, controller_factory),
                serial_reason=(None if is_picklable(controller_factory)
                               else "unpicklable_factory"),
            )
        else:
            plan = slotted_plan(spec, [spec], seeds, self.batch_size)
            if hooked:
                execute = partial(self._run_hooked, on_record=on_record,
                                  on_chunk_done=on_chunk_done)
        (runs,), execution = self._sweep(
            "slotted", plan, execute,
            n_seeds=len(seeds), batch_size=plan.chunk_size,
        )
        return SweepResult(spec=spec, runs=runs, execution=execution)

    def _run_hooked(self, plan: SweepPlan, tasks: List[Tuple], n_jobs: int,
                    on_record=None, on_chunk_done=None):
        """Execute step with snapshot hooks, the one case outside the
        retry ladder: hook chunks run in the parent, never retried, so a
        hook exception propagates as is and no hook fires twice.  With
        ``n_jobs > 1`` only the lead chunk is one; the tail ships first
        to ``n_jobs - 1`` workers and overlaps with it (a one-worker
        pool runs eagerly in-process, so at ``n_jobs = 2`` nothing
        overlaps)."""
        tail = tasks[1:] if n_jobs > 1 else []
        reporter = TELEMETRY.progress_reporter(
            total=len(tasks), workers=min(n_jobs, len(tasks)), label="sweep",
        )
        tick = ((lambda *_: reporter.update()) if reporter is not None
                else (lambda *_: None))
        outputs: List[List[List[SeedRun]]] = []
        with sweep_interrupts(len(tasks)):
            pending = get_executor(max(n_jobs - 1, 1)).submit_all(
                plan.fn, tail, timeout=self.timeout,
                max_retries=self.max_retries,
                retry_backoff=self.retry_backoff, on_result=tick,
            )
            try:
                for task in tasks[:len(tasks) - len(tail)]:
                    outputs.append(
                        [run_chunk(*task, on_record, on_chunk_done)])
                    TELEMETRY.inc("executor.chunks_completed")
                    tick()
            except BaseException:
                # a lead chunk (or a user hook) failed: don't leak the pool
                pending.cancel()
                raise
            outputs.extend(pending.get())
        if reporter is not None:
            reporter.finish()
        return outputs, {}
