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
- the model-based adaptive pipeline (``RolloutSpec.model_based``) runs
  one scalar controller per seed, one seed per chunk; its chunks take
  the same path as every other chunk but have no second engine;
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

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..adaptive.model_based import AdaptationLog, ModelBasedSpec
from ..analysis.bootstrap import CI, bootstrap_ci
from ..checks import check_count, check_initial_q
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
from .telemetry import TELEMETRY
from .verify import check_seed_run


@dataclass(frozen=True)
class RolloutSpec:
    """One rollout recipe: environment + controller + horizon.

    ``policy`` switches the controller: ``None`` rolls a learning Q-DPM
    (with an optional pre-training phase on ``warmup_schedule``), a
    :class:`~repro.mdp.DeterministicPolicy` rolls that fixed policy.
    ``model_based`` instead rolls one
    :class:`~repro.adaptive.ModelBasedAdaptiveDPM` per seed, built from
    that recipe (no ``policy``, warmup or snapshots).
    Per-replica env streams are seeded ``seed + env_seed_offset`` (and
    ``seed + warmup_seed_offset`` during warmup), mirroring the seed
    arithmetic the scalar experiments used.  Every learning seed listed
    in ``snapshot_seeds`` also returns its greedy policy at each record
    point (:attr:`SeedRun.snapshots`).
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
    snapshot_seeds: Tuple[int, ...] = ()
    model_based: Optional[ModelBasedSpec] = None

    def __post_init__(self) -> None:
        # one rule for the scalar and the batched engine, whichever the
        # chunk width picks
        check_initial_q(self.initial_q)
        if self.snapshot_seeds and self.policy is not None:
            raise ValueError("snapshot_seeds needs a learning spec "
                             "(policy=None): a fixed policy has no Q-table")
        if self.model_based is not None and (
                self.policy is not None or self.warmup_slots > 0
                or self.snapshot_seeds):
            raise ValueError("model_based runs its own controller: it takes "
                             "no policy, warmup_slots or snapshot_seeds")

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
    #: greedy-policy actions at each record point, shape
    #: ``(len(history), n_states)``, the last row the final policy; for
    #: a seed in ``RolloutSpec.snapshot_seeds`` only, else ``None``
    snapshots: Optional[np.ndarray] = None
    #: the model-based controller's re-optimizations, for a
    #: ``RolloutSpec.model_based`` spec only, else ``None``; its
    #: ``*_seconds`` fields are wall-clock, so they differ between runs
    adaptation: Optional[AdaptationLog] = None


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
#: Each is the narrowest width at which the batched engine ran at least
#: as many replica-slots per CPU second as the scalar stack in every
#: reading (2-core x86_64, Python 3.11.7, NumPy 2.4.6, abstract3, 8,000
#: slots, the two engines interleaved within each of 7 repeats, best of
#: 7, three readings on a shared host): learning read 0.79-1.08x at
#: B=7, 1.18-1.22x at B=8 and 1.24-1.39x at B=9; fixed policy read
#: 0.98-1.03x at B=15, 1.04-1.08x at B=16 and 1.12-1.19x at B=17.
LEARNING_CROSSOVER = 8
FIXED_POLICY_CROSSOVER = 16


def runs_scalar(spec: RolloutSpec, width: int) -> bool:
    """Whether a chunk of ``width`` seeds runs on the scalar stack
    (always, for a model-based spec)."""
    if spec.model_based is not None:
        return True
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


def _run_snapshotted(spec: RolloutSpec, seeds: Sequence[int], run, greedy):
    """``(run(callback), per-seed snapshots)``: ``run`` records through
    :func:`run_lockstep`, whose ``callback`` appends ``greedy(i)`` of
    each seed ``seeds[i]`` listed in ``spec.snapshot_seeds`` at every
    full window; one more row follows a partial last window."""
    rows = {i: [] for i, seed in enumerate(seeds)
            if seed in spec.snapshot_seeds}

    def record(_slot: Optional[int] = None) -> None:
        for i, policies in rows.items():
            policies.append(greedy(i).actions)

    history = run(record if rows else None)
    if rows and spec.n_slots % spec.record_every:
        record()
    return history, [np.array(rows[i]) if i in rows else None
                     for i in range(len(seeds))]


def run_chunk(spec: RolloutSpec, chunk_seeds: Sequence[int]) -> List[SeedRun]:
    """Execute one seed chunk of ``spec`` — the sweep's unit of work.

    Chunks narrower than the crossover (:func:`runs_scalar`) run on the
    scalar stack, the rest on the batched engine; both give the same
    bits per seed.  Model-based chunks run on the scalar stack and count
    as ``engine.slotted.model_based``.  Pure function of
    ``(spec, chunk_seeds)``: every RNG stream is constructed from the
    chunk's seeds, so the same bits come out whether the chunk runs in
    the parent process or a pool worker.
    """
    scalar = runs_scalar(spec, len(chunk_seeds))
    engine = ("model_based" if spec.model_based is not None
              else "scalar" if scalar else "batched")
    TELEMETRY.inc(f"engine.slotted.{engine}")
    with TELEMETRY.span("chunk", cat="sweep", kind="slotted",
                        seeds=list(chunk_seeds), engine=engine):
        body = _run_scalar_chunk if scalar else _run_batched_chunk
        return body(spec, chunk_seeds)


def _run_batched_chunk(spec: RolloutSpec,
                       chunk_seeds: Sequence[int]) -> List[SeedRun]:
    env = spec.build_env(chunk_seeds)
    snapshots: List[Optional[np.ndarray]] = [None] * len(chunk_seeds)
    if spec.policy is not None:
        lut = _policy_action_lut(env, spec.policy)
        hist = _run_fixed_policy(
            env, lut, spec.n_slots, spec.record_every
        )
    else:
        warmup = spec.warmup_schedule is not None and spec.warmup_slots > 0
        learner = BatchedQDPM(
            spec.build_env(chunk_seeds, warmup=True) if warmup else env,
            discount=spec.discount,
            learning_rate=spec.learning_rate,
            epsilon=spec.epsilon,
            initial_q=spec.initial_q,
            seed=[s + 1 for s in chunk_seeds],
        )
        if warmup:
            learner.run(spec.warmup_slots, record_every=spec.warmup_slots)
            learner.env = env
        hist, snapshots = _run_snapshotted(
            spec, chunk_seeds,
            lambda callback: learner.run(spec.n_slots,
                                         record_every=spec.record_every,
                                         callback=callback),
            learner.greedy_policy,
        )
    savings = env.energy_saving_ratio()
    runs: List[SeedRun] = []
    for i, seed in enumerate(chunk_seeds):
        history = hist.replica(i)
        mean = _horizon_mean(history, spec.n_slots, spec.record_every)
        runs.append(SeedRun(seed, history, mean, float(savings[i]),
                            env.totals.replica(i), snapshots[i]))
    return runs


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


def _run_scalar_chunk(spec: RolloutSpec,
                      chunk_seeds: Sequence[int]) -> List[SeedRun]:
    runs = []
    for seed in chunk_seeds:
        env = spec.scalar_env(seed)
        snapshot = adaptation = None
        if spec.model_based is not None:
            controller = spec.model_based.controller(env, spec.discount)
            history = controller.run(spec.n_slots,
                                     record_every=spec.record_every)
            adaptation = controller.log
        elif spec.policy is not None:
            actions = _policy_action_lut(env, spec.policy).tolist()
            history = run_lockstep(env, _fixed_policy_step(env, actions),
                                   spec.n_slots,
                                   record_every=spec.record_every)
        else:
            learner = _scalar_learner(spec, seed, env)
            history, (snapshot,) = _run_snapshotted(
                spec, [seed],
                lambda callback: run_lockstep(
                    env, learner.control_step, spec.n_slots,
                    record_every=spec.record_every, callback=callback),
                lambda _: learner.greedy_policy(),
            )
        runs.append(SeedRun(
            seed, history,
            _horizon_mean(history, spec.n_slots, spec.record_every),
            float(env.energy_saving_ratio()), env.totals, snapshot,
            adaptation))
    return runs


def reference_seed_runs(spec: RolloutSpec,
                        chunk_seeds: Sequence[int]) -> List[SeedRun]:
    """Reference path for one :func:`run_chunk` work unit: the engine
    the chunk did *not* run on.

    Scalar-run chunks re-run each seed on the batched engine at
    ``B = 1``; batched chunks re-run each seed on the scalar stack.
    Either way the comparison against the sweep's results is exact
    (``rtol = 0``).  A model-based spec has no reference path.
    """
    if spec.model_based is not None:
        raise ValueError("a model-based spec runs on the scalar stack only")
    if runs_scalar(spec, len(chunk_seeds)):
        return [run for seed in chunk_seeds
                for run in _run_batched_chunk(spec, [seed])]
    return _run_scalar_chunk(spec, chunk_seeds)


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
    on the engine it did *not* run on, bit-for-bit; model-based chunks
    have no second engine and are not, and hold one seed each."""
    model_based = any(spec.model_based is not None for spec in cells)
    chunk = 1 if model_based else chunk
    chunks = chunk_seeds(seeds, chunk)
    engines = (set() if model_based
               else {runs_scalar(spec, len(c)) for spec in cells
                     for c in chunks})
    return SweepPlan(
        spec=spec_id, cells=cells, seeds=seeds, chunk_size=chunk,
        fn=one_cell(run_chunk), task=lambda cell, c: (cell[0], c),
        seeds_at=1, check=_check_seed_run,
        reference=one_cell(reference_seed_runs) if engines else None,
        reference_name=" + ".join(
            label for engine, label in (
                (False, "scalar stack (batched chunks)"),
                (True, "batched engine at B=1 (scalar chunks)"),
            ) if engine in engines
        ),
        compare={"rtol": 0.0, "atol": 0.0},
    )


class SweepRunner(ChunkedRunner):
    """Chunked multi-seed executor over the scalar and batched engines.

    ``batch_size`` is the maximum replicas per lock-step batch; longer
    seed lists run in consecutive chunks.  The other settings are the
    shared ones of :class:`~repro.runtime.chunked.ChunkedRunner`;
    ``verify_fraction`` re-runs each sampled chunk per seed on the
    engine it did *not* run on — batched chunks on the scalar stack,
    scalar chunks on the batched engine at ``B = 1`` — and results must
    match **bit-for-bit**.  Model-based chunks have no second engine, so
    they add no verification block.
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

    def run_many(self, spec: RolloutSpec,
                 seeds: Sequence[int]) -> SweepResult:
        """Run ``spec`` once per seed; batched and sharded wherever possible.

        Every chunk, in the parent or on a pool worker, goes through the
        same checkpointed, retried and shadow-verified path; the greedy
        policies of the seeds in ``spec.snapshot_seeds`` come back as
        :attr:`SeedRun.snapshots`, and a model-based spec's adaptation
        logs as :attr:`SeedRun.adaptation`.
        """
        seeds = [check_count("seed", s, 0) for s in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        plan = slotted_plan(spec, [spec], seeds, self.batch_size)
        (runs,), execution = self._sweep(
            "slotted", plan, n_seeds=len(seeds), batch_size=plan.chunk_size,
        )
        return SweepResult(spec=spec, runs=runs, execution=execution)
