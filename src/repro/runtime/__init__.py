"""Vectorized batched runtime: lock-step multi-replica engine + sweeps.

The scalar stack (:class:`~repro.env.SlottedDPMEnv` +
:class:`~repro.core.QDPM`) pays a Python interpreter round-trip per slot
per seed.  This subsystem batches B independent replicas into NumPy
array ops and shards the resulting work units across processes:

- :class:`BatchedSlottedEnv` — B environment replicas stepped in
  lock-step, bit-for-bit equivalent to B scalar envs under matched
  per-replica RNG streams;
- :class:`BatchedQDPM` — B independent Q-DPM learners trained in one
  loop over disjoint row blocks of a single Q-table;
- :mod:`~repro.runtime.chunked` — the one chunked-sweep core behind
  all four sweep runners: (cell x seed-chunk) work units through the
  executor (:mod:`~repro.runtime.executor`) with retries, checkpoint
  journal and interrupt handling, the always-on invariant pass,
  sampled shadow verification, and per-cell regrouping in seed order;
- :class:`SweepRunner` — the unified multi-seed entry point
  (``SweepRunner(batch_size, n_jobs).run_many(spec, seeds)``) every slotted
  experiment routes through; seed chunks narrower than a measured
  crossover run on the scalar stack instead of the batched engine;
- :class:`GridRunner` — grid-product scenario sweeps
  (rate x device x horizon x controller) of slotted cells;
- :mod:`~repro.runtime.eventsim` — vectorized busy-period kernel for
  the continuous-time event simulator (:func:`simulate_traces_batch`
  runs stateless policies as NumPy array ops over all idle gaps of R
  traces at once, stateful ones in lock-step across the R replication
  runs with dense per-replica policy state, scalar fallback otherwise);
- :class:`SimSweepRunner` — (device x trace x policy) event-sim cell
  grids with bootstrap-CI aggregation, degrading to in-process
  execution when pool dispatch cannot pay for itself
  (:func:`resolve_n_jobs`).
"""

from .batched_env import BatchedEnvTotals, BatchedSlottedEnv, BatchStepInfo
from .batched_qdpm import BatchedQDPM, BatchRunHistory
from .eventsim import (
    policy_batch_mode,
    run_gap_batched,
    run_step_batched,
    run_vectorized,
    simulate_trace,
    simulate_traces_batch,
)
from .checkpoint import (
    CheckpointJournal,
    CheckpointMismatchError,
    run_chunks_checkpointed,
    spec_hash,
)
from .executor import (
    AsyncTasks,
    ChunkExecutionError,
    Executor,
    MultiprocessExecutor,
    SerialExecutor,
    get_executor,
    resolve_n_jobs,
)
from .grid import GridCell, GridCellResult, GridResult, GridRunner, GridSpec
from .simsweep import (
    PolicySpec,
    SimCellResult,
    SimSweepResult,
    SimSweepRunner,
    SimSweepSpec,
    TraceSpec,
    reference_sim_chunk,
    run_sim_chunk,
)
from .sweep import (
    RolloutSpec,
    SeedRun,
    SweepResult,
    SweepRunner,
    reference_seed_runs,
    run_chunk,
)
from .telemetry import (
    TELEMETRY,
    MetricsRegistry,
    ProgressReporter,
    SpanRecord,
    Telemetry,
    TelemetryEnvelope,
    TracedCall,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    export_trace,
)
from .verify import (
    InvariantViolation,
    SweepInterrupted,
    check_fleet_report,
    check_seed_run,
    check_sim_report,
    compare_reports,
    merge_verification_blocks,
    shadow_indices,
    shadow_verify_chunks,
    trap_signals,
    write_diagnostics_bundle,
)

__all__ = [
    "BatchedSlottedEnv",
    "BatchStepInfo",
    "BatchedEnvTotals",
    "BatchedQDPM",
    "BatchRunHistory",
    "RolloutSpec",
    "SeedRun",
    "SweepResult",
    "SweepRunner",
    "run_chunk",
    "SerialExecutor",
    "MultiprocessExecutor",
    "Executor",
    "AsyncTasks",
    "ChunkExecutionError",
    "CheckpointJournal",
    "run_chunks_checkpointed",
    "spec_hash",
    "get_executor",
    "GridSpec",
    "GridCell",
    "GridCellResult",
    "GridResult",
    "GridRunner",
    "run_vectorized",
    "run_gap_batched",
    "simulate_trace",
    "simulate_traces_batch",
    "run_step_batched",
    "policy_batch_mode",
    "resolve_n_jobs",
    "TraceSpec",
    "PolicySpec",
    "SimSweepSpec",
    "SimCellResult",
    "SimSweepResult",
    "SimSweepRunner",
    "run_sim_chunk",
    "reference_sim_chunk",
    "reference_seed_runs",
    "CheckpointMismatchError",
    "InvariantViolation",
    "SweepInterrupted",
    "check_sim_report",
    "check_fleet_report",
    "check_seed_run",
    "compare_reports",
    "merge_verification_blocks",
    "shadow_indices",
    "shadow_verify_chunks",
    "trap_signals",
    "write_diagnostics_bundle",
    "TELEMETRY",
    "Telemetry",
    "Tracer",
    "SpanRecord",
    "MetricsRegistry",
    "ProgressReporter",
    "TelemetryEnvelope",
    "TracedCall",
    "export_chrome_trace",
    "export_jsonl",
    "export_trace",
]
