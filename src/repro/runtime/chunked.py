"""One chunked-sweep core behind every sweep runner.

A sweep is a list of cells, each run over the same replication seeds in
chunks.  Consecutive cells form groups of ``group_size`` cells that can
share work (the fleet and sim grids group their policy axis: one routed
or realized trace serves every policy), and one (group, seed-chunk)
pair is a work unit: a picklable task tuple for a module-level chunk
function that returns one result list per cell of its group, each with
one result per seed.  :class:`ChunkedRunner` owns what every runner
shares, once: the execution settings and their validation, chunking the
seeds into group-major tasks,
:func:`~repro.runtime.executor.resolve_n_jobs`,
:func:`~repro.runtime.checkpoint.run_chunks_checkpointed` (keyed by the
spec, the chunk width and the group layout), and, for every (cell,
seed) result, the always-on invariant pass (with a diagnostics bundle
on a violation), :func:`~repro.runtime.verify.shadow_verify_chunks`
with per-cell divergence labels, regrouping into per-cell lists in seed
order, and the metrics scope.

A runner is an adapter: it describes one sweep as a :class:`SweepPlan`
and wraps the per-cell lists in its own result type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..checks import check_count
from .checkpoint import run_chunks_checkpointed, spec_hash
from .executor import get_executor, resolve_n_jobs
from .telemetry import TELEMETRY
from .verify import (
    InvariantViolation,
    bundle_for_exception,
    shadow_verify_chunks,
    sweep_interrupts,
)


def chunk_seeds(seeds: List[int], size: int) -> List[List[int]]:
    """Consecutive seed chunks of at most ``size`` seeds."""
    return [seeds[i:i + size] for i in range(0, len(seeds), size)]


def one_cell(fn: Callable[..., List[Any]]) -> Callable[..., List[List[Any]]]:
    """A one-cell chunk function (one result per seed) in the plan's
    per-group shape; picklable whenever ``fn`` is."""
    return partial(_one_cell, fn)


def _one_cell(fn: Callable[..., List[Any]], *task: Any) -> List[List[Any]]:
    return [fn(*task)]


@dataclass
class SweepPlan:
    """What one runner supplies for one sweep."""

    #: identity of the whole sweep: hashed with ``chunk_size`` and
    #: ``group_size`` into the journal / shadow-sample key and written
    #: into diagnostics bundles
    spec: Any
    cells: Sequence[Any]
    seeds: List[int]
    chunk_size: int
    #: ``fn(*task)`` -> one result list per cell of the task's group,
    #: each holding one result per seed of the task's chunk
    fn: Callable[..., List[List[Any]]]
    #: ``task(group_cells, chunk_seeds)`` -> the picklable work-unit tuple
    task: Callable[[Sequence[Any], List[int]], Tuple]
    #: position of the chunk's seed list in a task tuple
    seeds_at: int
    #: ``check(result, cell, seed, chunk_index, spec_key)``; raises
    #: :class:`~repro.runtime.verify.InvariantViolation`
    check: Callable[[Any, Any, int, int, str], None]
    #: shadow reference (same signature and result shape as ``fn``);
    #: ``None`` = none exists
    reference: Optional[Callable[..., List[List[Any]]]] = None
    reference_name: str = ""
    #: ``rtol`` / ``atol`` for the shadow comparison
    compare: Dict[str, Any] = field(default_factory=dict)
    #: estimated wall seconds of one work unit (for ``resolve_n_jobs``)
    estimate: Optional[float] = None
    #: consecutive cells sharing one work unit (divides the cell count)
    group_size: int = 1

    def tasks(self) -> List[Tuple]:
        """Every work unit, group-major and chunk-minor."""
        chunks = chunk_seeds(self.seeds, self.chunk_size)
        size = self.group_size
        return [self.task(self.cells[g:g + size], c)
                for g in range(0, len(self.cells), size) for c in chunks]

    def key(self) -> str:
        """Journal / shadow-sample key: the spec and the task layout."""
        return spec_hash(self.spec, self.chunk_size, self.group_size)


class ChunkedRunner:
    """Execution settings and the run skeleton the sweep runners share.

    Subclasses keep their own constructor signature and call
    :meth:`_configure`; their public run method builds a
    :class:`SweepPlan` and hands it to :meth:`_sweep`.  The settings:

    n_jobs:
        Worker processes to shard work units across (1 = in-process).
        Work units are pure functions of their task tuple, so results
        are bit-identical for every ``(chunk width, n_jobs)``.  With a
        cost estimate in the plan, a pool that cannot pay for itself
        degrades to in-process (``execution["decision"]``).
    timeout:
        Per-chunk wall-second bound when collecting pool results; a
        chunk exceeding it (hung or silently-dead worker) reruns
        in-process (see :meth:`MultiprocessExecutor.submit_all`).
    max_retries:
        Pool resubmissions of a chunk whose worker raised, before the
        chunk degrades to an in-process rerun.
    retry_backoff:
        Base of the capped-exponential sleep between retries.
    checkpoint:
        Path of a chunk-result journal: completed chunks are skipped on
        the next run with the same spec and chunk width, and resumed
        results are bit-identical to an uninterrupted run.
    verify_fraction:
        Fraction of work units to re-run on the runner's reference path
        and compare field for field (a deterministic sample of the
        spec).  A divergence raises
        :class:`~repro.runtime.verify.InvariantViolation`; the sample and
        outcome land in ``execution["verification"]``.
    diagnostics_dir:
        Directory for minimal-repro JSON bundles written on invariant
        violations, shadow divergences, and unrecoverable chunk
        failures.
    """

    def _configure(self, size_name: str, size: int, n_jobs: int,
                   timeout: Optional[float] = None, max_retries: int = 0,
                   retry_backoff: float = 0.5,
                   checkpoint: Optional[str] = None,
                   verify_fraction: float = 0.0,
                   diagnostics_dir: Optional[str] = None) -> None:
        setattr(self, size_name, check_count(size_name, size))
        self.n_jobs = check_count("n_jobs", n_jobs)
        if not 0.0 <= float(verify_fraction) <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}"
            )
        self.timeout = timeout
        self.max_retries = check_count("max_retries", max_retries, 0)
        self.retry_backoff = float(retry_backoff)
        self.checkpoint = checkpoint
        self.verify_fraction = float(verify_fraction)
        self.diagnostics_dir = diagnostics_dir

    def _sweep(self, kind: str, plan: SweepPlan,
               **span: Any) -> Tuple[List[List[Any]], Dict[str, Any]]:
        """Run ``plan``: ``(per-cell result lists, execution block)``."""
        requested = self.n_jobs
        tasks = plan.tasks()
        if plan.estimate is None:  # no cost model: honour the request
            n_jobs = requested
            decision = "parallel" if requested > 1 else "serial_requested"
        else:
            n_jobs, decision = resolve_n_jobs(requested, plan.estimate,
                                              len(tasks))
        execution: Dict[str, Any] = {"n_jobs_requested": requested,
                                     "n_jobs_effective": n_jobs,
                                     "decision": decision}
        if plan.estimate is not None:
            execution["estimated_chunk_seconds"] = plan.estimate
        spec_key = plan.key()
        with TELEMETRY.metrics_scope() as metrics:
            TELEMETRY.inc(f"executor.decision.{decision}")
            with TELEMETRY.span("sweep", cat="sweep", kind=kind,
                                n_jobs=requested, **span):
                outputs, executed = run_chunks_checkpointed(
                    get_executor(n_jobs), plan.fn, tasks, spec_key=spec_key,
                    checkpoint=self.checkpoint, timeout=self.timeout,
                    max_retries=self.max_retries,
                    retry_backoff=self.retry_backoff,
                    diagnostics_dir=self.diagnostics_dir, spec=plan.spec,
                )
                shares = _cell_results(plan, tasks, outputs)
                # every chunk is in (and journaled) from here on
                with sweep_interrupts(len(tasks), lambda: len(tasks),
                                      self.checkpoint):
                    self._check_invariants(plan, spec_key, shares)
                    if self.verify_fraction > 0.0 and plan.reference:
                        execution["verification"] = self._verify(
                            plan, spec_key, tasks, shares)
        execution.update(executed, metrics=metrics.snapshot())
        per_cell: List[List[Any]] = [[] for _ in plan.cells]
        for per_task in shares:
            for c, _, results in per_task:
                per_cell[c].extend(results)
        return per_cell, execution

    def _check_invariants(self, plan: SweepPlan, spec_key: str,
                          shares: List[List[CellChunk]]) -> None:
        """Always-on invariant pass over every collected result: the
        conservation laws hold for any correct engine, so the check
        costs a field walk per result, not a re-simulation."""
        try:
            for t, per_task in enumerate(shares):
                for c, seeds, results in per_task:
                    for seed, result in zip(seeds, results):
                        plan.check(result, plan.cells[c], seed, t, spec_key)
        except InvariantViolation as exc:
            if self.diagnostics_dir is not None:
                bundle_for_exception(self.diagnostics_dir, exc,
                                     spec=plan.spec, spec_key=spec_key)
            raise

    def _verify(self, plan: SweepPlan, spec_key: str, tasks: List[Tuple],
                shares: List[List[CellChunk]]) -> Dict[str, Any]:
        reference = plan.reference
        return shadow_verify_chunks(
            tasks, [[r for _, _, results in per_task for r in results]
                    for per_task in shares],
            self.verify_fraction, spec_key,
            lambda *task: [r for results in reference(*task) for r in results],
            plan.reference_name,
            labels_of=lambda t: [{"cell": c, "seed": seed}
                                 for c, seeds, _ in shares[t]
                                 for seed in seeds],
            diagnostics_dir=self.diagnostics_dir, spec=plan.spec,
            **plan.compare,
        )


#: one cell's share of one task: ``(cell index, chunk seeds, results)``
CellChunk = Tuple[int, List[int], List[Any]]


def _cell_results(plan: SweepPlan, tasks: List[Tuple],
                  outputs: List[List[List[Any]]]) -> List[List[CellChunk]]:
    """Each task's output split by cell, in task order."""
    size = plan.group_size
    n_chunks = len(tasks) // (len(plan.cells) // size)
    return [
        [(t // n_chunks * size + i, task[plan.seeds_at], results)
         for i, results in enumerate(out)]
        for t, (task, out) in enumerate(zip(tasks, outputs))
    ]
