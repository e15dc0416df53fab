"""Process-parallel execution of sweep work units.

:class:`SweepRunner` chunks are embarrassingly parallel: every chunk is a
pure function of ``(RolloutSpec, chunk_seeds)`` — per-replica RNG streams
are constructed from the seeds inside the chunk, so a chunk computes the
same bits whether it runs in the parent process or a worker.  This module
supplies the executor abstraction that ships those units out:

- :class:`SerialExecutor` — in-process loop; the ``n_jobs = 1`` path and
  the reference semantics;
- :class:`MultiprocessExecutor` — a stdlib :mod:`multiprocessing` pool of
  ``n_jobs`` workers; ``submit_all(...).get()`` preserves task order, so
  callers reassemble results in seed order for free.

Work functions must be module-level (picklable by reference) and their
arguments/results picklable by value — every runtime work unit
(``RolloutSpec``, seed lists, ``SeedRun``) is a plain dataclass/NumPy
composite, so this holds by construction; no sweep takes an in-process
callback.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..checks import check_count
from .telemetry import TELEMETRY, TracedCall


#: ceiling on the exponential retry backoff sleep (seconds)
RETRY_BACKOFF_CAP = 8.0


def retry_backoff_seconds(
    attempt: int, base: float, cap: float = RETRY_BACKOFF_CAP
) -> float:
    """Sleep before retry ``attempt`` (1-based): ``min(base *
    2**(attempt - 1), cap)``, and ``cap`` once that passes every float."""
    try:
        return min(math.ldexp(base, attempt - 1), cap)
    except OverflowError:
        return cap


class ChunkExecutionError(RuntimeError):
    """A work unit failed even after retries and an in-process rerun.

    Carries everything a checkpointing caller needs to salvage the run:

    Attributes
    ----------
    chunk_index:
        Submission-order index of the failing task.
    task:
        The failing task's argument tuple (its spec), so the error names
        *which* work unit died, not just that one did.
    completed:
        ``{chunk_index: result}`` for every task that finished before
        the failure surfaced — retrievable for checkpointing instead of
        discarded (tasks still in flight behind the failing one are not
        awaited).
    events:
        The retry/timeout/degrade decision log up to the failure.

    The original worker exception is chained as ``__cause__``.
    """

    def __init__(
        self,
        chunk_index: int,
        task: Tuple,
        completed: Dict[int, Any],
        events: List[Dict[str, Any]],
    ) -> None:
        self.chunk_index = int(chunk_index)
        self.task = task
        self.completed = completed
        self.events = events
        attempts = sum(
            1 for e in events
            if e.get("chunk") == chunk_index and e.get("action") == "retry"
        )
        super().__init__(
            f"chunk {chunk_index} failed after {attempts} pool retr"
            f"{'y' if attempts == 1 else 'ies'} and an in-process rerun "
            f"(task spec: {task!r}); {len(completed)} completed chunk "
            f"result(s) preserved on .completed"
        )


def _run_serially(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple],
    max_retries: int = 0,
    retry_backoff: float = 0.5,
    on_result: Optional[Callable[[int, Any], None]] = None,
    events: Optional[List[Dict[str, Any]]] = None,
) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """In-process reference execution with the same retry contract as
    the pool path (an exception is retried with capped backoff, then
    raises :class:`ChunkExecutionError` with completed results attached
    — in-process there is no cheaper mode left to degrade into)."""
    events = [] if events is None else events
    results: List[Any] = []
    for i, task in enumerate(tasks):
        attempt = 0
        while True:
            try:
                with TELEMETRY.span("chunk-run", cat="executor", chunk=i):
                    result = fn(*task)
                break
            except Exception as exc:
                if attempt >= max_retries:
                    raise ChunkExecutionError(
                        i, task, dict(enumerate(results)), events
                    ) from exc
                attempt += 1
                delay = retry_backoff_seconds(attempt, retry_backoff)
                events.append(TELEMETRY.resilience_event({
                    "chunk": i, "action": "retry", "attempt": attempt,
                    "backoff_seconds": delay, "where": "serial",
                }))
                time.sleep(delay)
        results.append(result)
        TELEMETRY.inc("executor.chunks_completed")
        if on_result is not None:
            on_result(i, result)
    return results, events


class AsyncTasks:
    """Handle for tasks submitted via :meth:`Executor.submit_all`.

    ``get()`` blocks until every task finishes and returns the results in
    submission order; it must be called exactly once (it releases the
    worker pool).  Collection is resilient when the submitting executor
    was configured so: a chunk whose worker raises is retried on the pool
    (capped-exponential backoff sleep) up to ``max_retries`` times and
    then rerun in-process serially; a chunk that exceeds the per-chunk
    ``timeout`` (including one whose worker died without reporting —
    e.g. ``os._exit``) is rerun in-process immediately, and the pool is
    torn down with ``terminate`` afterwards since a hung or dead worker
    slot cannot be reclaimed.  Every decision is recorded in
    :attr:`events` (and counted by telemetry); if even the
    in-process rerun fails, :class:`ChunkExecutionError` surfaces with
    the failing chunk's index/spec and all completed results attached.
    """

    def __init__(
        self,
        results: Optional[List[Any]] = None,
        pool: Any = None,
        handles: Optional[List[Any]] = None,
        fn: Optional[Callable[..., Any]] = None,
        tasks: Optional[Sequence[Tuple]] = None,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        on_result: Optional[Callable[[int, Any], None]] = None,
        events: Optional[List[Dict[str, Any]]] = None,
        calls: Optional[List[Callable[..., Any]]] = None,
    ) -> None:
        self._results = results
        self._pool = pool
        self._handles = handles
        self._fn = fn
        # per-task pool-shipped TracedCall wrappers; retries must
        # resubmit the same wrapper
        self._calls = calls
        self._tasks = list(tasks) if tasks is not None else None
        self._timeout = timeout
        self._max_retries = int(max_retries)
        self._retry_backoff = float(retry_backoff)
        self._on_result = on_result
        self._cancelled = False
        self._poisoned = False
        #: retry/timeout/degrade decision log (shared with the caller)
        self.events: List[Dict[str, Any]] = events if events is not None else []

    def get(self) -> List[Any]:
        """Results in submission order (blocking).

        Raises
        ------
        RuntimeError
            If the tasks were already abandoned via :meth:`cancel` —
            their results no longer exist, and waiting would hang.
        ChunkExecutionError
            If a chunk failed beyond recovery; completed results and the
            failing chunk's index/spec ride on the exception.
        """
        if self._cancelled:
            raise RuntimeError("tasks were cancelled; no results to get")
        if self._results is not None:
            return self._results
        results: List[Any] = []
        try:
            for i, handle in enumerate(self._handles):
                result = self._collect(i, handle, dict(enumerate(results)))
                results.append(result)
                TELEMETRY.inc("executor.chunks_completed")
                if self._on_result is not None:
                    self._on_result(i, result)
            return results
        except BaseException:
            # an aborted collection (KeyboardInterrupt / trapped signal /
            # ChunkExecutionError) leaves in-flight tasks behind — and a
            # Ctrl-C already hit the whole process group, so workers may
            # be dying mid-task; close()+join() would wait on results
            # that will never come.  terminate instead.
            self._poisoned = True
            raise
        finally:
            self._release(terminate=self._poisoned)

    def _collect(self, i: int, handle: Any, completed: Dict[int, Any]) -> Any:
        """One chunk's result, through the timeout/retry/degrade ladder."""
        attempt = 0
        while True:
            try:
                with TELEMETRY.span("collect", cat="executor", chunk=i,
                                    attempt=attempt):
                    if self._timeout is None:
                        return TELEMETRY.absorb_envelope(handle.get())
                    return TELEMETRY.absorb_envelope(
                        handle.get(self._timeout))
            except multiprocessing.TimeoutError:
                # the worker is hung or died silently; its slot is not
                # reclaimable, so rerun here and terminate the pool on
                # the way out rather than wait for a result that may
                # never come
                self._poisoned = True
                self.events.append(TELEMETRY.resilience_event({
                    "chunk": i, "action": "timeout",
                    "timeout_seconds": self._timeout,
                }))
                return self._degrade(i, completed)
            except Exception as exc:
                if attempt >= self._max_retries:
                    self.events.append(TELEMETRY.resilience_event({
                        "chunk": i, "action": "serial_degrade",
                        "error": repr(exc),
                    }))
                    return self._degrade(i, completed)
                attempt += 1
                delay = retry_backoff_seconds(attempt, self._retry_backoff)
                self.events.append(TELEMETRY.resilience_event({
                    "chunk": i, "action": "retry", "attempt": attempt,
                    "backoff_seconds": delay, "error": repr(exc),
                }))
                time.sleep(delay)
                handle = self._pool.apply_async(self._calls[i], self._tasks[i])

    def _degrade(self, i: int, completed: Dict[int, Any]) -> Any:
        """Last resort: run the chunk in-process, serially."""
        try:
            # the unwrapped fn: in-process, the parent tracer records
            # directly — no envelope round-trip needed
            with TELEMETRY.span("chunk-run", cat="executor", chunk=i,
                                degraded=True):
                return self._fn(*self._tasks[i])
        except Exception as exc:
            raise ChunkExecutionError(i, self._tasks[i], completed,
                                      self.events) from exc

    def cancel(self) -> None:
        """Abandon the submitted tasks and release the pool.

        For cleanup paths where the caller is already failing: workers
        are terminated rather than drained, so no result is produced and
        no process leaks.  Safe to call after ``get`` (no-op) or instead
        of it (a later ``get`` raises rather than hangs).
        """
        self._cancelled = self._results is None
        self._release(terminate=True)

    def _release(self, terminate: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            if terminate:
                pool.terminate()
            else:
                pool.close()
            pool.join()


class SerialExecutor:
    """In-process executor: the reference (and ``n_jobs = 1``) path."""

    n_jobs = 1

    def submit_all(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple],
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> AsyncTasks:
        """Eager serial execution behind the async-handle interface.

        Honors the same retry contract as the pool path (``timeout`` is
        meaningless in-process and ignored); failures raise
        :class:`ChunkExecutionError` here rather than from ``get()``.
        """
        results, events = _run_serially(
            fn, tasks, max_retries=max_retries, retry_backoff=retry_backoff,
            on_result=on_result,
        )
        return AsyncTasks(results=results, events=events)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class MultiprocessExecutor:
    """Stdlib :mod:`multiprocessing` pool executor.

    Parameters
    ----------
    n_jobs:
        Worker process count (>= 1).  The pool uses the platform's
        default start method (``fork`` on Linux, ``spawn`` elsewhere —
        work functions are module-level, so both work).
    """

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = check_count("n_jobs", n_jobs)

    def submit_all(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple],
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> AsyncTasks:
        """Dispatch tasks to workers; collect with :meth:`AsyncTasks.get`.

        Fewer than two tasks (or a single-worker pool) run eagerly
        in-process instead: pool spin-up costs more than a lone task
        could gain from a worker (``BENCH_engine.json``'s quick snapshot
        showed 2-job sweeps *slower* than serial for exactly this
        reason), and one worker parallelizes nothing.

        Tasks are shipped as individual ``apply_async`` submissions (not
        one ``starmap``) so collection can wait on, retry, and degrade
        each chunk independently: ``timeout`` bounds the wait for any
        single chunk's result, ``max_retries`` bounds pool resubmissions
        of a raising chunk (with ``retry_backoff``-based capped
        exponential sleeps), and a chunk that exhausts both reruns
        in-process serially rather than killing the sweep.  ``on_result``
        is invoked as ``on_result(index, result)`` when each chunk's
        result is collected, in submission order — the checkpoint
        journaling hook.
        """
        tasks = list(tasks)
        if len(tasks) < 2 or self.n_jobs == 1:
            results, events = _run_serially(
                fn, tasks, max_retries=max_retries,
                retry_backoff=retry_backoff, on_result=on_result,
            )
            return AsyncTasks(results=results, events=events)
        # ship each task under a TracedCall wrapper so the worker's
        # metrics (and, when tracing, its spans) come back with its
        # result (unwrapped at collect, before on_result — checkpoint
        # journals never see envelopes)
        calls = [TracedCall(fn, i) for i in range(len(tasks))]
        with TELEMETRY.span("pool-submit", cat="executor",
                            n_tasks=len(tasks), n_jobs=self.n_jobs):
            pool = multiprocessing.Pool(min(self.n_jobs, len(tasks)))
            handles = [pool.apply_async(call, task)
                       for call, task in zip(calls, tasks)]
        return AsyncTasks(
            pool=pool, handles=handles,
            fn=fn, tasks=tasks, timeout=timeout, max_retries=max_retries,
            retry_backoff=retry_backoff, on_result=on_result, calls=calls,
        )

    def __repr__(self) -> str:
        return f"MultiprocessExecutor(n_jobs={self.n_jobs})"


#: Executors accepted wherever an ``n_jobs`` knob is exposed.
Executor = Union[SerialExecutor, MultiprocessExecutor]

#: wall seconds a pool must save over serial execution to justify its
#: spin-up (~0.1-0.3 s; BENCH_{sim,fleet}.json showed 2-job sweeps of
#: tiny chunks *slower* than serial, 0.62-0.99x) — many small chunks
#: may still clear this bar together
MIN_POOL_SAVING_SECONDS = 0.3


def _host_cpu_count() -> int:
    """CPU count of this host (monkeypatchable seam for tests)."""
    return os.cpu_count() or 1


def resolve_n_jobs(
    n_jobs: int,
    est_chunk_seconds: float,
    n_tasks: int,
) -> Tuple[int, str]:
    """Degrade a requested ``n_jobs`` when a pool cannot pay for itself.

    Extends the ``submit_all`` short-circuit (fewer than two tasks / one
    worker) to whole sweeps: multiprocess dispatch is kept only when the
    host actually has more than one core *and* the estimated work is
    large enough to amortize pool spin-up and result pickling.  The test
    is the aggregate saving of ``n_tasks`` chunks of ``est_chunk_seconds``
    each at ``n_jobs`` workers against ``MIN_POOL_SAVING_SECONDS`` (so a
    sweep of many small chunks still parallelizes, while a handful of
    medium ones does not).

    Returns ``(effective_n_jobs, decision)`` where ``decision`` is one
    of ``"serial_requested"``, ``"single_core_host"``,
    ``"small_chunks"``, or ``"parallel"`` — the sweep runners record it
    in their result metadata so a degraded run is visible, not silent.
    """
    if n_jobs <= 1:
        return 1, "serial_requested"
    if _host_cpu_count() <= 1:
        return 1, "single_core_host"
    # n_tasks chunks across min(n_jobs, n_tasks) workers still take
    # ceil(n_tasks / n_jobs) rounds on the critical path
    rounds = -(-n_tasks // n_jobs)
    if est_chunk_seconds * (n_tasks - rounds) < MIN_POOL_SAVING_SECONDS:
        return 1, "small_chunks"
    return int(n_jobs), "parallel"


def get_executor(n_jobs: int = 1) -> Executor:
    """Executor for an ``n_jobs`` knob: 1 -> serial, > 1 -> process pool.

    Raises
    ------
    ValueError
        If ``n_jobs`` is not a positive integer.
    """
    n_jobs = check_count("n_jobs", n_jobs)
    if n_jobs == 1:
        return SerialExecutor()
    return MultiprocessExecutor(n_jobs)
