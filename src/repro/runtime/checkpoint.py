"""Checkpoint/resume for chunked sweeps: an append-only result journal.

A sweep is a list of pure work units (chunks); each chunk's result is a
pure function of its picklable argument tuple.  That makes resumption
trivially sound: journal every completed chunk result keyed by
``(spec-hash, chunk-id)``, and on restart recompute only the chunks the
journal does not already hold — the merged results are bit-identical to
an uninterrupted run because *which process computed a chunk, and when,
never influences its bits* (the determinism contract the executor layer
already guarantees for any ``(chunk_size, n_jobs)``).

The journal is a single file of consecutive :mod:`pickle` records,
appended and flushed (+ fsynced) per chunk, so a run killed mid-sweep
loses at most the chunk in flight.  Two corruption modes are handled
separately:

- a **torn tail** — the kill arriving mid-write — breaks the outer
  pickle framing and ends the scan silently; every complete record
  before it is still honored;
- a **corrupt record body** — bit rot, a partial overwrite — is caught
  by the per-record CRC32 checksum each record carries: the outer
  framing still parses, the checksum mismatch is warned about, and the
  scan *continues* past it (a torn tail can only lose the final chunk;
  bit rot can hit any record).  Journals written before the checksum
  existed load unchanged.

The spec hash stored in every record guards against resuming with a
different sweep configuration: :func:`run_chunks_checkpointed` raises
:class:`CheckpointMismatchError` — instead of silently recomputing
everything — when an existing journal holds valid records but none for
the current spec key.  The hash must cover everything that shapes the
task list, including the chunk size, since chunk identity (not just
cell identity) is the journal key.

:func:`run_chunks_checkpointed` is also where sweeps become
interrupt-safe: SIGINT/SIGTERM during chunk collection tears the pool
down cleanly and surfaces as
:class:`~repro.runtime.verify.SweepInterrupted` with a one-line resume
hint — every chunk journaled before the signal is preserved, so the
resumed run completes bit-identically.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
import zlib
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from .executor import ChunkExecutionError, Executor
from .telemetry import TELEMETRY
from .verify import sweep_interrupts


def spec_hash(*parts: Any) -> str:
    """Deterministic digest of picklable spec components.

    Pickle bytes of plain dataclasses / primitives are stable across
    runs and processes (insertion-ordered dicts, no address-dependent
    state), so the digest is a reliable identity for "the same sweep
    configuration".  Pass every input that shapes the task list —
    the spec itself *and* the chunking parameters.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(pickle.dumps(part, protocol=4))
    return digest.hexdigest()[:16]


class CheckpointMismatchError(RuntimeError):
    """An existing journal holds no records for the current spec key.

    Resuming would silently recompute the whole sweep while appending a
    second configuration's records to a journal the operator believes
    matches — almost always a changed spec or chunk size, or the wrong
    ``--checkpoint`` path.  Start a fresh journal (the CLI's
    non-``--resume`` path truncates automatically) or point at the
    right one.
    """

    def __init__(self, path: Union[str, Path], spec_key: str,
                 found_keys: Sequence[str]) -> None:
        self.path = str(path)
        self.spec_key = str(spec_key)
        self.found_keys = sorted(set(found_keys))
        super().__init__(
            f"checkpoint journal {self.path} holds no records for spec "
            f"{self.spec_key} (found spec keys: "
            f"{', '.join(self.found_keys)}) — the sweep configuration or "
            f"chunk size changed, or this is the wrong journal; delete "
            f"the file or drop --resume to start fresh"
        )


class CheckpointJournal:
    """Append-only ``(spec-hash, chunk-id) -> result`` journal file."""

    def __init__(self, path: Union[str, Path], spec_key: str) -> None:
        self.path = Path(path)
        self.spec_key = str(spec_key)

    def scan(self) -> Tuple[Dict[int, Any], Set[str], int]:
        """Full journal scan: ``(results, seen_spec_keys, n_corrupt)``.

        ``results`` holds this spec key's completed chunks;
        ``seen_spec_keys`` every spec key with at least one valid record
        (so callers can distinguish "empty journal" from "journal for a
        different sweep"); ``n_corrupt`` counts checksum-failed records
        that were skipped.  A truncated trailing record (interrupted
        mid-write) ends the scan silently — every complete record
        before it is still honored.
        """
        results: Dict[int, Any] = {}
        seen: Set[str] = set()
        n_corrupt = 0
        if not self.path.exists():
            return results, seen, n_corrupt
        with open(self.path, "rb") as fh:
            while True:
                try:
                    framed = pickle.load(fh)
                except EOFError:
                    break
                except (pickle.UnpicklingError, AttributeError, ValueError,
                        IndexError, ImportError):
                    # torn tail: the writer died mid-record
                    break
                record = self._unwrap(framed)
                if record is None:
                    n_corrupt += 1
                    continue
                key = record.get("spec")
                if key is not None:
                    seen.add(key)
                if key == self.spec_key:
                    results[int(record["chunk"])] = record["result"]
        if n_corrupt:
            warnings.warn(
                f"checkpoint journal {self.path}: skipped {n_corrupt} "
                f"corrupt record(s) (CRC mismatch); the affected chunks "
                f"will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
        return results, seen, n_corrupt

    def load(self) -> Dict[int, Any]:
        """Completed chunk results recorded for this spec key.

        Records from other spec keys are skipped, checksum-failed
        records are skipped with a warning, and a truncated trailing
        record ends the scan silently.
        """
        return self.scan()[0]

    @staticmethod
    def _unwrap(framed: Any) -> Optional[Dict[str, Any]]:
        """Inner record of one framed journal entry, or ``None`` when
        the entry fails its checksum (corrupt body, intact framing)."""
        if not isinstance(framed, dict):
            return None
        if "payload" in framed:
            payload = framed["payload"]
            if zlib.crc32(payload) != framed.get("crc"):
                return None
            try:
                record = pickle.loads(payload)
            except Exception:
                return None
            return record if isinstance(record, dict) else None
        # legacy checksum-less record: the dict is the record itself
        return framed if "spec" in framed else None

    def append(self, chunk_id: int, result: Any) -> None:
        """Durably record one completed chunk result.

        The record body is pickled first and wrapped with its CRC32, so
        a reader can tell a corrupt body from a valid one without
        trusting the bytes it is about to unpickle.
        """
        payload = pickle.dumps(
            {"spec": self.spec_key, "chunk": int(chunk_id),
             "result": result},
            protocol=4,
        )
        framed = {"crc": zlib.crc32(payload), "payload": payload}
        with open(self.path, "ab") as fh:
            pickle.dump(framed, fh, protocol=4)
            fh.flush()
            os.fsync(fh.fileno())


def run_chunks_checkpointed(
    executor: Executor,
    fn: Callable[..., Any],
    tasks: Sequence[Tuple],
    spec_key: str,
    checkpoint: Optional[Union[str, Path]] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.5,
    diagnostics_dir: Optional[Union[str, Path]] = None,
    spec: Any = None,
) -> Tuple[List[Any], Dict[str, Any]]:
    """Run chunked work units with optional resilience and checkpointing.

    The execute step of the shared sweep core
    (:mod:`repro.runtime.chunked`): fan ``tasks`` across ``executor``
    with the per-chunk ``timeout`` / ``max_retries`` / ``retry_backoff``
    contract of
    :meth:`~repro.runtime.executor.MultiprocessExecutor.submit_all`, and
    — when ``checkpoint`` names a journal file — skip chunks already
    recorded under ``spec_key`` and journal each fresh result as it is
    collected.  Returns ``(results, execution)``: results in task order,
    and resumed/computed chunk counts plus the retry/timeout/degrade
    event log.

    SIGINT or SIGTERM tears the pool down and raises
    :class:`~repro.runtime.verify.SweepInterrupted` with how many chunks
    were journaled (each was fsynced on collection) and where.

    With ``diagnostics_dir`` set, an unrecoverable
    :class:`~repro.runtime.executor.ChunkExecutionError` additionally
    writes a minimal-repro JSON bundle (``spec`` rides along for the
    bundle's spec field) before propagating.

    Raises :class:`CheckpointMismatchError` when an existing journal
    holds valid records but none for ``spec_key`` — a silent full
    recompute is almost always a misconfiguration, not an intent.

    Chunk identity is positional: ``tasks[i]`` must be the same work
    unit on every invocation with the same ``spec_key`` (hash the
    chunking parameters into the key to guarantee it).
    """
    tasks = list(tasks)
    journal = None
    done: Dict[int, Any] = {}
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint, spec_key)
        recorded, seen_keys, _ = journal.scan()
        if tasks and seen_keys and spec_key not in seen_keys:
            raise CheckpointMismatchError(checkpoint, spec_key, seen_keys)
        done = {i: r for i, r in recorded.items() if i < len(tasks)}
    todo = [i for i in range(len(tasks)) if i not in done]
    TELEMETRY.inc("checkpoint.chunks_resumed", len(done))
    TELEMETRY.inc("checkpoint.chunks_computed", len(todo))

    # journaled-progress counter shared with the interrupt path: each
    # collected chunk bumps it *after* the journal fsync, so the resume
    # hint never overstates what survived
    progress = [len(done)]
    reporter = TELEMETRY.progress_reporter(
        total=len(tasks), done=len(done),
        workers=getattr(executor, "n_jobs", 1), label="sweep",
    )

    def on_result(j: int, result: Any) -> None:
        if journal is not None:
            journal.append(todo[j], result)
        progress[0] += 1
        if reporter is not None:
            reporter.update(progress[0])

    try:
        with sweep_interrupts(len(tasks), lambda: progress[0], checkpoint):
            pending = executor.submit_all(
                fn, [tasks[i] for i in todo],
                timeout=timeout, max_retries=max_retries,
                retry_backoff=retry_backoff, on_result=on_result,
            )
            fresh = pending.get()
        if reporter is not None:
            reporter.finish()
    except ChunkExecutionError as exc:
        # re-key from the submitted-subset index space to task order,
        # so the error names the chunk the caller knows (completed
        # results were already journaled via on_result, so a resumed
        # run picks up right behind the failure)
        remapped = ChunkExecutionError(
            todo[exc.chunk_index], exc.task,
            {todo[j]: r for j, r in exc.completed.items()}, exc.events,
        )
        if diagnostics_dir is not None:
            from .verify import bundle_for_exception

            bundle_for_exception(diagnostics_dir, remapped, spec=spec,
                                 spec_key=spec_key)
        raise remapped from exc.__cause__
    results = list(done.get(i) for i in range(len(tasks)))
    for j, i in enumerate(todo):
        results[i] = fresh[j]
    execution: Dict[str, Any] = {
        "resumed_chunks": len(done),
        "computed_chunks": len(todo),
    }
    if checkpoint is not None:
        execution["checkpoint"] = str(checkpoint)
    return results, execution
