"""Executor failure paths and sweep checkpoint/resume.

The resilience contract of :meth:`Executor.submit_all`: a chunk whose
worker raises is retried on the pool with capped-exponential backoff up
to ``max_retries`` times, then degrades to an in-process serial rerun;
a chunk that exceeds the per-chunk ``timeout`` (hung worker, or one
that died without reporting — ``os._exit``) reruns in-process
immediately; a chunk that fails even in-process surfaces
:class:`ChunkExecutionError` carrying the failing chunk's index/spec
and every completed result.  On top of that,
:func:`run_chunks_checkpointed` journals completed chunk results so an
interrupted sweep resumes without recomputation — bit-identically, for
every ``(chunk_size, n_jobs)``.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import AlwaysOn, FixedTimeout
from repro.runtime import (
    RolloutSpec,
    SweepRunner,
    CheckpointJournal,
    CheckpointMismatchError,
    ChunkExecutionError,
    MultiprocessExecutor,
    PolicySpec,
    SerialExecutor,
    SimSweepRunner,
    SimSweepSpec,
    TraceSpec,
    run_chunks_checkpointed,
    run_sim_chunk,
    spec_hash,
)
from repro.runtime.executor import RETRY_BACKOFF_CAP, retry_backoff_seconds
from repro.runtime.verify import compare_reports
from repro.workload import ConstantRate, Exponential

# --------------------------------------------------------------------- #
# module-level work functions (picklable by reference)
# --------------------------------------------------------------------- #


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"chunk for {x} always fails")


def _boom_if_negative(x):
    if x < 0:
        raise ValueError(f"bad input {x}")
    return x * x


def _fail_until(x, marker_path, n_failures):
    """Fails its first ``n_failures`` invocations (counted via a marker
    file shared across processes), then succeeds."""
    with open(marker_path, "ab") as fh:
        fh.write(b"x")
        fh.flush()
        os.fsync(fh.fileno())
    if os.path.getsize(marker_path) <= n_failures:
        raise RuntimeError(f"transient failure for {x}")
    return x * x


def _worker_only_failure(x, parent_pid):
    """Raises in pool workers, succeeds in the parent process — the
    shape that exercises the serial-degrade rung specifically."""
    if os.getpid() != parent_pid:
        raise RuntimeError("worker environment broken")
    return x * x


def _die_in_worker(x, parent_pid):
    """Kills the worker process without reporting back (the pool never
    sets the task's result); harmless in the parent."""
    if os.getpid() != parent_pid:
        os._exit(13)
    return x * x


def _hang_in_worker(x, parent_pid):
    if os.getpid() != parent_pid:
        import time

        time.sleep(60.0)
    return x * x


# --------------------------------------------------------------------- #
# backoff schedule
# --------------------------------------------------------------------- #


class TestRetryBackoff:
    def test_capped_exponential(self):
        delays = [retry_backoff_seconds(k, 0.5) for k in range(1, 7)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]
        assert max(delays) == RETRY_BACKOFF_CAP

    def test_custom_cap(self):
        assert retry_backoff_seconds(10, 1.0, cap=2.5) == 2.5

    @pytest.mark.parametrize("base, cap", [
        (0.5, RETRY_BACKOFF_CAP), (1e-3, 1e300), (5e-324, 8.0),
        (0.25, math.inf), (0.0, 8.0),
    ])
    def test_exact_capped_doubling(self, base, cap):
        """Every delay is min(base * 2**(k-1), cap) in exact rational
        arithmetic, through attempt 1,025, where 2.0 ** (k - 1) stops
        being a float, and on to 3,000."""
        for k in range(1, 3001):
            doubled = Fraction(base) * 2 ** (k - 1)
            want = (cap if doubled > min(cap, sys.float_info.max)
                    else float(doubled))
            assert retry_backoff_seconds(k, base, cap) == want, k


# --------------------------------------------------------------------- #
# serial executor: retry then ChunkExecutionError
# --------------------------------------------------------------------- #


class TestSerialFailurePaths:
    def test_transient_failure_retried(self, tmp_path):
        marker = tmp_path / "attempts"
        pending = SerialExecutor().submit_all(
            _fail_until, [(3, str(marker), 1)],
            max_retries=2, retry_backoff=0.001,
        )
        assert pending.get() == [9]
        retries = [e for e in pending.events if e["action"] == "retry"]
        assert len(retries) == 1
        assert retries[0]["chunk"] == 0

    def test_exhausted_retries_raise_with_completed_results(self):
        with pytest.raises(ChunkExecutionError) as err:
            SerialExecutor().submit_all(
                _boom_if_negative, [(2,), (-1,), (4,)], max_retries=1,
                retry_backoff=0.001,
            )
        exc = err.value
        assert exc.chunk_index == 1
        assert exc.task == (-1,)
        assert exc.completed == {0: 4}
        assert isinstance(exc.__cause__, ValueError)
        assert [e["action"] for e in exc.events] == ["retry"]

    def test_zero_retries_fail_immediately(self):
        with pytest.raises(ChunkExecutionError) as err:
            SerialExecutor().submit_all(_boom, [(1,)])
        assert err.value.events == []


# --------------------------------------------------------------------- #
# pool executor: retry ladder, serial degrade, timeout rescue
# --------------------------------------------------------------------- #


class TestPoolFailurePaths:
    def test_transient_worker_failure_retried_on_pool(self, tmp_path):
        tasks = [
            (x, str(tmp_path / f"marker{x}"), 1) for x in (2, 3, 4)
        ]
        pending = MultiprocessExecutor(2).submit_all(
            _fail_until, tasks, max_retries=3, retry_backoff=0.001,
        )
        assert pending.get() == [4, 9, 16]
        assert all(e["action"] == "retry" for e in pending.events)
        assert {e["chunk"] for e in pending.events} == {0, 1, 2}

    def test_retries_past_the_overflow_of_the_doubling(self, tmp_path):
        """A chunk that fails 1,030 times on the pool keeps retrying
        past attempt 1,025 and then succeeds, in-process too."""
        tasks = [(2, str(tmp_path / "marker0"), 1030),
                 (3, str(tmp_path / "marker1"), 0)]
        for executor in (MultiprocessExecutor(2), SerialExecutor()):
            for marker in tmp_path.iterdir():
                marker.unlink()
            pending = executor.submit_all(
                _fail_until, tasks, max_retries=1100, retry_backoff=0.0,
            )
            assert pending.get() == [4, 9]
            retries = [e for e in pending.events if e["action"] == "retry"]
            assert [e["attempt"] for e in retries] == list(range(1, 1031))
            assert {e["backoff_seconds"] for e in retries} == {0.0}

    def test_persistent_worker_failure_degrades_to_in_process(self):
        tasks = [(x, os.getpid()) for x in (2, 3, 4)]
        pending = MultiprocessExecutor(2).submit_all(
            _worker_only_failure, tasks, max_retries=1, retry_backoff=0.001,
        )
        assert pending.get() == [4, 9, 16]
        degrades = [e for e in pending.events if e["action"] == "serial_degrade"]
        retries = [e for e in pending.events if e["action"] == "retry"]
        assert {e["chunk"] for e in degrades} == {0, 1, 2}
        assert all(r["attempt"] == 1 for r in retries)

    def test_unrecoverable_chunk_raises_with_completed_results(self):
        pending = MultiprocessExecutor(2).submit_all(
            _boom_if_negative, [(2,), (-5,), (4,)], max_retries=0,
        )
        with pytest.raises(ChunkExecutionError) as err:
            pending.get()
        exc = err.value
        assert exc.chunk_index == 1
        assert exc.task == (-5,)
        assert exc.completed == {0: 4}
        assert "chunk 1 failed" in str(exc)

    def test_dead_worker_rescued_by_timeout(self):
        tasks = [(x, os.getpid()) for x in (2, 3, 4)]
        pending = MultiprocessExecutor(2).submit_all(
            _die_in_worker, tasks, timeout=1.0,
        )
        assert pending.get() == [4, 9, 16]
        assert {e["action"] for e in pending.events} == {"timeout"}

    def test_hung_worker_rescued_by_timeout(self):
        tasks = [(x, os.getpid()) for x in (2, 3)]
        pending = MultiprocessExecutor(2).submit_all(
            _hang_in_worker, tasks, timeout=1.0,
        )
        assert pending.get() == [4, 9]
        timeouts = [e for e in pending.events if e["action"] == "timeout"]
        assert timeouts and timeouts[0]["timeout_seconds"] == 1.0

    def test_healthy_tasks_record_no_events(self):
        pending = MultiprocessExecutor(2).submit_all(
            _square, [(x,) for x in range(4)], timeout=30.0, max_retries=2,
        )
        assert pending.get() == [0, 1, 4, 9]
        assert pending.events == []


# --------------------------------------------------------------------- #
# checkpoint journal + run_chunks_checkpointed
# --------------------------------------------------------------------- #


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ck.pkl", "spec-a")
        journal.append(0, [1, 2])
        journal.append(2, [3])
        assert journal.load() == {0: [1, 2], 2: [3]}

    def test_foreign_spec_records_skipped(self, tmp_path):
        path = tmp_path / "ck.pkl"
        CheckpointJournal(path, "spec-a").append(0, "a0")
        CheckpointJournal(path, "spec-b").append(0, "b0")
        assert CheckpointJournal(path, "spec-a").load() == {0: "a0"}
        assert CheckpointJournal(path, "spec-b").load() == {0: "b0"}

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "ck.pkl"
        journal = CheckpointJournal(path, "spec-a")
        journal.append(0, "first")
        journal.append(1, "second")
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])  # writer died mid-record
        assert journal.load() == {0: "first"}

    def test_missing_file_is_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.pkl", "k").load() == {}

    def test_corrupt_record_body_skipped_with_warning(self, tmp_path):
        # bit rot inside a record's payload fails its CRC but leaves the
        # outer framing intact: the scan warns, skips it, and keeps the
        # records on both sides (a torn tail can only lose the last one)
        path = tmp_path / "ck.pkl"
        journal = CheckpointJournal(path, "spec-a")
        journal.append(0, "first")
        offset_before = path.stat().st_size
        journal.append(1, "second-" * 40)
        offset_after = path.stat().st_size
        journal.append(2, "third")
        raw = bytearray(path.read_bytes())
        mid = (offset_before + offset_after) // 2
        raw[mid] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            results, seen, n_corrupt = CheckpointJournal(path, "spec-a").scan()
        assert n_corrupt == 1
        assert results == {0: "first", 2: "third"}
        assert seen == {"spec-a"}

    def test_legacy_unframed_records_still_load(self, tmp_path):
        # journals written before the CRC framing hold the record dict
        # directly; they must keep loading unchanged
        path = tmp_path / "ck.pkl"
        with open(path, "ab") as fh:
            pickle.dump({"spec": "spec-a", "chunk": 0, "result": "old"},
                        fh, protocol=4)
        CheckpointJournal(path, "spec-a").append(1, "new")
        assert CheckpointJournal(path, "spec-a").load() == {0: "old", 1: "new"}

    def test_spec_hash_is_deterministic_and_sensitive(self):
        spec = SimSweepSpec(
            devices=("mobile_hdd",),
            traces=(TraceSpec("exp", Exponential(0.1), 100.0),),
            policies=(PolicySpec("on", AlwaysOn()),),
        )
        assert spec_hash(spec, 4) == spec_hash(spec, 4)
        assert spec_hash(spec, 4) != spec_hash(spec, 2)


class TestRunChunksCheckpointed:
    def test_failure_preserves_journal_then_resumes(self, tmp_path):
        ck = tmp_path / "ck.pkl"
        tasks = [(2,), (-1,), (4,)]
        with pytest.raises(ChunkExecutionError) as err:
            run_chunks_checkpointed(
                SerialExecutor(), _boom_if_negative, tasks, "k",
                checkpoint=ck,
            )
        # the error names the chunk in global task order, and the chunk
        # that completed before the failure is already journaled
        assert err.value.chunk_index == 1
        assert CheckpointJournal(ck, "k").load() == {0: 4}
        results, execution = run_chunks_checkpointed(
            SerialExecutor(), _square, [(2,), (1,), (4,)], "k",
            checkpoint=ck,
        )
        assert results == [4, 1, 16]
        assert execution["resumed_chunks"] == 1
        assert execution["computed_chunks"] == 2

    def test_error_index_remapped_to_task_order(self, tmp_path):
        ck = tmp_path / "ck.pkl"
        CheckpointJournal(ck, "k").append(0, 99)  # chunk 0 pre-done
        with pytest.raises(ChunkExecutionError) as err:
            run_chunks_checkpointed(
                SerialExecutor(), _boom_if_negative,
                [(2,), (3,), (-7,)], "k", checkpoint=ck,
            )
        assert err.value.chunk_index == 2
        assert err.value.task == (-7,)
        assert err.value.completed == {1: 9}

    def test_full_journal_skips_all_work(self, tmp_path):
        ck = tmp_path / "ck.pkl"
        results, _ = run_chunks_checkpointed(
            SerialExecutor(), _square, [(2,), (3,)], "k", checkpoint=ck,
        )
        rerun, execution = run_chunks_checkpointed(
            SerialExecutor(), _boom, [(2,), (3,)], "k", checkpoint=ck,
        )
        assert rerun == results
        assert execution["computed_chunks"] == 0

    def test_no_checkpoint_passthrough(self):
        results, execution = run_chunks_checkpointed(
            SerialExecutor(), _square, [(3,)], "k",
        )
        assert results == [9]
        assert "checkpoint" not in execution

    def test_pool_execution_journals_in_submission_order(self, tmp_path):
        ck = tmp_path / "ck.pkl"
        results, execution = run_chunks_checkpointed(
            MultiprocessExecutor(2), _square, [(x,) for x in range(5)],
            "k", checkpoint=ck,
        )
        assert results == [0, 1, 4, 9, 16]
        assert CheckpointJournal(ck, "k").load() == dict(
            enumerate([0, 1, 4, 9, 16])
        )
        assert execution["computed_chunks"] == 5


# --------------------------------------------------------------------- #
# sweep runners: checkpoint/resume bit-identity
# --------------------------------------------------------------------- #


def _sim_spec() -> SimSweepSpec:
    return SimSweepSpec(
        devices=("mobile_hdd",),
        traces=(TraceSpec("exp", Exponential(0.1), 300.0),),
        policies=(
            PolicySpec("always_on", AlwaysOn()),
            PolicySpec("timeout", FixedTimeout()),
        ),
        n_traces=4,
        seed=7,
        seed_stride=13,
        service_time=0.3,
    )


class TestSimSweepCheckpointResume:
    @pytest.mark.parametrize("chunk_size,n_jobs", [(1, 1), (2, 1), (2, 2)])
    def test_interrupted_run_resumes_bit_identically(
        self, tmp_path, chunk_size, n_jobs
    ):
        spec = _sim_spec()
        reference = SimSweepRunner(chunk_size=chunk_size).run(spec)

        # simulate a run killed mid-sweep: journal only a prefix of the
        # chunk results (computed through the real worker fn), exactly
        # what an interrupted checkpointed run leaves behind
        seeds = spec.seeds()
        chunks = [
            seeds[i:i + chunk_size] for i in range(0, len(seeds), chunk_size)
        ]
        # one task per (device, trace family, chunk): the policy axis
        # is one cell group
        tasks = []
        for device in spec.devices:
            for trace_spec in spec.traces:
                for chunk in chunks:
                    tasks.append((device, spec.policies, trace_spec,
                                  spec.service_time, chunk))
        ck = tmp_path / "sweep.ck"
        journal = CheckpointJournal(
            ck, spec_hash(spec, chunk_size, len(spec.policies)))
        n_prefix = len(tasks) // 2
        for i in range(n_prefix):
            journal.append(i, run_sim_chunk(*tasks[i]))

        runner = SimSweepRunner(
            chunk_size=chunk_size, n_jobs=n_jobs, checkpoint=str(ck)
        )
        resumed = runner.run(spec)
        assert resumed.execution["resumed_chunks"] == n_prefix
        assert resumed.execution["computed_chunks"] == len(tasks) - n_prefix
        for a, b in zip(reference.cells, resumed.cells):
            assert (a.device, a.trace, a.policy) == (b.device, b.trace, b.policy)
            assert a.reports == b.reports  # dataclass equality, exact

    def test_different_chunk_size_rejects_journal(self, tmp_path):
        # a journal whose records all belong to a different sweep spec
        # (here: another chunk size) is a configuration error, not a
        # license to silently recompute — the mismatch names both keys
        # and the recovery (delete the file, or drop --resume)
        spec = _sim_spec()
        ck = tmp_path / "sweep.ck"
        first = SimSweepRunner(chunk_size=2, checkpoint=str(ck)).run(spec)
        with pytest.raises(CheckpointMismatchError) as err:
            SimSweepRunner(chunk_size=1, checkpoint=str(ck)).run(spec)
        groups = len(spec.policies)
        assert err.value.spec_key == spec_hash(spec, 1, groups)
        assert spec_hash(spec, 2, groups) in err.value.found_keys
        # deleting the stale journal recovers, bit-identically
        ck.unlink()
        again = SimSweepRunner(chunk_size=1, checkpoint=str(ck)).run(spec)
        assert again.execution["resumed_chunks"] == 0
        for a, b in zip(first.cells, again.cells):
            assert a.reports == b.reports

    def test_completed_journal_skips_recomputation(self, tmp_path):
        spec = _sim_spec()
        ck = tmp_path / "sweep.ck"
        first = SimSweepRunner(chunk_size=2, checkpoint=str(ck)).run(spec)
        second = SimSweepRunner(chunk_size=2, checkpoint=str(ck)).run(spec)
        assert second.execution["computed_chunks"] == 0
        for a, b in zip(first.cells, second.cells):
            assert a.reports == b.reports


class TestSweepRunnerCheckpointResume:
    def _spec(self) -> RolloutSpec:
        return RolloutSpec(
            schedule=ConstantRate(0.15), n_slots=600, record_every=200
        )

    def test_resume_is_bit_identical(self, tmp_path):
        spec = self._spec()
        seeds = list(range(6))
        reference = SweepRunner(batch_size=2).run_many(spec, seeds)
        ck = tmp_path / "rollout.ck"
        first = SweepRunner(batch_size=2, checkpoint=str(ck)).run_many(
            spec, seeds
        )
        # wipe one record to mimic an interrupted run, then resume
        records = []
        with open(ck, "rb") as fh:
            while True:
                try:
                    records.append(pickle.load(fh))
                except EOFError:
                    break
        with open(ck, "wb") as fh:
            for record in records[:-1]:
                pickle.dump(record, fh, protocol=4)
        resumed = SweepRunner(batch_size=2, checkpoint=str(ck)).run_many(
            spec, seeds
        )
        assert resumed.execution["resumed_chunks"] == 2
        assert resumed.execution["computed_chunks"] == 1
        for other in (first, resumed):
            for a, b in zip(reference.runs, other.runs):
                assert a.seed == b.seed
                assert a.mean_reward == b.mean_reward
                assert a.saving_ratio == b.saving_ratio
                assert np.array_equal(a.history.reward, b.history.reward)
                assert a.totals == b.totals

    def test_resume_keeps_snapshots(self, tmp_path):
        spec = replace(self._spec(), snapshot_seeds=(0, 3))
        seeds = list(range(4))
        reference = SweepRunner(batch_size=2).run_many(spec, seeds)
        ck = tmp_path / "rollout.ck"
        SweepRunner(batch_size=2, checkpoint=str(ck)).run_many(spec, seeds)
        # drop the last chunk's record, as an interrupted run leaves it
        records = []
        with open(ck, "rb") as fh:
            while True:
                try:
                    records.append(pickle.load(fh))
                except EOFError:
                    break
        with open(ck, "wb") as fh:
            for record in records[:-1]:
                pickle.dump(record, fh, protocol=4)
        resumed = SweepRunner(batch_size=2, checkpoint=str(ck)).run_many(
            spec, seeds)
        assert resumed.execution["resumed_chunks"] == 1
        assert resumed.execution["computed_chunks"] == 1
        for a, b in zip(reference.runs, resumed.runs):
            assert compare_reports(b, a, rtol=0.0, atol=0.0) == []
        assert [r.seed for r in resumed.runs
                if r.snapshots is not None] == [0, 3]

    def test_model_based_resumes_from_journal(self, mb_spec, tmp_path,
                                              assert_same_mb_runs):
        seeds = [5, 6, 7]
        reference = SweepRunner(batch_size=1).run_many(mb_spec, seeds)
        ck = tmp_path / "rollout.ck"
        first = SweepRunner(batch_size=1, checkpoint=str(ck)).run_many(
            mb_spec, seeds)
        # drop the last chunk's record, as an interrupted run leaves it
        records = []
        with open(ck, "rb") as fh:
            while True:
                try:
                    records.append(pickle.load(fh))
                except EOFError:
                    break
        with open(ck, "wb") as fh:
            for record in records[:-1]:
                pickle.dump(record, fh, protocol=4)
        resumed = SweepRunner(batch_size=1, checkpoint=str(ck)).run_many(
            mb_spec, seeds)
        assert resumed.execution["resumed_chunks"] == 2
        assert resumed.execution["computed_chunks"] == 1
        assert_same_mb_runs(reference.runs, resumed.runs)
        # journaled logs come back as written, wall-clock fields included
        assert [r.adaptation for r in resumed.runs[:2]] == [
            r.adaptation for r in first.runs[:2]]
