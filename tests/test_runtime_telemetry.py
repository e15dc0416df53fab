"""Telemetry layer: spans across processes, metrics, exports, progress.

The load-bearing contracts:

- tracing is **non-interfering** — a traced sweep produces bit-identical
  results to an untraced one (telemetry touches clocks, never RNG);
- spans recorded inside pool workers ship back with chunk results and
  merge into the parent's buffer, so a multi-process sweep exports one
  coherent trace with one track per worker;
- counting metrics (chunks completed, invariant checks) are
  chunking/jobs-invariant; timing metrics are recorded but never
  asserted on;
- the executor's resilience events flow through telemetry (counters +
  instant trace events) while ``AsyncTasks.events`` /
  ``ChunkExecutionError.events`` keep their shape;
- progress/summary output goes to stderr, plain off-TTY, no ANSI under
  ``NO_COLOR``.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro.runtime import (
    TELEMETRY,
    MetricsRegistry,
    ProgressReporter,
    RolloutSpec,
    SweepRunner,
    export_chrome_trace,
    export_jsonl,
    export_trace,
)
from repro.runtime.executor import MultiprocessExecutor
from repro.runtime.telemetry import TelemetryEnvelope, TracedCall
from repro.workload import ConstantRate


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with pristine global telemetry."""
    TELEMETRY.reset()
    yield
    TELEMETRY.reset()


@pytest.fixture(scope="module")
def spec():
    return RolloutSpec(
        schedule=ConstantRate(0.15),
        n_slots=2_000,
        record_every=500,
        queue_capacity=6,
    )


def _run_signature(result):
    return [
        (r.seed, r.mean_reward, r.saving_ratio, tuple(r.history.reward))
        for r in result.runs
    ]


class TestSpans:
    def test_disabled_by_default_and_recording_off_is_free_of_records(self):
        assert not TELEMETRY.tracing
        with TELEMETRY.span("nothing"):
            pass
        TELEMETRY.instant("also-nothing")
        assert TELEMETRY.tracer.records() == []

    def test_span_nesting_depth_and_monotone_timestamps(self):
        TELEMETRY.enable_tracing()
        with TELEMETRY.span("outer"):
            with TELEMETRY.span("inner"):
                pass
        records = {r.name: r for r in TELEMETRY.tracer.records()}
        outer, inner = records["outer"], records["inner"]
        assert outer.depth == 0 and inner.depth == 1
        # containment: inner starts after outer and ends before it
        assert inner.ts_us >= outer.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us

    def test_attributes_are_json_safe(self):
        TELEMETRY.enable_tracing()
        with TELEMETRY.span("s", seeds=[np.int64(3)], ratio=0.5, tag="x"):
            pass
        (record,) = TELEMETRY.tracer.records()
        json.dumps(record.args)  # must not raise

    def test_spans_cross_process_boundaries(self, spec):
        """A 3-job sweep merges worker-side spans into the parent buffer:
        distinct worker pids appear, and every worker chunk span is
        contained in time by the parent's sweep span."""
        TELEMETRY.enable_tracing()
        SweepRunner(batch_size=2, n_jobs=3).run_many(spec, list(range(6)))
        records = TELEMETRY.tracer.records()
        sweep = [r for r in records if r.name == "sweep"][0]
        chunks = [r for r in records if r.name == "chunk"]
        assert len(chunks) == 3
        worker_pids = {r.pid for r in chunks} - {os.getpid()}
        assert len(worker_pids) >= 1  # at least one chunk ran in a worker
        assert all(r.name for r in records)
        for r in chunks:
            # coarse cross-process containment: the clock anchors of
            # parent and workers agree to well under the slack below
            assert r.ts_us >= sweep.ts_us - 50_000
            assert r.ts_us + r.dur_us <= sweep.ts_us + sweep.dur_us + 50_000
        worker_runs = [r for r in records if r.name == "worker-run"]
        assert {r.pid for r in worker_runs} == worker_pids

    def test_traced_call_returns_envelope_with_worker_spans(self):
        TELEMETRY.enable_tracing()  # spans ship only if tracing at submission
        call = TracedCall(_square, 7)
        envelope = call(6)
        assert isinstance(envelope, TelemetryEnvelope)
        assert envelope.result == 36
        names = [s.name for s in envelope.spans]
        assert "worker-run" in names and "square" in names
        # in-process invocation must not leak the captured spans into
        # the global buffer
        assert TELEMETRY.tracer.records() == []

    def test_untraced_call_ships_metrics_and_no_spans(self):
        envelope = TracedCall(_square, 7)(6)
        assert envelope.result == 36
        assert envelope.spans == []
        assert envelope.metrics["counters"] == {"square.calls": 1}
        assert TELEMETRY.tracer.records() == []


def _square(x):
    TELEMETRY.inc("square.calls")
    with TELEMETRY.span("square"):
        return x * x


def _three_traces(seed):
    """Serve three traces through the batched event engines."""
    from repro.baselines import FixedTimeout
    from repro.device import get_preset
    from repro.runtime import TraceSpec, simulate_traces_batch
    from repro.workload import Exponential

    traces = [TraceSpec("exp", Exponential(0.2), 60.0).realize(seed + k)
              for k in range(3)]
    return len(simulate_traces_batch(get_preset("mobile_hdd"),
                                     FixedTimeout(), traces))


class TestWorkerMetrics:
    """A pool worker's counters reach the parent with or without
    tracing: every pooled task ships its metrics delta back."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_worker_counters_reach_parent(self, traced):
        if traced:
            TELEMETRY.enable_tracing()
        with TELEMETRY.metrics_scope() as metrics:
            results = MultiprocessExecutor(2).submit_all(
                _three_traces, [(s,) for s in range(4)]).get()
        assert results == [3] * 4
        counters = metrics.snapshot()["counters"]
        assert counters["engine.eventsim.vector"] == 12
        names = {r.name for r in TELEMETRY.tracer.records()}
        assert ("worker-run" in names) == traced


class TestBitIdentity:
    def test_traced_sweep_is_bit_identical(self, spec):
        seeds = [3, 5, 8, 13, 21, 34]
        runner = SweepRunner(batch_size=2, n_jobs=3)
        plain = _run_signature(runner.run_many(spec, seeds))
        TELEMETRY.enable_tracing()
        traced = _run_signature(runner.run_many(spec, seeds))
        assert traced == plain

    def test_progress_and_metrics_do_not_change_results(self, spec):
        seeds = [1, 2, 3, 4]
        runner = SweepRunner(batch_size=2)
        plain = _run_signature(runner.run_many(spec, seeds))
        TELEMETRY.enable_progress(stream=io.StringIO())
        TELEMETRY.enable_tracing()
        noisy = _run_signature(runner.run_many(spec, seeds))
        assert noisy == plain


class TestMetrics:
    def test_registry_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2)
        reg.gauge("g", 4.5)
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 4.5
        h = snap["histograms"]["h"]
        assert (h["count"], h["sum"], h["min"], h["max"]) == (3, 6.0, 1.0, 3.0)
        assert h["mean"] == 2.0
        assert "c" in reg.render() and "h" in reg.render()

    def test_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.observe("h", 5.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["histograms"]["h"]["count"] == 1

    def test_scoped_metrics_also_feed_root(self):
        with TELEMETRY.metrics_scope() as scoped:
            TELEMETRY.inc("x")
        assert scoped.snapshot()["counters"]["x"] == 1
        assert TELEMETRY.root_metrics.snapshot()["counters"]["x"] == 1

    def test_counting_metrics_are_chunking_and_jobs_invariant(self, spec):
        """chunks completed depends only on the chunking, and invariant
        checks only on the seed count — not on n_jobs."""
        seeds = list(range(6))

        def counters(batch_size, n_jobs):
            result = SweepRunner(
                batch_size=batch_size, n_jobs=n_jobs
            ).run_many(spec, seeds)
            return result.execution["metrics"]["counters"]

        serial = counters(2, 1)
        parallel = counters(2, 3)
        assert serial["executor.chunks_completed"] == 3
        assert parallel["executor.chunks_completed"] == 3
        assert (serial["verify.invariant_checks"]
                == parallel["verify.invariant_checks"] == len(seeds))

    def test_sweep_result_carries_metrics_snapshot(self, spec):
        result = SweepRunner(batch_size=2).run_many(spec, [1, 2, 3])
        counters = result.execution["metrics"]["counters"]
        assert counters["executor.chunks_completed"] == 2


class TestResilienceEvents:
    def test_event_routes_to_counter_and_legacy_view(self):
        TELEMETRY.enable_tracing()
        with TELEMETRY.metrics_scope() as scoped:
            payload = TELEMETRY.resilience_event(
                {"chunk": 4, "action": "retry", "attempt": 1}
            )
        assert payload == {"chunk": 4, "action": "retry", "attempt": 1}
        assert scoped.snapshot()["counters"]["executor.retries"] == 1
        (record,) = TELEMETRY.tracer.records()
        assert record.name == "executor.retry" and record.dur_us is None

    def test_executor_retry_counted_and_legacy_events_intact(self):
        """The one-event-system satellite: a pool retry lands in both
        the metrics registry and the old events list, same dict."""
        with TELEMETRY.metrics_scope() as scoped:
            pending = MultiprocessExecutor(2).submit_all(
                _fail_once, [(0,), (1,), (2,)], max_retries=2,
                retry_backoff=0.01,
            )
            results = pending.get()
        assert sorted(results) == [0, 2, 11]
        retry_events = [e for e in pending.events if e["action"] == "retry"]
        assert len(retry_events) >= 1
        assert retry_events[0]["chunk"] == 1
        counters = scoped.snapshot()["counters"]
        assert counters["executor.retries"] == len(retry_events)
        assert counters["executor.chunks_completed"] == 3


def _fail_once(i):
    # refuses chunk 1 on its first attempt only: a marker file persists
    # the attempt count across pool retries of the same task
    import tempfile
    marker = os.path.join(tempfile.gettempdir(),
                          f"repro_telemetry_fail_once_{os.getppid()}_{i}")
    if i == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("first attempt fails")
    if i == 1:
        os.remove(marker)
        return 11
    return i


class TestExporters:
    def test_chrome_trace_shape(self, spec, tmp_path):
        TELEMETRY.enable_tracing()
        SweepRunner(batch_size=2, n_jobs=3).run_many(spec, list(range(6)))
        path = export_chrome_trace(tmp_path / "out.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        tracks = {e["args"]["name"] for e in events
                  if e.get("name") == "thread_name"}
        assert "main" in tracks
        assert any(t.startswith("worker-") for t in tracks)
        spans = [e for e in events if e["ph"] == "X"]
        assert {"sweep", "chunk", "pool-submit"} <= {e["name"] for e in spans}
        for e in spans:
            assert e["ts"] >= 0 and e["dur"] >= 0
        # every recording pid has a named track
        assert {e["tid"] for e in spans} <= {
            e["tid"] for e in events if e.get("name") == "thread_name"
        }

    def test_jsonl_export_one_object_per_line(self, tmp_path):
        TELEMETRY.enable_tracing()
        with TELEMETRY.span("a"):
            TELEMETRY.instant("b")
        TELEMETRY.inc("k", 2)
        path = export_jsonl(tmp_path / "out.jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["type"] for l in lines] == ["instant", "span", "metrics"]
        assert lines[1]["name"] == "a"
        assert lines[2]["counters"]["k"] == 2

    def test_export_trace_dispatches_on_extension(self, tmp_path):
        TELEMETRY.enable_tracing()
        with TELEMETRY.span("a"):
            pass
        chrome = export_trace(tmp_path / "t.json")
        jsonl = export_trace(tmp_path / "t.jsonl")
        assert "traceEvents" in json.loads(chrome.read_text())
        assert all(json.loads(l) for l in jsonl.read_text().splitlines())


class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestProgress:
    def test_non_tty_plain_periodic_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=3, workers=2, label="sweep",
                                    stream=stream)
        for _ in range(3):
            reporter.update()
        reporter.finish()
        out = stream.getvalue()
        assert "\r" not in out and "\x1b" not in out
        assert out.splitlines()[-1].startswith("sweep: 3/3 chunks")

    def test_tty_repaints_with_carriage_return(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        stream = _FakeTTY()
        reporter = ProgressReporter(total=2, stream=stream)
        reporter.update()
        reporter.update()
        reporter.finish()
        out = stream.getvalue()
        assert "\r" in out
        assert out.endswith("\n")

    def test_no_color_strips_ansi_on_tty(self, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        stream = _FakeTTY()
        reporter = ProgressReporter(total=1, stream=stream)
        reporter.update()
        reporter.finish()
        assert "\x1b[36m" not in stream.getvalue()

    def test_progress_reporter_gated_by_global_flag(self):
        assert TELEMETRY.progress_reporter(total=4) is None
        TELEMETRY.enable_progress(stream=io.StringIO())
        assert TELEMETRY.progress_reporter(total=4) is not None


class TestCLI:
    def test_trace_metrics_progress_flags(self, tmp_path, capsys):
        from repro import cli

        trace = tmp_path / "cli_trace.json"
        assert cli.main([
            "sim-sweep", "--quick", "--trace", str(trace),
            "--metrics", "--progress",
        ]) == 0
        captured = capsys.readouterr()
        # machine-parseable stdout: the table only, telemetry on stderr
        assert "TELEMETRY" not in captured.out
        assert "trace written" not in captured.out
        assert "TELEMETRY: end-of-run metrics" in captured.err
        assert "chunks" in captured.err  # progress lines
        data = json.loads(trace.read_text())
        assert data["traceEvents"]
        # the CLI resets global state afterwards
        assert not TELEMETRY.tracing
        assert TELEMETRY.tracer.records() == []

    def test_stdout_identical_with_and_without_trace(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(["sim-sweep", "--quick"]) == 0
        plain = capsys.readouterr().out
        assert cli.main([
            "sim-sweep", "--quick", "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        traced = capsys.readouterr().out
        assert traced == plain
