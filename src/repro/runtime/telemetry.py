"""Runtime telemetry: spans, metrics, live progress, and trace export.

The runtime has three execution layers, a resilience ladder, checkpoints,
and shadow verification — and, before this module, no way to *see* any of
it: per-chunk timings, retry/degrade events, and kernel-phase costs were
either discarded or smeared across ad-hoc ``execution`` metadata lists.
This module is the zero-dependency observability subsystem every layer
records into:

- **Spans** (:meth:`Telemetry.span`): hierarchical timed spans
  (``sweep -> chunk -> route/kernel/report`` and
  ``pool-submit -> worker-run -> collect``) with monotonic-clock
  timestamps and free-form attributes.  Recording is thread-safe, and
  process-safe through :class:`TracedCall`: a traced work unit executed
  in a multiprocessing worker captures its spans into a per-worker
  buffer that ships back with the chunk result
  (:class:`TelemetryEnvelope`) and is merged by the parent — each worker
  becomes one track of the exported trace.  Tracing is **off by
  default** and non-interfering: a span touches only the wall/perf
  clocks, never an RNG stream, so enabling telemetry cannot change a
  single result bit (pinned by the bit-identity test in
  tests/test_runtime_telemetry.py).
- **Metrics** (:class:`MetricsRegistry`): counters, gauges, and
  min/max/mean histograms for chunks completed/resumed, pool retries,
  serial degrades, chunk timeouts, shadow-verification runs and
  divergences, invariant checks, dropped/retried fleet requests, and
  per-worker busy time.  Always on (a dict increment per chunk-boundary
  event, nothing per slot/request), and a pool worker's counters ship
  back with every chunk result; the sweep runners snapshot a scoped
  registry into their results' ``execution["metrics"]`` block, and
  :meth:`MetricsRegistry.render` prints the end-of-run summary table.
- **Exporters**: :func:`export_chrome_trace` writes Chrome trace-event
  JSON (open in Perfetto / chrome://tracing; one track per worker
  process) and :func:`export_jsonl` a line-per-event stream.  The CLI
  exposes them as ``--trace FILE`` (``.jsonl`` extension selects the
  JSONL form) plus ``--metrics`` and a ``--progress`` live terminal
  line.
- **Progress** (:class:`ProgressReporter`): chunks done/total,
  throughput, ETA, and worker count on **stderr** — a live
  carriage-return line on a TTY, plain periodic lines otherwise (CI
  logs stay clean), honoring ``NO_COLOR``.

The executor's resilience decisions (retry/timeout/degrade) are recorded
through :meth:`Telemetry.resilience_event`, which is the *single* event
system: it bumps the matching metric counter, records an instant trace
event, and returns the payload dict that lands in
:attr:`~repro.runtime.executor.AsyncTasks.events` and
:attr:`~repro.runtime.executor.ChunkExecutionError.events`.

Everything hangs off the module-level :data:`TELEMETRY` singleton so the
instrumentation points stay one attribute access away from a no-op when
tracing is disabled.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

# Per-process clock anchor: every span timestamp is derived from
# perf_counter offsets against this pair, so timestamps within one
# process are strictly monotone (nesting in the exported trace can never
# invert) while remaining comparable across processes through the
# wall-clock base.
_BASE_PERF = time.perf_counter()
_BASE_UNIX = time.time()


def _now_us() -> float:
    """Microseconds since the epoch, monotone within this process."""
    return (_BASE_UNIX + (time.perf_counter() - _BASE_PERF)) * 1e6


def _jsonable(value: Any) -> Any:
    """Coerce one span attribute to a JSON-safe value."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class SpanRecord:
    """One recorded span (``dur_us`` set) or instant event (``None``)."""

    name: str
    cat: str
    ts_us: float
    dur_us: Optional[float]
    pid: int
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager recording one span into a tracer buffer."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        self._depth = self._tracer._enter()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter() - self._start
        self._tracer._exit(SpanRecord(
            name=self._name, cat=self._cat,
            ts_us=(_BASE_UNIX + (self._start - _BASE_PERF)) * 1e6,
            dur_us=dur * 1e6, pid=os.getpid(), depth=self._depth,
            args={k: _jsonable(v) for k, v in self._args.items()},
        ))
        return False


class Tracer:
    """Thread-safe span/instant recorder with a swappable buffer.

    ``enabled`` gates recording; when off, :meth:`span` hands back a
    shared no-op context manager, so instrumentation points cost one
    attribute check.  :meth:`capture` swaps in a fresh buffer for the
    duration of one work unit — the worker-side half of cross-process
    recording (:class:`TracedCall` ships the captured buffer back to the
    parent, which merges it via :meth:`absorb`).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------- #

    def span(self, name: str, cat: str = "runtime", **attrs: Any):
        """Context manager timing one hierarchical span (no-op when
        disabled — never touches an RNG stream either way)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "runtime", **attrs: Any) -> None:
        """Record one zero-duration event (retry decisions, signals)."""
        if not self.enabled:
            return
        record = SpanRecord(
            name=name, cat=cat, ts_us=_now_us(), dur_us=None,
            pid=os.getpid(), depth=getattr(self._local, "depth", 0),
            args={k: _jsonable(v) for k, v in attrs.items()},
        )
        with self._lock:
            self._records.append(record)

    def _enter(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _exit(self, record: SpanRecord) -> None:
        self._local.depth = record.depth
        with self._lock:
            self._records.append(record)

    # -- buffers ------------------------------------------------------- #

    def records(self) -> List[SpanRecord]:
        """Snapshot of everything recorded so far (insertion order)."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        """Drop all recorded spans (testing / between CLI runs)."""
        with self._lock:
            self._records.clear()

    @contextmanager
    def capture(self):
        """Record into a fresh, force-enabled buffer for the block.

        Used by :class:`TracedCall` inside pool workers: whatever the
        child process inherited (a fork copies the parent's buffer and
        flag; a spawn starts clean), the work unit records into its own
        empty buffer, which is yielded for shipping back.  Prior state
        is restored on exit, so an in-process degrade rerun through the
        wrapped callable cannot duplicate parent spans.
        """
        with self._lock:
            previous, self._records = self._records, []
        prev_enabled, self.enabled = self.enabled, True
        buffer: List[SpanRecord] = []
        try:
            yield buffer
        finally:
            with self._lock:
                buffer.extend(self._records)
                self._records = previous
            self.enabled = prev_enabled

    def absorb(self, records: Sequence[SpanRecord]) -> None:
        """Merge spans captured in another process into this buffer."""
        if not records:
            return
        with self._lock:
            self._records.extend(records)


class MetricsRegistry:
    """Counters, gauges, and summary histograms, snapshot-friendly.

    ``observe`` keeps count/sum/min/max (enough for the summary table
    and overhead-free enough for per-chunk use); timings are recorded
    but deliberately never asserted on — only counting metrics carry
    the chunking/jobs-invariance contract.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, List[float]] = {}  # [count, sum, min, max]

    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: Union[int, float]) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                self._hists[name] = [1, value, value, value]
            else:
                h[0] += 1
                h[1] += value
                h[2] = min(h[2], value)
                h[3] = max(h[3], value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state: the ``execution["metrics"]`` block shape."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": int(h[0]), "sum": h[1],
                        "min": h[2], "max": h[3],
                        "mean": h[1] / h[0] if h[0] else math.nan,
                    }
                    for name, h in self._hists.items()
                },
            }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot in (worker deltas)."""
        for name, n in snapshot.get("counters", {}).items():
            self.inc(name, n)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, h in snapshot.get("histograms", {}).items():
            with self._lock:
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = [
                        h["count"], h["sum"], h["min"], h["max"]
                    ]
                else:
                    mine[0] += h["count"]
                    mine[1] += h["sum"]
                    mine[2] = min(mine[2], h["min"])
                    mine[3] = max(mine[3], h["max"])

    def render(self, title: str = "TELEMETRY: end-of-run metrics") -> str:
        """The end-of-run summary table (counters, gauges, histograms)."""
        from ..analysis.ascii_plot import format_table

        rows: List[List[Any]] = []
        snap = self.snapshot()
        for name in sorted(snap["counters"]):
            value = snap["counters"][name]
            rows.append([name, "counter",
                         int(value) if float(value).is_integer() else
                         round(value, 6), "", "", ""])
        for name in sorted(snap["gauges"]):
            rows.append([name, "gauge", round(snap["gauges"][name], 6),
                         "", "", ""])
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            rows.append([name, "histogram", h["count"],
                         round(h["mean"], 6), round(h["min"], 6),
                         round(h["max"], 6)])
        return format_table(
            ["metric", "kind", "count/value", "mean", "min", "max"],
            rows, title=title,
        )


# --------------------------------------------------------------------- #
# progress reporting
# --------------------------------------------------------------------- #

#: seconds between repaints of the live TTY progress line
TTY_REFRESH_SECONDS = 0.1
#: seconds between plain progress lines on a non-TTY stream (CI logs)
PLAIN_REFRESH_SECONDS = 5.0


def _color_allowed(stream: TextIO) -> bool:
    """ANSI styling only on a real terminal with ``NO_COLOR`` unset."""
    if os.environ.get("NO_COLOR"):
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


class ProgressReporter:
    """Live sweep progress on stderr: done/total, throughput, ETA.

    On a TTY the line repaints in place (carriage return, throttled to
    :data:`TTY_REFRESH_SECONDS`); on anything else — a pipe, a CI log —
    it degrades to a plain full line every
    :data:`PLAIN_REFRESH_SECONDS`, so piped stdout stays
    machine-parseable and logs stay readable.  Styling honors
    ``NO_COLOR`` and never applies off-TTY.
    """

    def __init__(self, total: int, done: int = 0, workers: int = 1,
                 label: str = "sweep",
                 stream: Optional[TextIO] = None) -> None:
        self.total = int(total)
        self.done = int(done)
        self.workers = int(workers)
        self.label = str(label)
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._color = _color_allowed(self.stream)
        self._start = time.perf_counter()
        self._start_done = self.done
        self._last_paint = -math.inf
        self._painted = False
        self._final_emitted = False

    def _line(self) -> str:
        elapsed = time.perf_counter() - self._start
        fresh = self.done - self._start_done
        rate = fresh / elapsed if elapsed > 0 else 0.0
        remaining = self.total - self.done
        if rate > 0 and remaining > 0:
            eta = f"ETA {remaining / rate:.0f}s"
        elif remaining == 0:
            eta = f"done in {elapsed:.1f}s"
        else:
            eta = "ETA --"
        label = self.label
        if self._color:
            label = f"\x1b[36m{label}\x1b[0m"
        return (
            f"{label}: {self.done}/{self.total} chunks | "
            f"{rate:.1f} chunk/s | {eta} | {self.workers} worker"
            f"{'' if self.workers == 1 else 's'}"
        )

    def update(self, done: Optional[int] = None) -> None:
        """Repaint (TTY) or emit (non-TTY) the progress line, throttled."""
        if done is not None:
            self.done = int(done)
        else:
            self.done += 1
        now = time.perf_counter()
        interval = TTY_REFRESH_SECONDS if self._tty else PLAIN_REFRESH_SECONDS
        if now - self._last_paint < interval and self.done < self.total:
            return
        self._last_paint = now
        self._painted = True
        if self._tty:
            self.stream.write(f"\r\x1b[2K{self._line()}")
        else:
            self._final_emitted = self.done >= self.total
            self.stream.write(f"{self._line()}\n")
        self.stream.flush()

    def finish(self) -> None:
        """Terminate the live line (newline on TTY, final line off it)."""
        if self._tty:
            if self._painted:
                self.stream.write(f"\r\x1b[2K{self._line()}\n")
                self.stream.flush()
        elif not self._final_emitted:
            self.stream.write(f"{self._line()}\n")
            self.stream.flush()


# --------------------------------------------------------------------- #
# the singleton facade
# --------------------------------------------------------------------- #

#: resilience-event action -> metric counter bumped for it
_EVENT_METRICS = {
    "retry": "executor.retries",
    "timeout": "executor.chunk_timeouts",
    "serial_degrade": "executor.serial_degrades",
}


class Telemetry:
    """Process-wide telemetry facade: one tracer, a metrics-scope stack.

    Metric writes go to *every* registry on the stack, so a scoped
    registry (one sweep's ``execution["metrics"]`` block) and the root
    registry (the CLI's ``--metrics`` end-of-run summary) accumulate
    simultaneously.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._metrics_stack: List[MetricsRegistry] = [MetricsRegistry()]
        self.progress_enabled = False
        self.progress_stream: Optional[TextIO] = None

    # -- tracing ------------------------------------------------------- #

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self) -> None:
        self.tracer.enabled = True

    def disable_tracing(self) -> None:
        self.tracer.enabled = False

    def span(self, name: str, cat: str = "runtime", **attrs: Any):
        return self.tracer.span(name, cat, **attrs)

    def instant(self, name: str, cat: str = "runtime", **attrs: Any) -> None:
        self.tracer.instant(name, cat, **attrs)

    # -- metrics ------------------------------------------------------- #

    @property
    def root_metrics(self) -> MetricsRegistry:
        """The process-lifetime registry (the CLI summary's source)."""
        return self._metrics_stack[0]

    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        for registry in self._metrics_stack:
            registry.inc(name, n)

    def gauge(self, name: str, value: Union[int, float]) -> None:
        for registry in self._metrics_stack:
            registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        for registry in self._metrics_stack:
            registry.observe(name, value)

    @contextmanager
    def metrics_scope(self):
        """Push a fresh registry for one run; yields it for snapshotting.

        Scopes nest (an experiment driving several sweeps gets one block
        per sweep plus its own outer block); every scope keeps feeding
        the root registry, so the end-of-run summary still sees totals.
        In a pool worker, :class:`TracedCall` scopes each work unit to
        capture the metrics delta it ships back.
        """
        registry = MetricsRegistry()
        self._metrics_stack.append(registry)
        try:
            yield registry
        finally:
            self._metrics_stack.remove(registry)

    def resilience_event(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Record one executor resilience decision and return it.

        The single event system behind the retry/timeout/degrade ladder:
        bumps the matching metric counter, records an instant trace
        event, and hands the payload back for the executor's event log
        (``AsyncTasks.events`` / ``ChunkExecutionError.events``).
        """
        action = payload.get("action", "event")
        metric = _EVENT_METRICS.get(action)
        if metric is not None:
            self.inc(metric)
        self.instant(f"executor.{action}", cat="resilience", **payload)
        return payload

    # -- workers ------------------------------------------------------- #

    def absorb_envelope(self, envelope: "TelemetryEnvelope") -> Any:
        """Merge a worker's shipped telemetry; return the real result."""
        self.tracer.absorb(envelope.spans)
        if envelope.metrics:
            for registry in self._metrics_stack:
                registry.merge_snapshot(envelope.metrics)
        for record in envelope.spans:
            if record.name == "worker-run" and record.dur_us is not None:
                self.observe(f"worker.{record.pid}.busy_seconds",
                             record.dur_us / 1e6)
        return envelope.result

    # -- progress ------------------------------------------------------ #

    def enable_progress(self, stream: Optional[TextIO] = None) -> None:
        self.progress_enabled = True
        self.progress_stream = stream

    def disable_progress(self) -> None:
        self.progress_enabled = False
        self.progress_stream = None

    def progress_reporter(self, total: int, done: int = 0, workers: int = 1,
                          label: str = "sweep") -> Optional[ProgressReporter]:
        """A reporter when progress is on."""
        if not self.progress_enabled:
            return None
        return ProgressReporter(
            total=total, done=done, workers=workers, label=label,
            stream=self.progress_stream,
        )

    # -- lifecycle ----------------------------------------------------- #

    def reset(self) -> None:
        """Return to the pristine import-time state (tests / CLI runs)."""
        self.tracer.enabled = False
        self.tracer.reset()
        self._metrics_stack[:] = [MetricsRegistry()]
        self.disable_progress()


#: the process-wide telemetry instance every instrumentation point uses
TELEMETRY = Telemetry()


# --------------------------------------------------------------------- #
# cross-process capture
# --------------------------------------------------------------------- #


@dataclass
class TelemetryEnvelope:
    """A work unit's result plus the telemetry captured computing it."""

    result: Any
    spans: List[SpanRecord]
    metrics: Optional[Dict[str, Any]] = None


class TracedCall:
    """Picklable wrapper running one work unit under worker telemetry.

    The executor ships every pooled task under it: the worker runs the
    unit with a fresh metrics delta and returns a
    :class:`TelemetryEnvelope`, so counters a worker bumps reach the
    parent's registries whether or not tracing is on.  Spans (a
    ``worker-run`` span around the unit, in a fresh capture buffer) ship
    only when tracing was on at submission, so an untraced run records
    and absorbs none.  The executor unwraps the envelope at collection
    (:meth:`Telemetry.absorb_envelope`), so every downstream consumer —
    checkpoint journal, shadow verification, result assembly — sees
    exactly the bytes the bare work unit returns.
    """

    def __init__(self, fn, chunk_index: int) -> None:
        self.fn = fn
        self.chunk_index = int(chunk_index)
        self.tracing = TELEMETRY.tracing

    def __call__(self, *args: Any) -> TelemetryEnvelope:
        spans = TELEMETRY.tracer.capture() if self.tracing else nullcontext([])
        with TELEMETRY.metrics_scope() as delta, spans as buffer:
            with TELEMETRY.span("worker-run", cat="executor",
                                chunk=self.chunk_index):
                result = self.fn(*args)
        return TelemetryEnvelope(result=result, spans=buffer,
                                 metrics=delta.snapshot())


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #


def _chrome_events(records: Sequence[SpanRecord],
                   main_pid: int) -> List[Dict[str, Any]]:
    """Trace-event list: one metadata-named track per recording process."""
    events: List[Dict[str, Any]] = []
    pids: List[int] = []
    for record in records:
        if record.pid not in pids:
            pids.append(record.pid)
    if main_pid in pids:  # the parent track sorts first
        pids.remove(main_pid)
        pids.insert(0, main_pid)
    for sort_index, pid in enumerate(pids):
        name = "main" if pid == main_pid else f"worker-{pid}"
        events.append({
            "ph": "M", "name": "thread_name", "pid": main_pid, "tid": pid,
            "args": {"name": name},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": main_pid,
            "tid": pid, "args": {"sort_index": sort_index},
        })
    t0 = min((r.ts_us for r in records), default=0.0)
    for record in records:
        event: Dict[str, Any] = {
            "name": record.name, "cat": record.cat,
            "ts": record.ts_us - t0, "pid": main_pid, "tid": record.pid,
            "args": record.args,
        }
        if record.dur_us is None:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = record.dur_us
        events.append(event)
    return events


def export_chrome_trace(path: Union[str, Path]) -> Path:
    """Write a Chrome trace-event JSON file (Perfetto-loadable).

    Holds everything the singleton tracer recorded plus the root
    metrics snapshot (stored under ``otherData`` for humans reading the
    raw file).  One track per worker process, spans as complete (``X``)
    events, resilience decisions as instant (``i``) events.
    """
    path = Path(path)
    payload = {
        "traceEvents": _chrome_events(TELEMETRY.tracer.records(),
                                      main_pid=os.getpid()),
        "displayTimeUnit": "ms",
        "otherData": {"metrics": TELEMETRY.root_metrics.snapshot()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    return path


def export_jsonl(path: Union[str, Path]) -> Path:
    """Write the JSONL event stream: one JSON object per recorded
    span/instant, a trailing ``{"type": "metrics", ...}`` root snapshot
    line."""
    path = Path(path)
    with open(path, "w") as fh:
        for record in TELEMETRY.tracer.records():
            fh.write(json.dumps({
                "type": "instant" if record.dur_us is None else "span",
                "name": record.name, "cat": record.cat,
                "ts_us": record.ts_us, "dur_us": record.dur_us,
                "pid": record.pid, "depth": record.depth,
                "args": record.args,
            }) + "\n")
        fh.write(json.dumps({"type": "metrics",
                             **TELEMETRY.root_metrics.snapshot()}) + "\n")
    return path


def export_trace(path: Union[str, Path]) -> Path:
    """Write the recorded trace to ``path``: ``.jsonl`` selects the
    JSONL event stream, anything else the Chrome trace-event form."""
    if str(path).endswith(".jsonl"):
        return export_jsonl(path)
    return export_chrome_trace(path)
