"""Per-layer self time for the traced run, measured from outside ``src/``.

:class:`LayerTracer` swaps each layer's public entry points for timing
wrappers while a traced iteration runs and puts the originals back
afterwards, so untraced iterations run the program's own code objects.
A wrapper charges its call's *self* time (its duration minus the wrapped
calls nested inside it) to its layer and counts the work the call did,
both into the process-wide telemetry metrics registry.  Pool workers
inherit the wrappers through ``fork``; with tracing on, the executor
ships each worker's metrics delta back with its chunk result, so time
spent in workers is counted without adding a span to the program.
Worker time is kept apart from parent time: only the parent's self
times partition the traced wall clock, and ``other_s`` is the rest.
"""

from __future__ import annotations

import functools
import os
import pickle
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.adaptive.model_based import ModelBasedAdaptiveDPM
from repro.analysis.bootstrap import bootstrap_ci
from repro.core.qtable import QTable
from repro.env.model_builder import DPMModel, build_dpm_model
from repro.fleet.dispatch import Dispatcher
from repro.fleet.report import build_fleet_report
from repro.runtime.batched_env import BatchedSlottedEnv
from repro.runtime.batched_qdpm import BatchedQDPM, run_lockstep
from repro.runtime.eventsim import run_step_batched
from repro.runtime.executor import AsyncTasks, MultiprocessExecutor
from repro.runtime.simsweep import TraceSpec
from repro.runtime.telemetry import TELEMETRY
from repro.runtime.verify import check_fleet_report, check_seed_run
from repro.workload.faults import FaultProcess

_KEY = "perfbench."
Counts = Tuple[Dict[str, float], Tuple[Tuple[str, str], ...]]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _lockstep_counts(args, kwargs, result) -> Counts:
    env, n_slots = args[0], _arg(args, kwargs, 2, "n_slots")
    return {"slotted.lockstep_slots": n_slots,
            "slotted.replica_slots": n_slots * env.n_replicas}, ()


def _realize_counts(args, kwargs, result) -> Counts:
    spec, seed = args[0], _arg(args, kwargs, 1, "seed")
    return {}, (("realize", f"{spec.name}|{seed}"),)


def _route_counts(args, kwargs, result) -> Counts:
    dispatcher, trace = args[0], _arg(args, kwargs, 1, "trace")
    counts = {"fleet.route_requests": int(trace.arrival_times.size)}
    if isinstance(result, tuple):  # (sub-traces, failover/overload outcome)
        outcome = result[1]
        counts.update({
            "fleet.route_retries": outcome.n_retries,
            "fleet.route_dropped": outcome.n_dropped,
            "fleet.route_shed": getattr(outcome, "n_shed", 0),
            "fleet.breaker_trips": getattr(outcome, "n_breaker_trips", 0),
        })
    key = f"{dispatcher.n_devices}|{dispatcher.router.name}|{dispatcher.seed}"
    return counts, (("route", key),)


def _kernel_counts(args, kwargs, result) -> Counts:
    traces = _arg(args, kwargs, 2, "traces")
    return {
        "runtime.eventsim.kernel_subtraces": len(traces),
        "runtime.eventsim.kernel_requests":
            sum(int(t.arrival_times.size) for t in traces),
    }, ()


#: (layer, class, method) wrapped on the class
_METHODS = (
    ("runtime.batched_env.step", BatchedSlottedEnv, "step", None),
    ("runtime.batched_qdpm.control", BatchedQDPM, "control_step", None),
    ("core.qtable.update", QTable, "batch_update", None),
    ("core.qtable.update", QTable, "batch_max_value", None),
    ("mdp.solve", DPMModel, "solve", None),
    ("mdp.evaluate", DPMModel, "evaluate_policy", None),
    ("adaptive.model_based", ModelBasedAdaptiveDPM, "run", None),
    ("workload.realize", TraceSpec, "realize", _realize_counts),
    ("workload.faults", FaultProcess, "realize", None),
    ("fleet.route", Dispatcher, "dispatch", _route_counts),
    ("fleet.route", Dispatcher, "dispatch_with_faults", _route_counts),
    ("fleet.route", Dispatcher, "dispatch_with_overload", _route_counts),
)

#: (layer, function) wrapped in every ``repro`` module that binds it
_FUNCTIONS = (
    ("runtime.batched_qdpm.loop", run_lockstep, _lockstep_counts),
    ("mdp.build", build_dpm_model, None),
    ("runtime.eventsim.kernel", run_step_batched, _kernel_counts),
    ("fleet.report", build_fleet_report, None),
    ("runtime.verify.check", check_seed_run, None),
    ("runtime.verify.check", check_fleet_report, None),
    ("analysis.bootstrap", bootstrap_ci, None),
)


class LayerTracer:
    """Installs the layer wrappers for one traced iteration at a time."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._stack: List[float] = [0.0]  # nested-call time per open frame
        self._undo: List[Tuple[Any, str, Any]] = []
        self._pooled: set = set()
        #: chunk results collected from pool workers (for result_bytes)
        self.pool_results: List[Any] = []

    def wrap(self, layer: str, fn: Callable,
             counts: Optional[Callable[..., Counts]] = None) -> Callable:
        """``fn`` charging its self time and counts to ``layer``."""
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                stack[-1] += elapsed
                where = "self" if os.getpid() == self._pid else "worker"
                TELEMETRY.inc(f"{_KEY}{where}.{layer}", elapsed - nested)
                TELEMETRY.inc(f"{_KEY}calls.{layer}")
            if counts is not None:
                values, keys = counts(args, kwargs, result)
                for name, n in values.items():
                    TELEMETRY.inc(f"{_KEY}count.{name}", n)
                for family, key in keys:
                    TELEMETRY.inc(f"{_KEY}key.{family}.{key}")
            return result

        return timed

    def _submit_counts(self, args, kwargs, result) -> Counts:
        executor, tasks = args[0], _arg(args, kwargs, 2, "tasks")
        # submit_all runs fewer than two tasks, or any on one worker,
        # in-process; only the rest reach the pool
        if len(tasks) >= 2 and executor.n_jobs > 1:
            self._pooled.add(id(result))
        return {}, ()

    def _collect_counts(self, args, kwargs, result) -> Counts:
        if id(args[0]) in self._pooled:
            self._pooled.discard(id(args[0]))
            self.pool_results.extend(result)
        return {}, ()

    def install(self) -> None:
        methods = _METHODS + (
            ("runtime.executor.submit", MultiprocessExecutor, "submit_all",
             self._submit_counts),
            ("runtime.executor.wait", AsyncTasks, "get",
             self._collect_counts),
        )
        for layer, owner, attr, counts in methods:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, counts))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for layer, fn, counts in _FUNCTIONS:
            wrapper = self.wrap(layer, fn, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def counters() -> Dict[str, float]:
    """This benchmark's counters in the root telemetry registry."""
    snapshot = TELEMETRY.root_metrics.snapshot()["counters"]
    return {k: v for k, v in snapshot.items() if k.startswith(_KEY)}


def per_layer(delta: Dict[str, float], traced_walls: List[float],
              untraced_walls: List[float], worker_busy: float,
              result_bytes: float) -> Dict[str, float]:
    """Per-iteration layer metrics from the counters ``delta`` of the
    traced iterations, whose wall times are ``traced_walls``."""
    n = float(len(traced_walls))

    def total(layer: str) -> float:
        return (delta.get(f"{_KEY}self.{layer}", 0.0)
                + delta.get(f"{_KEY}worker.{layer}", 0.0)) / n

    def count(name: str) -> float:
        return delta.get(f"{_KEY}count.{name}", 0.0) / n

    def calls(layer: str) -> float:
        return delta.get(f"{_KEY}calls.{layer}", 0.0) / n

    def useful(family: str, attempts: float) -> float:
        prefix = f"{_KEY}key.{family}."
        distinct = sum(1 for k in delta if k.startswith(prefix))
        return distinct / attempts if attempts else 0.0

    def per(value: float, work: float, scale: float) -> float:
        return value / work * scale if work else 0.0

    engine = sum(total(layer) for layer in (
        "runtime.batched_env.step", "runtime.batched_qdpm.control",
        "core.qtable.update", "runtime.batched_qdpm.loop"))
    parent = sum(v for k, v in delta.items()
                 if k.startswith(f"{_KEY}self.")) / n
    return {
        "runtime.batched_env.step_s": total("runtime.batched_env.step"),
        "runtime.batched_qdpm.control_s":
            total("runtime.batched_qdpm.control"),
        "core.qtable.update_s": total("core.qtable.update"),
        "runtime.batched_qdpm.loop_s": total("runtime.batched_qdpm.loop"),
        "slotted.lockstep_slots": count("slotted.lockstep_slots"),
        "slotted.replica_slots": count("slotted.replica_slots"),
        "slotted.us_per_lockstep_slot":
            per(engine, count("slotted.lockstep_slots"), 1e6),
        "slotted.ns_per_replica_slot":
            per(engine, count("slotted.replica_slots"), 1e9),
        "mdp.build_s": total("mdp.build"),
        "mdp.builds": calls("mdp.build"),
        "mdp.solve_s": total("mdp.solve"),
        "mdp.solves": calls("mdp.solve"),
        "mdp.evaluate_s": total("mdp.evaluate"),
        "mdp.evaluations": calls("mdp.evaluate"),
        "adaptive.model_based_s": total("adaptive.model_based"),
        "workload.realize_s": total("workload.realize"),
        "workload.realize_calls": calls("workload.realize"),
        "workload.realize_useful_ratio":
            useful("realize", calls("workload.realize")),
        "workload.faults_s": total("workload.faults"),
        "fleet.route_s": total("fleet.route"),
        "fleet.route_calls": calls("fleet.route"),
        "fleet.route_requests": count("fleet.route_requests"),
        "fleet.route_us_per_request":
            per(total("fleet.route"), count("fleet.route_requests"), 1e6),
        "fleet.route_useful_ratio": useful("route", calls("fleet.route")),
        "fleet.route_retries": count("fleet.route_retries"),
        "fleet.route_dropped": count("fleet.route_dropped"),
        "fleet.route_shed": count("fleet.route_shed"),
        "fleet.breaker_trips": count("fleet.breaker_trips"),
        "runtime.eventsim.kernel_s": total("runtime.eventsim.kernel"),
        "runtime.eventsim.kernel_calls": calls("runtime.eventsim.kernel"),
        "runtime.eventsim.kernel_subtraces":
            count("runtime.eventsim.kernel_subtraces"),
        "runtime.eventsim.kernel_ns_per_request":
            per(total("runtime.eventsim.kernel"),
                count("runtime.eventsim.kernel_requests"), 1e9),
        "fleet.report_s": total("fleet.report"),
        "runtime.verify.check_s": total("runtime.verify.check"),
        "runtime.verify.checks": calls("runtime.verify.check"),
        "runtime.executor.submit_s": total("runtime.executor.submit"),
        "runtime.executor.wait_s": total("runtime.executor.wait"),
        "runtime.executor.result_bytes": result_bytes / n,
        "runtime.executor.worker_busy_s": worker_busy / n,
        "analysis.bootstrap_s": total("analysis.bootstrap"),
        "analysis.bootstrap_calls": calls("analysis.bootstrap"),
        "analysis.render_s": total("analysis.render"),
        "other_s": sum(traced_walls) / n - parent,
        "trace_overhead_s": (statistics.median(traced_walls)
                             - statistics.median(untraced_walls)),
    }


def pickled_bytes(results: List[Any]) -> int:
    """Computed size of chunk results as pickled for the trip home."""
    return sum(len(pickle.dumps(r)) for r in results)
