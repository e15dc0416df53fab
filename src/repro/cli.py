"""Command-line entry point: run any reproduction experiment.

Usage::

    python -m repro fig1            # Fig. 1  convergence on optimal policy
    python -m repro fig2            # Fig. 2  rapid response
    python -m repro overhead        # CLAIM-EFF / CLAIM-MEM tables
    python -m repro variation       # CLAIM-VAR drift tolerance
    python -m repro policies        # EXT-POLICY event-driven table
    python -m repro grid            # GRID rate x device x controller table
    python -m repro sim-sweep       # SIM-SWEEP device x trace x policy CIs
    python -m repro fleet-sweep     # FLEET-SWEEP fleet x router x policy CIs
    python -m repro all             # everything, in order
    python -m repro sweep --seeds 8 # multi-seed CI sweep of fig1/fig2/variation

Each command prints the same ASCII figure/table recorded in
EXPERIMENTS.md.  ``--quick`` shrinks horizons ~10x for smoke runs.
``--seeds N`` runs N independent seeds lock-step on the batched engine
(:mod:`repro.runtime`) and adds bootstrap CIs; ``--batch B`` caps the
replicas per lock-step batch; ``--jobs J`` shards seed chunks (and grid
cells / policy-table cells) across J worker processes — results are
bit-identical at any job count.  ``fleet-sweep`` additionally takes
``--devices N`` (fleet size) and ``--router NAME`` (single routing
policy) to zoom the dispatch grid, ``--mtbf`` / ``--mttr`` to inject
seeded device failures (with ``--max-retries`` bounding failover
retries before a request drops), and ``--checkpoint PATH`` to journal
completed chunks — rerun with ``--resume`` to pick up an interrupted
sweep bit-identically instead of starting over.  The overload knobs
layer graceful degradation on top: ``--brownout-severity M`` turns
fault intervals into brownouts that multiply service demand by M
instead of stopping the device, ``--slo S`` sheds requests whose
predicted completion misses the ``arrival + S`` deadline, ``--breaker
K`` arms per-device circuit breakers that open after K consecutive
failures, and ``--retry-budget C`` caps fleet-wide failover retries
with a C-token bucket (exhaustion sheds instead of retry-storming).

Which command takes which flag is declared once, in :data:`_COMMANDS`
(tabulated in EXPERIMENTS.md): each entry names the experiment's run
function, its default config, its ``--quick`` preset, and the config
field every flag it takes sets.  A flag the command does not take is an
error — for ``sweep``, one that none of fig1/fig2/variation takes — and
under ``all`` it prints a ``note:`` line per command it skips.

``--verify P`` shadow-runs fraction P of seed chunks / cells on a
reference path (for slotted chunks, the engine they did not run on)
and compares field-for-field (any divergence
aborts); ``--diagnostics DIR`` writes minimal-repro JSON bundles on
invariant violations or worker failures.  Ctrl-C (or SIGTERM) during a
checkpointed sweep flushes the journal, prints a one-line resume hint,
and exits with status 130.

Telemetry (:mod:`repro.runtime.telemetry`) rides along on any
experiment: ``--trace FILE`` records hierarchical spans (including from
pool workers) and writes a Chrome trace-event file — open it in
Perfetto or chrome://tracing; one track per worker — or a JSONL event
stream when FILE ends in ``.jsonl``; ``--metrics`` prints the
end-of-run metrics summary table; ``--progress`` shows a live
chunks-done/throughput/ETA line.  All three write to **stderr** (and
the progress line degrades to plain periodic lines off-TTY, honoring
``NO_COLOR``), so piped stdout stays machine-parseable; none of them
touches an RNG stream — traced results are bit-identical to untraced
ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional

from .experiments import (
    Fig1Config,
    Fig2Config,
    FleetConfig,
    GridConfig,
    OverheadConfig,
    PolicyTableConfig,
    SimSweepConfig,
    VariationConfig,
    run_fig1,
    run_fig2,
    run_fleet_sweep,
    run_grid,
    run_overhead,
    run_policy_table,
    run_sim_sweep,
    run_variation,
)
from .fleet import ROUTERS
from .runtime.telemetry import TELEMETRY, export_trace
from .runtime.verify import SweepInterrupted


def _verification_line(execution) -> str:
    """One-line shadow-verification summary for a sweep's metadata."""
    block = (execution or {}).get("verification")
    if not block:
        return ""
    return (
        f"verification: {block['n_verified']}/{block['n_chunks']} chunks "
        f"shadow-verified against {block['reference']} — "
        f"{block['n_divergences']} divergence(s)"
    )


def _set_field(config, path: str, value):
    """``config`` with the (dotted) field ``path`` set to ``value``; a
    tuple-valued field is an axis, and a flag sets it to one value."""
    head, _, rest = path.partition(".")
    current = getattr(config, head)
    if rest:
        value = _set_field(current, rest, value)
    elif isinstance(current, tuple):
        value = (value,)
    return dataclasses.replace(config, **{head: value})


@dataclasses.dataclass(frozen=True)
class _Command:
    """One experiment behind the CLI.

    ``quick`` holds the ``--quick`` overrides of the default ``config``;
    ``flags`` maps each flag the command accepts (by its argparse dest)
    to the config field it sets, dotted for the ``sweep`` block.
    """

    run: Callable[[Any], Any]
    config: Callable[[], Any]
    quick: Mapping[str, Any]
    flags: Mapping[str, str]

    def __call__(self, quick: bool, **kwargs) -> str:
        config = self.config()
        if quick:
            config = dataclasses.replace(config, **self.quick)
        for dest, value in kwargs.items():
            config = _set_field(config, self.flags[dest], value)
        result = self.run(config)
        line = _verification_line(getattr(result, "execution", None))
        return result.render() + ("\n" + line if line else "")


_SWEEP_FLAGS = {"n_seeds": "sweep.n_seeds", "batch": "sweep.batch_size",
                "jobs": "sweep.n_jobs"}
_VERIFY_FLAGS = {"verify": "sweep.verify_fraction",
                 "diagnostics": "sweep.diagnostics_dir"}
_EVENT_FLAGS = {"n_seeds": "n_traces", "jobs": "n_jobs",
                "verify": "verify_fraction", "diagnostics": "diagnostics_dir"}

_COMMANDS: Dict[str, Callable[..., str]] = {
    "fig1": _Command(run_fig1, Fig1Config,
                     dict(n_slots=30_000, record_every=1_000),
                     {**_SWEEP_FLAGS, **_VERIFY_FLAGS}),
    "fig2": _Command(run_fig2, Fig2Config,
                     dict(segment_slots=8_000, record_every=500,
                          mb_min_samples=400, mb_freeze_slots=800),
                     {**_SWEEP_FLAGS, **_VERIFY_FLAGS}),
    "grid": _Command(run_grid, GridConfig,
                     dict(horizons=(5_000,), record_every=1_000),
                     _SWEEP_FLAGS),
    "overhead": _Command(run_overhead, OverheadConfig,
                         dict(queue_capacities=(4, 8), n_q_ops=2_000),
                         {"batch": "batch_size"}),
    "variation": _Command(run_variation, VariationConfig,
                          dict(n_slots=20_000, warmup_slots=15_000),
                          {**_SWEEP_FLAGS, **_VERIFY_FLAGS}),
    "policies": _Command(run_policy_table, PolicyTableConfig,
                         dict(duration=5_000.0), {"jobs": "n_jobs"}),
    "sim-sweep": _Command(run_sim_sweep, SimSweepConfig,
                          dict(duration=2_000.0, n_traces=4), _EVENT_FLAGS),
    "fleet-sweep": _Command(
        run_fleet_sweep, FleetConfig, dict(duration=500.0, n_traces=4),
        {**_EVENT_FLAGS, "devices": "fleet_sizes", "router": "routers",
         **{name: name for name in (
             "mtbf", "mttr", "max_retries", "brownout_severity", "slo",
             "breaker", "retry_budget", "checkpoint")}},
    ),
}

#: the flags each command accepts, read from the table once so the checks
#: hold whatever callable is registered under the name
_ACCEPTS = {name: tuple(command.flags) for name, command in _COMMANDS.items()}
#: every table flag, in first-declared order
_FLAGS = tuple(dict.fromkeys(d for flags in _ACCEPTS.values() for d in flags))


def _flag(dest: str) -> str:
    """The command-line spelling of an argparse dest."""
    return "--seeds" if dest == "n_seeds" else "--" + dest.replace("_", "-")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-qdpm",
        description="Reproduce the experiments of the Q-DPM paper (DATE 2005).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all", "sweep"],
        help="which experiment to run ('sweep' = multi-seed fig1/fig2/variation)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink horizons ~10x for a fast smoke run",
    )
    parser.add_argument(
        "--seeds",
        dest="n_seeds",
        type=int,
        default=None,
        metavar="N",
        help="run N independent seeds lock-step on the batched engine "
             "(for sim-sweep: N trace replications per cell)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="B",
        help="max replicas per lock-step batch (default 32)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help="shard work units across J worker processes (default 1)",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help="fleet-sweep: replicate the device N times behind the "
             "dispatcher (replaces the default fleet-size axis)",
    )
    parser.add_argument(
        "--router",
        choices=sorted(ROUTERS),
        default=None,
        help="fleet-sweep: run a single routing policy "
             "(default: the full router axis)",
    )
    parser.add_argument(
        "--mtbf",
        type=float,
        default=None,
        metavar="S",
        help="fleet-sweep: inject seeded device failures with this mean "
             "time between failures (seconds; default: no faults)",
    )
    parser.add_argument(
        "--mttr",
        type=float,
        default=None,
        metavar="S",
        help="fleet-sweep: mean time to repair a failed device "
             "(seconds; requires --mtbf)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help="fleet-sweep: failover retries before a request routed to "
             "a down device is dropped (requires --mtbf)",
    )
    parser.add_argument(
        "--brownout-severity",
        type=float,
        default=None,
        metavar="M",
        help="fleet-sweep: make fault intervals brownouts — the device "
             "keeps serving but every request's service demand is "
             "multiplied by M >= 1 (requires --mtbf)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="S",
        help="fleet-sweep: give each request the deadline arrival + S "
             "seconds; requests whose predicted completion misses it "
             "are shed on admission",
    )
    parser.add_argument(
        "--breaker",
        type=int,
        default=None,
        metavar="K",
        help="fleet-sweep: arm per-device circuit breakers that open "
             "after K consecutive observed failures (half-open reprobe "
             "after the recovery window)",
    )
    parser.add_argument(
        "--retry-budget",
        type=float,
        default=None,
        metavar="C",
        help="fleet-sweep: cap fleet-wide failover retries with a "
             "C-token bucket; exhaustion sheds the request instead of "
             "retry-storming",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="fleet-sweep: journal completed chunk results to PATH "
             "(a fresh run truncates an existing journal; see --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="fleet-sweep: resume from the --checkpoint journal instead "
             "of starting over (results are bit-identical either way)",
    )
    parser.add_argument(
        "--verify",
        type=float,
        default=None,
        metavar="P",
        help="shadow-run fraction P of seed chunks / cells on a reference "
             "path (slotted chunks: the other engine) and compare "
             "field-for-field (0 <= P <= 1; "
             "any divergence aborts with a diagnostics bundle)",
    )
    parser.add_argument(
        "--diagnostics",
        default=None,
        metavar="DIR",
        help="write minimal-repro JSON bundles to DIR on invariant "
             "violations, shadow divergences, or worker failures",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record runtime spans (including from pool workers) and "
             "write a Chrome trace-event file on exit — open in Perfetto "
             "or chrome://tracing; a FILE ending in .jsonl gets the JSONL "
             "event stream instead.  Results are bit-identical to an "
             "untraced run",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the end-of-run telemetry metrics summary table "
             "(counters/gauges/histograms) to stderr",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="show live sweep progress (chunks done/total, throughput, "
             "ETA, workers) on stderr; degrades to plain periodic lines "
             "when stderr is not a TTY",
    )
    args = parser.parse_args(argv)
    if args.n_seeds is not None and args.n_seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.batch is not None and args.batch < 1:
        parser.error("--batch must be >= 1")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.devices is not None and args.devices < 1:
        parser.error("--devices must be >= 1")
    # float settings are checked as ``not value > 0`` (or ``>= 1`` /
    # ``>= 0``) so that NaN fails them too
    if args.mtbf is not None and not args.mtbf > 0:
        parser.error("--mtbf must be > 0")
    if args.mttr is not None and not args.mttr > 0:
        parser.error("--mttr must be > 0")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if (args.brownout_severity is not None
            and not args.brownout_severity >= 1.0):
        parser.error("--brownout-severity must be >= 1")
    if args.slo is not None and not args.slo > 0:
        parser.error("--slo must be > 0")
    if args.breaker is not None and args.breaker < 1:
        parser.error("--breaker must be >= 1")
    if args.retry_budget is not None and not args.retry_budget >= 0:
        parser.error("--retry-budget must be >= 0")
    for flag, value in (("--mttr", args.mttr),
                        ("--max-retries", args.max_retries),
                        ("--brownout-severity", args.brownout_severity)):
        if value is not None and args.mtbf is None:
            parser.error(f"{flag} requires --mtbf (no faults to configure)")
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.verify is not None and not 0.0 <= args.verify <= 1.0:
        parser.error("--verify must be in [0, 1]")

    telemetry_on = args.trace is not None or args.metrics or args.progress
    if telemetry_on:
        TELEMETRY.reset()
        if args.trace is not None:
            TELEMETRY.enable_tracing()
        if args.progress:
            TELEMETRY.enable_progress()
    try:
        return _run_experiments(args, parser)
    finally:
        if telemetry_on:
            _finish_telemetry(args)


def _finish_telemetry(args) -> None:
    """Flush the run's telemetry: summary table and/or trace file.

    Both go to stderr (the table itself and the confirmation line), so
    redirected stdout keeps carrying only the experiment output.  Runs
    in a ``finally`` — an interrupted sweep still exports whatever it
    recorded.
    """
    if args.metrics:
        print(TELEMETRY.root_metrics.render(), file=sys.stderr)
    if args.trace is not None:
        path = export_trace(args.trace)
        form = (
            "JSONL event stream" if str(path).endswith(".jsonl")
            else "Chrome trace-event; open in Perfetto or chrome://tracing"
        )
        print(f"trace written to {path} ({form})", file=sys.stderr)
    TELEMETRY.reset()


def _run_experiments(args, parser) -> int:
    """Dispatch the chosen experiment(s); returns the exit code."""
    if args.experiment == "sweep":
        names = ("fig1", "fig2", "variation")
        if args.n_seeds is None:
            args.n_seeds = 8
    elif args.experiment == "all":
        names = sorted(_COMMANDS)
    else:
        names = (args.experiment,)
    given = [dest for dest in _FLAGS if getattr(args, dest) is not None]
    if args.experiment != "all":
        accepted = {dest for name in names for dest in _ACCEPTS[name]}
        for dest in given:
            if dest not in accepted:
                takers = sorted(n for n, a in _ACCEPTS.items() if dest in a)
                parser.error(
                    f"{_flag(dest)} is not supported for "
                    f"{args.experiment!r} (accepted by: {', '.join(takers)})"
                )

    if (args.checkpoint is not None and not args.resume
            and os.path.exists(args.checkpoint)):
        # fresh run: drop the stale journal so old chunk results are
        # not silently resumed
        os.remove(args.checkpoint)

    for name in names:
        if args.experiment == "sweep":
            print(f"=== {name} (x{args.n_seeds} seeds) ===")
        else:
            print(f"=== {name} ===")
        kwargs = {}
        for dest in given:
            if dest in _ACCEPTS[name]:
                kwargs[dest] = getattr(args, dest)
            else:
                print(f"note: {_flag(dest)} has no effect on {name!r}")
        try:
            out = _COMMANDS[name](args.quick, **kwargs)
        except SweepInterrupted as exc:
            print(f"\n{name}: {exc.resume_hint()}", file=sys.stderr)
            return 130
        print(out)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
