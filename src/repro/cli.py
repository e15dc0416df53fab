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
from typing import Callable, Dict, List, Optional

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


def _sweep_settings(config, n_seeds: Optional[int], batch: Optional[int],
                    jobs: Optional[int] = None,
                    verify: Optional[float] = None,
                    diagnostics: Optional[str] = None):
    """Overlay CLI sweep flags onto a config's ``sweep`` block."""
    sweep = config.sweep
    if n_seeds is not None:
        sweep = dataclasses.replace(sweep, n_seeds=n_seeds)
    if batch is not None:
        sweep = dataclasses.replace(sweep, batch_size=batch)
    if jobs is not None:
        sweep = dataclasses.replace(sweep, n_jobs=jobs)
    if verify is not None:
        sweep = dataclasses.replace(sweep, verify_fraction=verify)
    if diagnostics is not None:
        sweep = dataclasses.replace(sweep, diagnostics_dir=diagnostics)
    return dataclasses.replace(config, sweep=sweep)


def _verification_line(execution) -> str:
    """One-line shadow-verification summary for a sweep's metadata."""
    block = (execution or {}).get("verification")
    if not block:
        return ""
    if "skipped" in block:
        return f"verification: skipped — {block['skipped']}"
    return (
        f"verification: {block['n_verified']}/{block['n_chunks']} chunks "
        f"shadow-verified against {block['reference']} — "
        f"{block['n_divergences']} divergence(s)"
    )


def _fig1(quick: bool, n_seeds: Optional[int] = None,
          batch: Optional[int] = None, jobs: Optional[int] = None,
          verify: Optional[float] = None,
          diagnostics: Optional[str] = None) -> str:
    config = Fig1Config()
    if quick:
        config = dataclasses.replace(config, n_slots=30_000, record_every=1_000)
    result = run_fig1(
        _sweep_settings(config, n_seeds, batch, jobs, verify, diagnostics)
    )
    line = _verification_line(result.execution)
    return result.render() + ("\n" + line if line else "")


def _fig2(quick: bool, n_seeds: Optional[int] = None,
          batch: Optional[int] = None, jobs: Optional[int] = None,
          verify: Optional[float] = None,
          diagnostics: Optional[str] = None) -> str:
    config = Fig2Config()
    if quick:
        config = dataclasses.replace(
            config, segment_slots=8_000, record_every=500, mb_min_samples=400,
            mb_freeze_slots=800,
        )
    result = run_fig2(
        _sweep_settings(config, n_seeds, batch, jobs, verify, diagnostics)
    )
    line = _verification_line(result.execution)
    return result.render() + ("\n" + line if line else "")


def _overhead(quick: bool, n_seeds: Optional[int] = None,
              batch: Optional[int] = None, jobs: Optional[int] = None) -> str:
    config = OverheadConfig()
    if quick:
        config = dataclasses.replace(
            config, queue_capacities=(4, 8), n_q_ops=2_000
        )
    if batch is not None:
        config = dataclasses.replace(config, batch_size=batch)
    return run_overhead(config).render()


def _variation(quick: bool, n_seeds: Optional[int] = None,
               batch: Optional[int] = None, jobs: Optional[int] = None,
               verify: Optional[float] = None,
               diagnostics: Optional[str] = None) -> str:
    config = VariationConfig()
    if quick:
        config = dataclasses.replace(
            config, n_slots=20_000, warmup_slots=15_000
        )
    result = run_variation(
        _sweep_settings(config, n_seeds, batch, jobs, verify, diagnostics)
    )
    line = _verification_line(result.execution)
    return result.render() + ("\n" + line if line else "")


def _policies(quick: bool, n_seeds: Optional[int] = None,
              batch: Optional[int] = None, jobs: Optional[int] = None) -> str:
    config = PolicyTableConfig()
    if quick:
        config = dataclasses.replace(config, duration=5_000.0)
    if jobs is not None:
        config = dataclasses.replace(config, n_jobs=jobs)
    return run_policy_table(config).render()


def _grid(quick: bool, n_seeds: Optional[int] = None,
          batch: Optional[int] = None, jobs: Optional[int] = None) -> str:
    config = GridConfig()
    if quick:
        config = dataclasses.replace(
            config, horizons=(5_000,), record_every=1_000
        )
    return run_grid(_sweep_settings(config, n_seeds, batch, jobs)).render()


def _sim_sweep(quick: bool, n_seeds: Optional[int] = None,
               batch: Optional[int] = None, jobs: Optional[int] = None,
               verify: Optional[float] = None,
               diagnostics: Optional[str] = None) -> str:
    config = SimSweepConfig()
    if quick:
        config = dataclasses.replace(config, duration=2_000.0, n_traces=4)
    if n_seeds is not None:
        config = dataclasses.replace(config, n_traces=n_seeds)
    if jobs is not None:
        config = dataclasses.replace(config, n_jobs=jobs)
    if verify is not None:
        config = dataclasses.replace(config, verify_fraction=verify)
    if diagnostics is not None:
        config = dataclasses.replace(config, diagnostics_dir=diagnostics)
    result = run_sim_sweep(config)
    out = result.render()
    line = _verification_line(getattr(result, "execution", None))
    return out + "\n" + line if line else out


def _fleet_sweep(quick: bool, n_seeds: Optional[int] = None,
                 batch: Optional[int] = None, jobs: Optional[int] = None,
                 devices: Optional[int] = None,
                 router: Optional[str] = None,
                 mtbf: Optional[float] = None,
                 mttr: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 brownout_severity: Optional[float] = None,
                 slo: Optional[float] = None,
                 breaker: Optional[int] = None,
                 retry_budget: Optional[float] = None,
                 checkpoint: Optional[str] = None,
                 verify: Optional[float] = None,
                 diagnostics: Optional[str] = None) -> str:
    config = FleetConfig()
    if quick:
        config = dataclasses.replace(config, duration=500.0, n_traces=4)
    if n_seeds is not None:
        config = dataclasses.replace(config, n_traces=n_seeds)
    if jobs is not None:
        config = dataclasses.replace(config, n_jobs=jobs)
    if devices is not None:
        config = dataclasses.replace(config, fleet_sizes=(devices,))
    if router is not None:
        config = dataclasses.replace(config, routers=(router,))
    if mtbf is not None:
        config = dataclasses.replace(config, mtbf=mtbf)
    if mttr is not None:
        config = dataclasses.replace(config, mttr=mttr)
    if max_retries is not None:
        config = dataclasses.replace(config, max_retries=max_retries)
    if brownout_severity is not None:
        config = dataclasses.replace(config, brownout_severity=brownout_severity)
    if slo is not None:
        config = dataclasses.replace(config, slo=slo)
    if breaker is not None:
        config = dataclasses.replace(config, breaker=breaker)
    if retry_budget is not None:
        config = dataclasses.replace(config, retry_budget=retry_budget)
    if checkpoint is not None:
        config = dataclasses.replace(config, checkpoint=checkpoint)
    if verify is not None:
        config = dataclasses.replace(config, verify_fraction=verify)
    if diagnostics is not None:
        config = dataclasses.replace(config, diagnostics_dir=diagnostics)
    result = run_fleet_sweep(config)
    out = result.render()
    line = _verification_line(getattr(result, "execution", None))
    return out + "\n" + line if line else out


_COMMANDS: Dict[str, Callable[..., str]] = {
    "fig1": _fig1,
    "fig2": _fig2,
    "grid": _grid,
    "overhead": _overhead,
    "variation": _variation,
    "policies": _policies,
    "sim-sweep": _sim_sweep,
    "fleet-sweep": _fleet_sweep,
}

#: experiments with a multi-seed (batched-engine) path
_SWEEPABLE = ("fig1", "fig2", "grid", "variation")
#: experiments that consume --seeds (batched-engine replicas, plus the
#: event-sim sweeps where N means trace replications per cell)
_SEEDABLE = _SWEEPABLE + ("sim-sweep", "fleet-sweep")
#: experiments that consume --batch (sweepable + the batched Q-op timing)
_BATCHABLE = _SWEEPABLE + ("overhead",)
#: experiments that consume --jobs (multiprocess-sharded work units)
_JOBBABLE = _SWEEPABLE + ("policies", "sim-sweep", "fleet-sweep")
#: experiments that consume --devices / --router (fleet dispatch grid)
_FLEETABLE = ("fleet-sweep",)
#: experiments with a sampled shadow-execution path (--verify/--diagnostics);
#: grid shares the sweep core but GridRunner exposes no verify setting
_VERIFIABLE = ("fig1", "fig2", "variation", "sim-sweep", "fleet-sweep")


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
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.batch is not None and args.batch < 1:
        parser.error("--batch must be >= 1")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.devices is not None and args.devices < 1:
        parser.error("--devices must be >= 1")
    if args.mtbf is not None and args.mtbf <= 0:
        parser.error("--mtbf must be > 0")
    if args.mttr is not None and args.mttr <= 0:
        parser.error("--mttr must be > 0")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.brownout_severity is not None and args.brownout_severity < 1.0:
        parser.error("--brownout-severity must be >= 1")
    if args.slo is not None and args.slo <= 0:
        parser.error("--slo must be > 0")
    if args.breaker is not None and args.breaker < 1:
        parser.error("--breaker must be >= 1")
    if args.retry_budget is not None and args.retry_budget < 0:
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
        n_seeds = args.seeds if args.seeds is not None else 8
        names = ("fig1", "fig2", "variation")
        for name in names:
            print(f"=== {name} (x{n_seeds} seeds) ===")
            try:
                print(_COMMANDS[name](
                    args.quick, n_seeds=n_seeds, batch=args.batch,
                    jobs=args.jobs, verify=args.verify,
                    diagnostics=args.diagnostics,
                ))
            except SweepInterrupted as exc:
                print(f"\n{name}: {exc.resume_hint()}", file=sys.stderr)
                return 130
            print()
        return 0

    if args.experiment != "all":
        if args.seeds is not None and args.experiment not in _SEEDABLE:
            parser.error(
                f"--seeds is not supported for {args.experiment!r} "
                f"(multi-seed experiments: {', '.join(sorted(_SEEDABLE))})"
            )
        if args.batch is not None and args.experiment not in _BATCHABLE:
            parser.error(
                f"--batch is not supported for {args.experiment!r} "
                f"(batched experiments: {', '.join(sorted(_BATCHABLE))})"
            )
        if args.jobs is not None and args.experiment not in _JOBBABLE:
            parser.error(
                f"--jobs is not supported for {args.experiment!r} "
                f"(sharded experiments: {', '.join(sorted(_JOBBABLE))})"
            )
        for flag, value in (("--devices", args.devices),
                            ("--router", args.router),
                            ("--mtbf", args.mtbf),
                            ("--mttr", args.mttr),
                            ("--max-retries", args.max_retries),
                            ("--brownout-severity", args.brownout_severity),
                            ("--slo", args.slo),
                            ("--breaker", args.breaker),
                            ("--retry-budget", args.retry_budget),
                            ("--checkpoint", args.checkpoint),
                            ("--resume", args.resume or None)):
            if value is not None and args.experiment not in _FLEETABLE:
                parser.error(
                    f"{flag} is not supported for {args.experiment!r} "
                    f"(fleet experiments: {', '.join(sorted(_FLEETABLE))})"
                )
        for flag, value in (("--verify", args.verify),
                            ("--diagnostics", args.diagnostics)):
            if value is not None and args.experiment not in _VERIFIABLE:
                parser.error(
                    f"{flag} is not supported for {args.experiment!r} "
                    f"(verifiable experiments: {', '.join(sorted(_VERIFIABLE))})"
                )

    if (args.checkpoint is not None and not args.resume
            and os.path.exists(args.checkpoint)):
        # fresh run: drop the stale journal so old chunk results are
        # not silently resumed
        os.remove(args.checkpoint)

    names = sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"=== {name} ===")
        if name not in _SEEDABLE and args.seeds is not None:
            print(f"note: --seeds has no effect on {name!r}")
        if name not in _BATCHABLE and args.batch is not None:
            print(f"note: --batch has no effect on {name!r}")
        if name not in _JOBBABLE and args.jobs is not None:
            print(f"note: --jobs has no effect on {name!r}")
        if name not in _FLEETABLE and any(
            v is not None
            for v in (args.devices, args.router, args.mtbf, args.mttr,
                      args.max_retries, args.brownout_severity, args.slo,
                      args.breaker, args.retry_budget, args.checkpoint)
        ):
            print(f"note: fleet-sweep flags have no effect on {name!r}")
        if name not in _VERIFIABLE and (
            args.verify is not None or args.diagnostics is not None
        ):
            print(f"note: --verify/--diagnostics have no effect on {name!r}")
        kwargs = {}
        if args.seeds is not None and name in _SEEDABLE:
            kwargs["n_seeds"] = args.seeds
        if args.batch is not None and name in _BATCHABLE:
            kwargs["batch"] = args.batch
        if args.jobs is not None and name in _JOBBABLE:
            kwargs["jobs"] = args.jobs
        if name in _FLEETABLE:
            for key, value in (("devices", args.devices),
                               ("router", args.router),
                               ("mtbf", args.mtbf),
                               ("mttr", args.mttr),
                               ("max_retries", args.max_retries),
                               ("brownout_severity", args.brownout_severity),
                               ("slo", args.slo),
                               ("breaker", args.breaker),
                               ("retry_budget", args.retry_budget),
                               ("checkpoint", args.checkpoint)):
                if value is not None:
                    kwargs[key] = value
        if name in _VERIFIABLE:
            if args.verify is not None:
                kwargs["verify"] = args.verify
            if args.diagnostics is not None:
                kwargs["diagnostics"] = args.diagnostics
        # no flags -> exactly one positional arg (the dispatch contract)
        try:
            out = (_COMMANDS[name](args.quick, **kwargs) if kwargs
                   else _COMMANDS[name](args.quick))
        except SweepInterrupted as exc:
            print(f"\n{name}: {exc.resume_hint()}", file=sys.stderr)
            return 130
        print(out)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
