"""The benchmark's workloads and the record of what each iteration simulated.

A workload is a list of experiment calls, each an entry point of
``repro.experiments`` with the config it is given.  One iteration runs
every call and renders its result, exactly as the CLI does.  Configs are
built from the workload seed and nothing else, so the same seed gives
the same inputs.

Horizons are shortened so that one iteration takes two to eight CPU
seconds and a run holds several: slotted horizons are the paper defaults
divided by ``SLOT_SCALE``, fleet traces span ``FLEET_DURATION`` or
``OVERLOAD_DURATION`` simulated seconds instead of the default 2,000.
Everything that sets a per-slot or per-request cost is the experiments'
own: the seed count, the batch shape, the device, the grid, the routers
and the policies.  A shorter horizon only raises the share of the costs
fixed per call (MDP solves for the optimal baselines, bootstrap CIs,
rendering); the cuts below were chosen by tracing each workload at these
horizons and at the defaults (the shares are in ``README.md``).
"""

from __future__ import annotations

import dataclasses
import math
import resource
from contextlib import contextmanager
from dataclasses import dataclass, replace
from inspect import signature
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.config import (
    Fig1Config,
    Fig2Config,
    FleetConfig,
    SweepConfig,
    VariationConfig,
)
from repro.experiments.fig1_convergence import run_fig1
from repro.experiments.fig2_nonstationary import run_fig2
from repro.experiments.fleet_sweep import run_fleet_sweep
from repro.experiments.variation import run_variation
from repro.fleet import FleetReport, FleetSweepRunner
from repro.runtime import SweepRunner

#: divisor of the paper-default slot horizons.  Traced, the slotted
#: engine's share of ``paper`` is 97% here and 98.6% at the defaults.
#: fig2's record interval and model-based timing knobs scale with it, so
#: fig2 still renders 200 records and re-optimizes once per switch; its
#: CUSUM drift and threshold are per-slot arrival statistics and stay
SLOT_SCALE = 100
#: fig1 records (and exactly evaluates a snapshot) every 2,000 slots; it
#: keeps that rate, so evaluations stay the same share per slot, and
#: needs at least two records to render
FIG1_SLOTS = 4_000
#: simulated seconds per fleet trace; the sweep's cost model keeps the
#: pool at ``FLEET_JOBS`` from ~521 s up, and bootstrap CIs (fixed per
#: cell) take ~14% of the CPU here against 23% at 600 s and 8.5% at the
#: default 2,000 s
FLEET_DURATION = 1_200.0
#: worker processes of the ``fleet`` workload (the CLI's ``nproc`` on a
#: two-core host)
FLEET_JOBS = 2
#: the serial overload loop costs ~2x per request, so a shorter horizon:
#: routing is 53% of chunk time here and 55% at the default 2,000 s
OVERLOAD_DURATION = 800.0
#: the CI smoke job's overload knobs
OVERLOAD = dict(mtbf=120.0, mttr=15.0, brownout_severity=2.5, slo=30.0,
                breaker=3, retry_budget=16.0)
#: shadow-verified share of fleet chunks in the warm-up iteration
FLEET_VERIFY_FRACTION = 0.02

Call = Tuple[Callable[[Any], Any], Any]


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and of its children
    that have ended (pool workers are joined when their sweep ends).

    The benchmark times CPU rather than wall clock: every iteration
    repeats identical work, and on a shared host time spent waiting for
    a core measures other tenants, not the program.  Their effect on
    the speed of the core is scaled out by :mod:`perfbench.hostspeed`.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _fig1(seed: int, sweep: SweepConfig) -> Call:
    base = Fig1Config()
    return run_fig1, replace(base, sweep=sweep, seed=base.seed + seed,
                             n_slots=FIG1_SLOTS)


def _fig2(seed: int, sweep: SweepConfig) -> Call:
    base = Fig2Config()
    k = SLOT_SCALE
    return run_fig2, replace(
        base, sweep=sweep, seed=base.seed + seed,
        segment_slots=base.segment_slots // k,
        record_every=base.record_every // k,
        mb_window=base.mb_window // k,
        mb_min_samples=base.mb_min_samples // k,
        mb_freeze_slots=base.mb_freeze_slots // k,
    )


def _variation(seed: int, sweep: SweepConfig) -> Call:
    base = VariationConfig()
    k = SLOT_SCALE
    return run_variation, replace(
        base, sweep=sweep, seed=base.seed + seed,
        n_slots=base.n_slots // k, period=base.period // k,
        warmup_slots=base.warmup_slots // k,
    )


def _paper(seed: int, verify: bool) -> List[Call]:
    sweep = SweepConfig(verify_fraction=1.0 if verify else 0.0)
    return [_fig1(seed, sweep), _fig2(seed, sweep), _variation(seed, sweep)]


def _paper_batched(seed: int, verify: bool) -> List[Call]:
    # only fig1 is shadow-verified: variation's frozen arm would re-run
    # all 32 seeds one at a time, ~20 s per check
    batched = SweepConfig(n_seeds=32, batch_size=32)
    checked = replace(batched, verify_fraction=1.0 if verify else 0.0)
    return [_fig1(seed, checked), _variation(seed, batched)]


def _fleet(seed: int, verify: bool, **knobs: Any) -> List[Call]:
    base = FleetConfig()
    return [(run_fleet_sweep, replace(
        base, seed=base.seed + seed,
        verify_fraction=FLEET_VERIFY_FRACTION if verify else 0.0, **knobs,
    ))]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the calls it makes (its reason is in
    ``BENCHMARK.json``)."""

    name: str
    #: "slotted" results are compared bit-exactly, "fleet" ones at rel 1e-9
    kind: str
    #: ``calls(seed, verify)``; ``verify`` turns on the runners' sampled
    #: shadow run against the scalar reference (warm-up iteration only)
    calls: Callable[[int, bool], List[Call]]
    #: worker processes every fleet sweep must actually run on; a sweep
    #: the runner's cost model sends elsewhere counts as failed
    jobs: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper", "slotted", _paper),
    Workload("paper-batched", "slotted", _paper_batched),
    Workload("fleet", "fleet",
             lambda seed, verify: _fleet(seed, verify, n_jobs=FLEET_JOBS,
                                         duration=FLEET_DURATION),
             jobs=FLEET_JOBS),
    Workload("fleet-overload", "fleet",
             lambda seed, verify: _fleet(seed, verify,
                                         duration=OVERLOAD_DURATION,
                                         **OVERLOAD)),
)}

#: tolerance of a fingerprint comparison, per workload kind
REL_TOL = {"slotted": 0.0, "fleet": 1e-9}


# --------------------------------------------------------------------- #
# what an iteration simulated
# --------------------------------------------------------------------- #


def _seed_row(run) -> list:
    t = run.totals
    return [int(run.seed), float(run.mean_reward), float(run.saving_ratio),
            int(t.slots), float(t.energy), float(t.queue_integral),
            int(t.arrivals), int(t.completions), int(t.losses)]


_FLEET_FIELDS = [
    f.name for f in dataclasses.fields(FleetReport)
    if f.name not in ("router", "policy", "requests_per_device",
                      "device_reports")
]


def _cell_sums(reports: List[FleetReport]) -> dict:
    """Per-field sums over a cell's replications (counts stay ints)."""
    sums: dict = {}
    for report in reports:
        for name in _FLEET_FIELDS:
            value = getattr(report, name)
            if isinstance(value, dict):
                inner = sums.setdefault(name, {})
                for key, v in value.items():
                    inner[key] = inner.get(key, 0.0) + float(v)
            elif isinstance(value, int):
                sums[name] = sums.get(name, 0) + int(value)
            else:
                sums[name] = sums.get(name, 0.0) + float(value)
    return sums


class Recorder:
    """Times the sweep runners' entry points and keeps what they return.

    Installed for a whole benchmark run; it adds one wrapper call per
    sweep.  After each iteration it holds the simulated work (replica
    slots for ``SweepRunner.run_many``, offered requests for
    ``FleetSweepRunner.run``), the CPU seconds spent inside those
    runners, the worker processes each fleet sweep ran on, and the
    fingerprint: one ``[key, n_work_units, payload]`` entry per seed
    chunk (slotted) or per grid cell (fleet).
    """

    def __init__(self) -> None:
        self.begin()

    def begin(self) -> None:
        """Start a new iteration."""
        self.seconds = 0.0
        self.work = 0
        self.fleet_jobs: List[int] = []
        self.fingerprint: List[list] = []
        self._sweeps = 0

    @contextmanager
    def installed(self):
        originals = {
            SweepRunner: ("run_many", SweepRunner.__dict__["run_many"],
                          self._run_many),
            FleetSweepRunner: ("run", FleetSweepRunner.__dict__["run"],
                               self._fleet_run),
        }
        for owner, (attr, original, hook) in originals.items():
            setattr(owner, attr, hook(original))
        try:
            yield self
        finally:
            for owner, (attr, original, _) in originals.items():
                setattr(owner, attr, original)

    def _timed(self, call: Callable[[], Any]) -> Any:
        start = cpu_seconds()
        result = call()
        self.seconds += cpu_seconds() - start
        return result

    def _run_many(self, original):
        sig = signature(original)

        def run_many(runner, *args, **kwargs):
            bound = sig.bind(runner, *args, **kwargs).arguments
            spec, seeds = bound["spec"], list(bound["seeds"])
            factory = bound.get("controller_factory")
            result = self._timed(lambda: original(runner, *args, **kwargs))
            slots = spec.n_slots
            if (factory is None and spec.policy is None
                    and spec.warmup_schedule is not None):
                slots += spec.warmup_slots
            self.work += slots * len(seeds)
            runs = result.runs
            size = 1 if factory is not None else (
                bound.get("batch_size") or runner.batch_size)
            k, self._sweeps = self._sweeps, self._sweeps + 1
            for j in range(0, len(runs), size):
                self.fingerprint.append([
                    f"sweep{k}.unit{j // size}", 1,
                    [_seed_row(r) for r in runs[j:j + size]],
                ])
            return result

        return run_many

    def _fleet_run(self, original):
        def run(runner, spec):
            result = self._timed(lambda: original(runner, spec))
            chunks = math.ceil(spec.n_traces / runner.chunk_size)
            self.fleet_jobs.append(result.execution["n_jobs_effective"])
            k, self._sweeps = self._sweeps, self._sweeps + 1
            for cell in result.cells:
                self.work += sum(r.n_offered for r in cell.reports)
                self.fingerprint.append([
                    f"fleet{k}.{cell.n_devices}|{cell.router}|{cell.policy}",
                    chunks, _cell_sums(cell.reports),
                ])
            return result

        return run


def _same(got: Any, want: Any, rel: float) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k], rel) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, rel) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        if rel == 0.0:
            return got == want
        return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)
    return got == want


def failed_units(got: List[list], want: List[list], rel: float) -> int:
    """Work units whose results differ from ``want`` (or are missing)."""
    want_by_key = {key: (n, payload) for key, n, payload in want}
    got_by_key = {key: (n, payload) for key, n, payload in got}
    failed = 0
    for key, (n, payload) in want_by_key.items():
        if key not in got_by_key or not _same(got_by_key[key][1], payload, rel):
            failed += n
    failed += sum(n for key, (n, _) in got_by_key.items()
                  if key not in want_by_key)
    return failed
