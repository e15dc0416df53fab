"""Grid-product scenario sweeps: rate x device x horizon x controller.

Sweep specs are cheap value objects, so a scenario grid is just the
cartesian product of a few axes, each cell a :class:`RolloutSpec` run by
the same chunked machinery as a single sweep.  :class:`GridRunner`
flattens the full cell x seed-chunk matrix into one task list for the
shared chunked-sweep core (:mod:`repro.runtime.chunked`) — with
``n_jobs > 1`` the whole grid shards across processes, not just one
cell's chunks — then reassembles per-cell :class:`SweepResult`s with
bootstrap-CI aggregation and renders a comparison table.

Two controller kinds cover the reproduction's standing comparison:

- ``"qdpm"`` — the learning controller (the spec's Q-DPM
  hyperparameters);
- ``"frozen"`` — the optimal policy solved per cell (policy iteration
  at the cell's mean arrival rate on the cell's device), rolled out as a
  vectorized fixed-policy sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..analysis.ascii_plot import format_table
from ..analysis.bootstrap import CI
from ..checks import check_count
from ..device import get_preset
from ..env import build_dpm_model
from ..workload.nonstationary import ConstantRate, RateSchedule
from .chunked import ChunkedRunner
from .sweep import RolloutSpec, SweepResult, slotted_plan

#: Controller kinds a grid axis may name.
CONTROLLERS = ("qdpm", "frozen")

#: A rate axis entry: a Bernoulli arrival probability or a full schedule.
RateLike = Union[float, RateSchedule]


def _rate_label(rate: RateLike) -> str:
    if isinstance(rate, RateSchedule):
        return repr(rate)
    return f"{float(rate):g}"


@dataclass(frozen=True)
class GridCell:
    """One grid coordinate with its realized rollout recipe."""

    rate: RateLike
    device: str
    n_slots: int
    controller: str
    spec: RolloutSpec

    @property
    def rate_label(self) -> str:
        """Compact table label for the rate axis value."""
        return _rate_label(self.rate)


@dataclass(frozen=True)
class GridSpec:
    """A scenario grid: a base recipe plus the axes that vary.

    ``base`` supplies everything the axes do not override (queue
    capacity, reward weights, Q-DPM hyperparameters, ``record_every``,
    RNG mode, seed offsets).  ``rates`` entries may be floats (wrapped
    in :class:`~repro.workload.ConstantRate`) or full
    :class:`~repro.workload.RateSchedule` objects; ``horizons`` defaults
    to the base spec's ``n_slots``.
    """

    base: RolloutSpec
    rates: Tuple[RateLike, ...]
    devices: Tuple[str, ...] = ("abstract3",)
    horizons: Tuple[int, ...] = ()
    controllers: Tuple[str, ...] = ("qdpm",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(self.rates))
        object.__setattr__(self, "devices", tuple(self.devices))
        horizons = tuple(self.horizons) or (self.base.n_slots,)
        object.__setattr__(self, "horizons", horizons)
        object.__setattr__(self, "controllers", tuple(self.controllers))
        if not self.rates:
            raise ValueError("need at least one rate")
        if not self.devices:
            raise ValueError("need at least one device")
        if not self.controllers:
            raise ValueError("need at least one controller")
        for horizon in self.horizons:
            if int(horizon) < 1:
                raise ValueError(f"horizons must be >= 1, got {horizon}")
        for controller in self.controllers:
            if controller not in CONTROLLERS:
                raise ValueError(
                    f"unknown controller {controller!r}; "
                    f"known kinds: {', '.join(CONTROLLERS)}"
                )

    @property
    def n_cells(self) -> int:
        """Cells in the cartesian product."""
        return (
            len(self.rates) * len(self.devices)
            * len(self.horizons) * len(self.controllers)
        )

    def _frozen_policy(self, rate: RateLike, device: str, horizon: int):
        """Optimal policy for one cell (solved at the cell's mean rate)."""
        rate_value = (
            rate.mean_rate(horizon)
            if isinstance(rate, RateSchedule) else float(rate)
        )
        model = build_dpm_model(
            get_preset(device),
            arrival_rate=rate_value,
            slot_length=self.base.slot_length,
            queue_capacity=self.base.queue_capacity,
            p_serve=self.base.p_serve,
            perf_weight=self.base.perf_weight,
            loss_penalty=self.base.loss_penalty,
        )
        return model.solve(self.base.discount, "policy_iteration").policy

    def cells(self) -> List[GridCell]:
        """Realize every (rate, device, horizon, controller) coordinate."""
        out: List[GridCell] = []
        for rate, device, horizon, controller in product(
            self.rates, self.devices, self.horizons, self.controllers
        ):
            horizon = int(horizon)
            schedule = (
                rate if isinstance(rate, RateSchedule)
                else ConstantRate(float(rate))
            )
            policy = (
                self._frozen_policy(rate, device, horizon)
                if controller == "frozen" else None
            )
            spec = replace(
                self.base,
                schedule=schedule,
                device=device,
                n_slots=horizon,
                policy=policy,
                # warmup is a learning-phase concept; fixed policies skip it
                warmup_schedule=(
                    None if controller == "frozen"
                    else self.base.warmup_schedule
                ),
                warmup_slots=(
                    0 if controller == "frozen" else self.base.warmup_slots
                ),
            )
            out.append(
                GridCell(
                    rate=rate, device=device, n_slots=horizon,
                    controller=controller, spec=spec,
                )
            )
        return out


@dataclass
class GridCellResult:
    """One cell's sweep, with its CI aggregation."""

    cell: GridCell
    result: SweepResult

    def reward_ci(self, confidence: float = 0.95) -> CI:
        """Bootstrap CI of the cell's across-seed mean reward."""
        return self.result.reward_ci(confidence)

    def saving_ci(self, confidence: float = 0.95) -> CI:
        """Bootstrap CI of the cell's across-seed mean saving ratio."""
        return self.result.saving_ci(confidence)


@dataclass
class GridResult:
    """The full grid, in cell order, with a comparison-table renderer."""

    grid: GridSpec
    seeds: List[int]
    cells: List[GridCellResult] = field(default_factory=list)
    #: how the runner executed the grid (job count and decision, chunk
    #: counts, resilience events, ``metrics`` snapshot)
    execution: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    def render(self) -> str:
        """Comparison table: one row per cell, CIs when seeds > 1."""
        multi = self.n_seeds > 1
        headers = ["rate", "device", "horizon", "controller",
                   "reward", "saving"]
        if multi:
            headers += ["reward +-95", "saving +-95"]
        rows = []
        for cr in self.cells:
            reward_ci = cr.reward_ci()
            saving_ci = cr.saving_ci()
            row = [
                cr.cell.rate_label, cr.cell.device, cr.cell.n_slots,
                cr.cell.controller, round(reward_ci.estimate, 4),
                round(saving_ci.estimate, 4),
            ]
            if multi:
                row += [
                    round(reward_ci.half_width, 4),
                    round(saving_ci.half_width, 4),
                ]
            rows.append(row)
        title = (
            f"GRID: {self.grid.n_cells} cells "
            f"(rate x device x horizon x controller) x "
            f"{self.n_seeds} seed{'s' if self.n_seeds != 1 else ''}"
        )
        return format_table(headers, rows, title=title)


class GridRunner(ChunkedRunner):
    """Fan a scenario grid's cell x chunk matrix across the executor,
    through the shared sweep core (:mod:`repro.runtime.chunked`): every seed
    run is invariant-checked and Ctrl-C raises
    :class:`~repro.runtime.verify.SweepInterrupted`.

    Parameters
    ----------
    batch_size:
        Replicas per lock-step batch within every cell.
    n_jobs:
        Worker processes the flattened task list shards across; cells
        and chunks are all independent work units, so parallelism spans
        the whole grid.
    """

    def __init__(self, batch_size: int = 32, n_jobs: int = 1) -> None:
        self._configure("batch_size", batch_size, n_jobs)

    def run(self, grid: GridSpec, seeds: Sequence[int]) -> GridResult:
        """Run every grid cell for every seed; bit-identical for any
        ``(batch_size, n_jobs)`` combination."""
        seeds = [check_count("seed", s, 0) for s in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        cells = grid.cells()
        plan = slotted_plan(grid, [c.spec for c in cells], seeds,
                            self.batch_size)
        per_cell, execution = self._sweep(
            "grid", plan, n_cells=len(cells), n_seeds=len(seeds),
            batch_size=self.batch_size,
        )
        return GridResult(grid=grid, seeds=seeds, execution=execution, cells=[
            GridCellResult(cell=cell, result=SweepResult(spec=cell.spec,
                                                         runs=runs))
            for cell, runs in zip(cells, per_cell)
        ])
