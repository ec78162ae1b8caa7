"""Experiment sweeps: repetitions over platform x instance grids.

The paper's protocol (Section III): run each configuration in isolation,
repeat 6-20 times, report mean and 95 % confidence interval.
:func:`run_experiment` executes an :class:`ExperimentSpec` cell by cell
(through :class:`~repro.run.parallel.ParallelRunner`, inline or on a
pool) with independent deterministic random streams per repetition;
:func:`run_platform_sweep` is the one-call version for the standard
seven-platform figure layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hostmodel.topology import HostTopology, r830_host
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import make_platform, paper_platform_set
from repro.rng import DEFAULT_SEED
from repro.run.calibration import Calibration
from repro.run.results import ExperimentResult, RunResult, SweepResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.run.parallel import CellTask, ParallelRunner

__all__ = [
    "ExperimentSpec",
    "platform_sweep_spec",
    "run_experiment",
    "run_platform_sweep",
    "sweep_result",
]


@dataclass
class ExperimentSpec:
    """A full sweep specification.

    Parameters
    ----------
    workload:
        The application model.
    instances:
        Instance types to sweep (the figure's x-axis).
    platform_grid:
        (kind, mode) pairs to evaluate at each instance type.
    host:
        Physical host (default: the paper's R830).
    reps:
        Repetitions per cell (paper: 20 for FFmpeg/MPI/Cassandra, 6 for
        WordPress).
    calib:
        Calibration constants.
    seed:
        Root seed of the deterministic random streams.
    """

    workload: Workload
    instances: list[InstanceType]
    platform_grid: list[tuple[PlatformKind, ProvisioningMode]]
    host: HostTopology = field(default_factory=r830_host)
    reps: int = 20
    calib: Calibration = field(default_factory=Calibration)
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.instances:
            raise ConfigurationError("instances must be non-empty")
        if not self.platform_grid:
            raise ConfigurationError("platform_grid must be non-empty")
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")


def run_experiment(
    spec: ExperimentSpec,
    *,
    runner: "ParallelRunner | None" = None,
) -> SweepResult:
    """Execute a sweep specification and return the result grid.

    Each repetition draws its workload randomness from an independent
    stream keyed by (workload, instance, rep) — the *same* stream across
    platforms, so platform comparisons at a given rep see identical
    workload realizations (paired design, tighter overhead ratios).

    The sweep's cells (:func:`~repro.run.parallel.cell_tasks`) run in
    one :meth:`~repro.run.parallel.ParallelRunner.run_tasks` call; a
    serial sweep is a one-job runner, which runs every cell inline in
    this process.

    Execution options live on ``runner`` (default: a one-job
    :class:`~repro.run.parallel.ParallelRunner`): its ``jobs``,
    ``journal``, ``batch``, checkpoint, fault and retry settings choose
    how the cells run, never what they measure.

    Every repetition carries its simulated latency sketches on
    ``RunResult.dist`` (see :mod:`repro.obs.sketch`); a journaled sweep
    also records each cell's merged sketches as a ``cell-dist`` event.
    """
    from repro.run.parallel import ParallelRunner, cell_tasks, execute_cell

    runner = runner or ParallelRunner()
    jl = runner.journal
    if jl.enabled:
        jl.record("sweep-started", label=spec.workload.name)
    t0 = time.perf_counter()
    tasks = cell_tasks(spec)
    sweep = sweep_result(spec, tasks, runner.run_tasks(execute_cell, tasks))
    if jl.enabled:
        jl.record(
            "sweep-finished",
            label=spec.workload.name,
            duration=time.perf_counter() - t0,
        )
    return sweep


def sweep_result(
    spec: ExperimentSpec,
    tasks: "list[CellTask]",
    runs: list[list[RunResult]],
) -> SweepResult:
    """The result grid of ``spec`` from its cells' measured runs.

    ``tasks`` are the sweep's cells in
    :func:`~repro.run.parallel.cell_tasks` order and ``runs`` their
    repetitions, in the same order.  Every sweep result is built here:
    :func:`run_experiment`, the adaptive sweep and the campaign
    assembler (:func:`repro.run.campaign.assemble_result`).
    """
    labels = [make_platform(t.kind, t.instance, t.mode).label() for t in tasks]
    return SweepResult(
        workload=spec.workload.name,
        cells={
            (label, t.instance.name): ExperimentResult(cell_runs)
            for label, t, cell_runs in zip(labels, tasks, runs)
        },
        instance_order=[i.name for i in spec.instances],
        platform_order=labels[: len(spec.platform_grid)],
    )


def platform_sweep_spec(
    workload: Workload,
    instances: list[InstanceType],
    *,
    host: HostTopology | None = None,
    reps: int = 20,
    calib: Calibration | None = None,
    seed: int = DEFAULT_SEED,
) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of the standard seven-platform sweep.

    Exposed separately from :func:`run_platform_sweep` so callers can
    build the exact spec a sweep would run (and its cells) without
    running it.
    """
    if not instances:
        raise ConfigurationError("instances must be non-empty")
    grid: list[tuple[PlatformKind, ProvisioningMode]] = []
    for p in paper_platform_set(instances[0]):
        grid.append((p.kind, p.mode))
    return ExperimentSpec(
        workload=workload,
        instances=instances,
        platform_grid=grid,
        host=host or r830_host(),
        reps=reps,
        calib=calib or Calibration(),
        seed=seed,
    )


def run_platform_sweep(
    workload: Workload,
    instances: list[InstanceType],
    *,
    host: HostTopology | None = None,
    reps: int = 20,
    calib: Calibration | None = None,
    seed: int = DEFAULT_SEED,
    runner: "ParallelRunner | None" = None,
) -> SweepResult:
    """Run the standard seven-platform figure sweep.

    Evaluates ``Vanilla/Pinned {VM, VMCN, CN}`` plus ``Vanilla BM`` —
    the exact configuration set of Figs. 3-6 — through ``runner``, which
    holds every execution option (see :func:`run_experiment`).  A runner
    with a checkpoint store persists every cell as it finishes and
    replays the verified ones on a re-run, so a warm sweep executes
    nothing.
    """
    spec = platform_sweep_spec(
        workload,
        instances,
        host=host,
        reps=reps,
        calib=calib,
        seed=seed,
    )
    return run_experiment(spec, runner=runner)
