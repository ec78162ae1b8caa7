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
from repro.obs.journal import NULL_JOURNAL, Journal
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import paper_platform_set
from repro.rng import DEFAULT_SEED
from repro.run.calibration import Calibration
from repro.run.results import SweepResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.run.parallel import ParallelRunner
    from repro.run.persistence import SweepCache

__all__ = [
    "ExperimentSpec",
    "platform_sweep_spec",
    "run_experiment",
    "run_platform_sweep",
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
    jobs: int = 1,
    runner: "ParallelRunner | None" = None,
    journal: Journal | None = None,
    batch: bool = False,
) -> SweepResult:
    """Execute a sweep specification and return the result grid.

    Each repetition draws its workload randomness from an independent
    stream keyed by (workload, instance, rep) — the *same* stream across
    platforms, so platform comparisons at a given rep see identical
    workload realizations (paired design, tighter overhead ratios).

    Every sweep runs through :meth:`ParallelRunner.run_experiment
    <repro.run.parallel.ParallelRunner.run_experiment>`; a serial sweep
    is a one-job runner, which runs every cell inline in this process.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs serially in this
        process; larger values fan the independent cells out over a
        process pool with bit-for-bit identical results (each
        repetition's stream is derived from the spec's seed, not from
        pool scheduling).
    runner:
        A pre-configured :class:`~repro.run.parallel.ParallelRunner`
        (overrides ``jobs``; use for custom timeout/retry/progress).
    journal:
        Optional run journal recording the sweep's lifecycle events;
        results are identical with or without it.
    batch:
        Route shape-compatible cells through the batched engine
        (:mod:`repro.engine.batch`) — bit-identical results, one
        vectorized advance per wave instead of one scalar simulation
        per cell.

    Every repetition carries its simulated latency sketches on
    ``RunResult.dist`` (see :mod:`repro.obs.sketch`); a journaled sweep
    also records each cell's merged sketches as a ``cell-dist`` event.
    """
    from repro.run.parallel import ParallelRunner

    journal = journal or NULL_JOURNAL
    runner = runner or ParallelRunner(jobs, journal=journal, batch=batch)
    if batch:
        runner.batch = True
    if journal.enabled and not runner.journal.enabled:
        runner.journal = journal
    jl = runner.journal
    if jl.enabled:
        jl.record("sweep-started", label=spec.workload.name)
    t0 = time.perf_counter()
    sweep = runner.run_experiment(spec)
    if jl.enabled:
        jl.record(
            "sweep-finished",
            label=spec.workload.name,
            duration=time.perf_counter() - t0,
        )
    return sweep


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
    probe a :class:`~repro.run.persistence.SweepCache` for the exact
    spec a sweep would run.
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
    jobs: int = 1,
    runner: "ParallelRunner | None" = None,
    cache: "SweepCache | None" = None,
    journal: Journal | None = None,
    batch: bool = False,
) -> SweepResult:
    """Run the standard seven-platform figure sweep.

    Evaluates ``Vanilla/Pinned {VM, VMCN, CN}`` plus ``Vanilla BM`` —
    the exact configuration set of Figs. 3-6.  With ``jobs > 1`` the
    cells run on a worker pool (identical results, see
    :func:`run_experiment`); with a ``cache`` the sweep is first probed
    by content fingerprint and only executed (then written back) on a
    miss — an undecodable (torn-write) entry is treated as a miss, noted
    in the probe event, and atomically overwritten.  Cache-resolved
    cells are still counted: they reach the runner's progress callback
    as tagged cache hits and the ``journal`` as ``cell-cache-hit``
    events, so ``(done, total)`` stays accurate.
    """
    spec = platform_sweep_spec(
        workload,
        instances,
        host=host,
        reps=reps,
        calib=calib,
        seed=seed,
    )
    journal = journal or NULL_JOURNAL
    if cache is None:
        return run_experiment(
            spec, jobs=jobs, runner=runner, journal=journal, batch=batch
        )

    present = cache.contains(spec)
    cached = cache.get(spec, on_corrupt="miss")
    if journal.enabled:
        detail = cache.path_for(spec).name
        if present and cached is None:
            detail += " (corrupt entry ignored; re-running)"
        journal.record(
            "sweep-cache-probe",
            label=workload.name,
            cached=cached is not None,
            detail=detail,
        )
    if runner is not None and runner.metrics is not None:
        runner.metrics.counter(
            "repro_cache_probes_total", "sweep-cache fingerprint probes"
        ).inc()
    if cached is not None:
        from repro.run.parallel import ParallelRunner, cell_tasks

        reporter = runner or ParallelRunner(1, journal=journal)
        if journal.enabled and not reporter.journal.enabled:
            reporter.journal = journal
        tasks, _ = cell_tasks(spec)
        reporter.report_cached(tasks)
        return cached
    sweep = run_experiment(
        spec, jobs=jobs, runner=runner, journal=journal, batch=batch
    )
    cache.put(spec, sweep)
    return sweep
