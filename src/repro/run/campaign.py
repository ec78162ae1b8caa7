"""Full-paper campaigns: run every experiment in one call.

A :class:`Campaign` bundles the complete evaluation of the paper —
Figs. 3-6 sweeps, the Fig. 7 CHR hosts, the Fig. 8 multitasking pair,
and the Section IV-A CHR bands — with one knob for fidelity (repetition
counts).  :func:`run_campaign` executes it and returns a
:class:`CampaignResult` that the report generator
(:func:`repro.analysis.report.generate_report`) turns into a standalone
markdown document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.chr import ChrRange, estimate_suitable_chr_range
from repro.analysis.loadcurve import (
    LOADCURVE_GRID,
    LoadCurveConfig,
    LoadCurveResult,
    build_loadcurve,
)
from repro.analysis.stats import StatSummary, summarize
from repro.errors import ConfigurationError
from repro.hostmodel.topology import HostTopology, r830_host, small_host
from repro.platforms.provisioning import instance_type, instance_types_upto
from repro.platforms.registry import make_platform
from repro.rng import DEFAULT_SEED, RngFactory
from repro.run.calibration import Calibration
from repro.run.experiment import (
    ExperimentSpec,
    platform_sweep_spec,
    run_platform_sweep,
)
from repro.run.parallel import CellTask, ParallelRunner, execute_cell
from repro.run.results import SweepResult
from repro.workloads.cassandra import CassandraWorkload
from repro.workloads.ffmpeg import FfmpegWorkload
from repro.workloads.mpi import MpiSearchWorkload
from repro.workloads.openloop import OpenLoopCassandra, OpenLoopWordPress
from repro.workloads.wordpress import WordPressWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.adaptive import AdaptiveRepsPolicy

__all__ = [
    "Campaign",
    "CampaignResult",
    "DEFAULT_EXPERIMENTS",
    "KNOWN_EXPERIMENTS",
    "SWEEP_EXPERIMENTS",
    "fig7_tasks",
    "fig8_tasks",
    "loadcurve_platform_order",
    "loadcurve_tasks",
    "run_campaign",
    "sweep_spec",
]

_BIG = ("xLarge", "2xLarge", "4xLarge", "8xLarge", "16xLarge")

#: Every experiment id a campaign can include, in report order.
KNOWN_EXPERIMENTS: tuple[str, ...] = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "loadcurve",
)

#: The experiment ids a default campaign runs: the paper's figures.  The
#: open-loop ``loadcurve`` sweep is opt-in (``repro loadcurve`` /
#: ``report --load-sweep``), keeping default campaign plans and goldens
#: unchanged.
DEFAULT_EXPERIMENTS: tuple[str, ...] = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
)

#: The experiment ids that are platform sweeps (have a SweepResult).
SWEEP_EXPERIMENTS: tuple[str, ...] = ("fig3", "fig4", "fig5", "fig6")


@dataclass
class Campaign:
    """What to run and at what fidelity.

    Parameters
    ----------
    reps_fast / reps_io:
        Repetitions for the fast (FFmpeg, MPI) and the heavy IO
        (WordPress, Cassandra) sweeps.  The paper used 20 and 6-20; the
        defaults trade a few percent of CI width for minutes of runtime.
    host:
        The testbed host.
    calib:
        Calibration constants.
    seed:
        Root random seed.
    include:
        Which experiment ids to run (see :data:`KNOWN_EXPERIMENTS`);
        defaults to the paper's figures (:data:`DEFAULT_EXPERIMENTS`).
        Unknown, duplicate, or empty selections raise
        :class:`~repro.errors.ConfigurationError`.
    loadcurve:
        Configuration of the open-loop offered-load sweep, used when
        ``"loadcurve"`` is included (see
        :class:`~repro.analysis.loadcurve.LoadCurveConfig`).
    """

    reps_fast: int = 5
    reps_io: int = 2
    host: HostTopology = field(default_factory=r830_host)
    calib: Calibration = field(default_factory=Calibration)
    seed: int = DEFAULT_SEED
    include: tuple[str, ...] = DEFAULT_EXPERIMENTS
    loadcurve: LoadCurveConfig = field(default_factory=LoadCurveConfig)

    def __post_init__(self) -> None:
        if self.reps_fast < 1 or self.reps_io < 1:
            raise ConfigurationError("repetition counts must be >= 1")
        include = tuple(self.include)
        if not include:
            raise ConfigurationError(
                f"include must name at least one experiment of "
                f"{sorted(KNOWN_EXPERIMENTS)}"
            )
        bad = set(include) - set(KNOWN_EXPERIMENTS)
        if bad:
            raise ConfigurationError(
                f"unknown experiment ids {sorted(bad)}; "
                f"known: {sorted(KNOWN_EXPERIMENTS)}"
            )
        if len(set(include)) != len(include):
            dupes = sorted({e for e in include if include.count(e) > 1})
            raise ConfigurationError(f"duplicate experiment ids {dupes}")


@dataclass
class CampaignResult:
    """Everything a full campaign measured."""

    sweeps: dict[str, SweepResult]
    chr_bands: dict[str, ChrRange]
    fig7: dict[tuple[str, str], StatSummary]
    fig8: dict[tuple[str, str], StatSummary]
    loadcurve: LoadCurveResult | None = None

    def sweep(self, fig: str) -> SweepResult:
        """One figure's sweep; raises if it was not part of the campaign."""
        try:
            return self.sweeps[fig]
        except KeyError:
            raise ConfigurationError(
                f"{fig!r} was not run; have {sorted(self.sweeps)}"
            ) from None


def sweep_spec(campaign: Campaign, fig: str) -> "ExperimentSpec":
    """The exact spec :func:`run_campaign` would execute for one of the
    Figs. 3-6 sweeps — the unit other executors (fabric workers, the
    adaptive loop) must reproduce to stay byte-identical with the serial
    campaign."""
    table = {
        "fig3": (FfmpegWorkload(), instance_types_upto(16), campaign.reps_fast),
        "fig4": (
            MpiSearchWorkload(),
            [instance_type(n) for n in _BIG],
            campaign.reps_fast,
        ),
        "fig5": (
            WordPressWorkload(),
            [instance_type(n) for n in _BIG],
            campaign.reps_io,
        ),
        "fig6": (
            CassandraWorkload(),
            [instance_type(n) for n in _BIG],
            campaign.reps_io,
        ),
    }
    if fig not in table:
        raise ConfigurationError(
            f"{fig!r} is not a sweep experiment; sweeps: {sorted(table)}"
        )
    workload, instances, reps = table[fig]
    return platform_sweep_spec(
        workload,
        instances,
        host=campaign.host,
        reps=reps,
        calib=campaign.calib,
        seed=campaign.seed,
    )


def fig7_tasks(
    campaign: Campaign,
) -> tuple[list[CellTask], list[tuple[str, str]]]:
    """Fig. 7 cells (CHR across hosts) plus their output keys, in order."""
    factory = RngFactory(seed=campaign.seed)
    inst = instance_type("4xLarge")
    tasks: list[CellTask] = []
    keys: list[tuple[str, str]] = []
    streams = tuple(
        factory.stream_spec("campaign-fig7", rep=rep)
        for rep in range(campaign.reps_fast)
    )
    for host_label, host in (
        ("16 cores", small_host(16)),
        ("112 cores", campaign.host),
    ):
        for kind, mode in (("CN", "vanilla"), ("CN", "pinned"), ("BM", "vanilla")):
            platform = make_platform(kind, inst, mode)
            tasks.append(
                CellTask(
                    workload=FfmpegWorkload(),
                    kind=platform.kind,
                    mode=platform.mode,
                    instance=inst,
                    host=host,
                    calib=campaign.calib,
                    streams=streams,
                )
            )
            keys.append((host_label, f"{mode.capitalize()} {kind}"))
    return tasks, keys


def fig8_tasks(
    campaign: Campaign,
) -> tuple[list[CellTask], list[tuple[str, str]]]:
    """Fig. 8 cells (multitasking effect) plus their output keys."""
    factory = RngFactory(seed=campaign.seed)
    inst = instance_type("4xLarge")
    tasks: list[CellTask] = []
    keys: list[tuple[str, str]] = []
    for task_label, wl in (
        ("1 Large Task", FfmpegWorkload()),
        ("30 Small Tasks", FfmpegWorkload().split(30)),
    ):
        streams = tuple(
            factory.stream_spec(f"campaign-fig8/{task_label}", rep=rep)
            for rep in range(campaign.reps_fast)
        )
        for mode in ("vanilla", "pinned"):
            platform = make_platform("CN", inst, mode)
            tasks.append(
                CellTask(
                    workload=wl,
                    kind=platform.kind,
                    mode=platform.mode,
                    instance=inst,
                    host=campaign.host,
                    calib=campaign.calib,
                    streams=streams,
                )
            )
            keys.append((task_label, mode))
    return tasks, keys


def _loadcurve_workload(config: LoadCurveConfig, rate: float):
    """The open-loop workload of one ladder rung."""
    if config.workload.lower() == "wordpress":
        return OpenLoopWordPress(
            rate=float(rate),
            n_requests=config.n_requests,
            arrivals=config.arrivals,
        )
    return OpenLoopCassandra(
        rate=float(rate),
        n_requests=config.n_requests,
        arrivals=config.arrivals,
    )


def loadcurve_platform_order(config: LoadCurveConfig) -> list[str]:
    """Platform labels of the load sweep, in report order."""
    inst = instance_type(config.instance)
    return [
        make_platform(kind, inst, mode).label()
        for kind, mode in LOADCURVE_GRID
    ]


def loadcurve_tasks(
    campaign: Campaign,
) -> tuple[list[CellTask], list[tuple[str, float]]]:
    """Offered-load sweep cells plus their ``(platform, rate)`` keys.

    Prefix-stream seeding: every cell of the sweep — every rung of the
    ladder *and* every platform — shares the same repetition stream
    recipes.  The open-loop workloads draw a unit-rate arrival sequence
    and scale it by ``1 / rate`` (see :mod:`repro.workloads.arrivals`),
    so the whole ladder replays one common random realization and knee
    positions differ only by rate and platform, never by resampling
    noise.
    """
    cfg = campaign.loadcurve
    factory = RngFactory(seed=campaign.seed)
    inst = instance_type(cfg.instance)
    streams = tuple(
        factory.stream_spec(f"campaign-loadcurve/{cfg.workload}", rep=rep)
        for rep in range(cfg.reps)
    )
    tasks: list[CellTask] = []
    keys: list[tuple[str, float]] = []
    for rate in cfg.rates:
        workload = _loadcurve_workload(cfg, rate)
        for kind, mode in LOADCURVE_GRID:
            platform = make_platform(kind, inst, mode)
            tasks.append(
                CellTask(
                    workload=workload,
                    kind=platform.kind,
                    mode=platform.mode,
                    instance=inst,
                    host=campaign.host,
                    calib=campaign.calib,
                    streams=streams,
                )
            )
            keys.append((platform.label(), float(rate)))
    return tasks, keys


def _run_cell_summaries(
    runner: ParallelRunner,
    tasks: list[CellTask],
    keys: list[tuple[str, str]],
) -> dict[tuple[str, str], StatSummary]:
    results = runner.run_tasks(execute_cell, tasks)
    return {
        key: summarize([r.value for r in runs])
        for key, runs in zip(keys, results)
    }


def run_campaign(
    campaign: Campaign | None = None,
    *,
    runner: ParallelRunner | None = None,
    reps_policy: "AdaptiveRepsPolicy | None" = None,
) -> CampaignResult:
    """Execute the full evaluation and return everything measured.

    Parameters
    ----------
    campaign:
        What to run (default: everything at default fidelity).
    runner:
        The :class:`~repro.run.parallel.ParallelRunner` that runs every
        cell (default: ``ParallelRunner()``, serial).  Execution options
        live on it — ``jobs``, ``journal``, ``checkpoint``, ``faults``,
        ``batch``, ``tracer``, ``progress``, ``timeout`` and
        ``retries`` — and none of them changes the result: serial,
        pool, batched, resumed and traced runs give byte-identical
        reports.  A runner with a checkpoint store persists every cell
        as it finishes and resumes a crashed or repeated campaign
        (verified cells replay, only missing or corrupt ones
        re-execute).  Sweep spans open under ``runner.tracer``, which
        its owner closes.  An enabled ``runner.faults`` is armed on the
        checkpoint store and the journal for the length of the call.
    reps_policy:
        Optional :class:`~repro.analysis.adaptive.AdaptiveRepsPolicy`.
        When given, the Figs. 3-6 sweeps run the CI-width rep
        allocator (:func:`repro.run.adaptive.run_adaptive_sweep`)
        instead of a uniform repetition count: every cell starts at the
        policy's base reps and only cells whose confidence interval is
        still wider than the target receive more, capped at the
        figure's uniform count (or ``policy.max_reps``).  Allocation
        decisions derive only from seed-deterministic measured values,
        so the result is a pure function of (campaign, policy) —
        resumable and byte-stable like the uniform path, cell
        checkpoints included; Figs. 7-8 are unaffected (fixed reps by
        design).
    """
    campaign = campaign or Campaign()
    runner = runner or ParallelRunner()
    faults, jl, tracer = runner.faults, runner.journal, runner.tracer
    # Arm the injector across the campaign's machinery for the duration
    # of this call only: attachments are restored on the way out, so the
    # same checkpoint/journal objects can be reused for a clean resume
    # run without stale faults re-firing.
    armed: list[tuple[object, object]] = []

    def arm(obj) -> None:
        armed.append((obj, obj.faults))
        obj.faults = faults

    if faults.enabled:
        if runner.checkpoint is not None and not runner.checkpoint.faults.enabled:
            arm(runner.checkpoint)
        if jl.enabled:
            if hasattr(jl, "faults") and not jl.faults.enabled:
                arm(jl)
            faults.journal = jl
        if tracer.enabled:
            faults.tracer = tracer
    t_start = time.perf_counter()
    try:
        if jl.enabled:
            jl.record(
                "campaign-started",
                label="campaign",
                detail=",".join(campaign.include),
            )
        big = [instance_type(n) for n in _BIG]
        sweeps: dict[str, SweepResult] = {}

        def sweep(fig, workload, instances, reps) -> SweepResult:
            with tracer.span("sweep", fig):
                if reps_policy is not None:
                    from repro.run.adaptive import run_adaptive_sweep

                    return run_adaptive_sweep(
                        workload,
                        instances,
                        reps_policy,
                        host=campaign.host,
                        reps=reps,
                        calib=campaign.calib,
                        seed=campaign.seed,
                        runner=runner,
                    )
                return run_platform_sweep(
                    workload,
                    instances,
                    host=campaign.host,
                    reps=reps,
                    calib=campaign.calib,
                    seed=campaign.seed,
                    runner=runner,
                )

        if "fig3" in campaign.include:
            sweeps["fig3"] = sweep(
                "fig3", FfmpegWorkload(), instance_types_upto(16),
                campaign.reps_fast,
            )
        if "fig4" in campaign.include:
            sweeps["fig4"] = sweep(
                "fig4", MpiSearchWorkload(), big, campaign.reps_fast
            )
        if "fig5" in campaign.include:
            sweeps["fig5"] = sweep(
                "fig5", WordPressWorkload(), big, campaign.reps_io
            )
        if "fig6" in campaign.include:
            sweeps["fig6"] = sweep(
                "fig6", CassandraWorkload(), big, campaign.reps_io
            )

        chr_bands: dict[str, ChrRange] = {}
        for fig, name in (
            ("fig3", "FFmpeg"), ("fig5", "WordPress"), ("fig6", "Cassandra")
        ):
            if fig in sweeps:
                chr_bands[name] = estimate_suitable_chr_range(
                    sweeps[fig], campaign.host
                )

        fig7: dict[tuple[str, str], StatSummary] = {}
        if "fig7" in campaign.include:
            with tracer.span("sweep", "fig7"):
                fig7 = _run_cell_summaries(runner, *fig7_tasks(campaign))
        fig8: dict[tuple[str, str], StatSummary] = {}
        if "fig8" in campaign.include:
            with tracer.span("sweep", "fig8"):
                fig8 = _run_cell_summaries(runner, *fig8_tasks(campaign))

        loadcurve: LoadCurveResult | None = None
        if "loadcurve" in campaign.include:
            with tracer.span("sweep", "loadcurve"):
                tasks, keys = loadcurve_tasks(campaign)
                runs = runner.run_tasks(execute_cell, tasks)
            loadcurve = build_loadcurve(
                campaign.loadcurve,
                loadcurve_platform_order(campaign.loadcurve),
                zip(keys, runs),
            )

        if jl.enabled:
            jl.record(
                "campaign-finished",
                label="campaign",
                duration=time.perf_counter() - t_start,
            )
    finally:
        if faults.enabled and tracer.enabled:
            faults.tracer = None
        for obj, prev in reversed(armed):
            obj.faults = prev
    return CampaignResult(
        sweeps=sweeps, chr_bands=chr_bands, fig7=fig7, fig8=fig8,
        loadcurve=loadcurve,
    )
