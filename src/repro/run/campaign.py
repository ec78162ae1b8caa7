"""Full-paper campaigns: one plan of cells, one assembler.

A :class:`Campaign` bundles the complete evaluation of the paper —
Figs. 3-6 sweeps, the Fig. 7 CHR hosts, the Fig. 8 multitasking pair,
and the Section IV-A CHR bands — with one knob for fidelity (repetition
counts).  This module owns the campaign's *plan*: :func:`campaign_cells`
lists every cell in one fixed order, :func:`plan_fingerprint` hashes
that order, and :func:`assemble_result` is the only code that turns
per-cell runs into a :class:`CampaignResult`.  :func:`run_campaign`
runs the plan in one :meth:`~repro.run.parallel.ParallelRunner.run_tasks`
call; a fabric queue (:mod:`repro.fabric`) runs slices of the same plan
in many processes and merges them through the same assembler.  The
report generator (:func:`repro.analysis.report.generate_report`) turns
the result into a standalone markdown document.
"""

from __future__ import annotations

import hashlib
import json
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
    sweep_result,
)
from repro.run.parallel import CellTask, ParallelRunner, cell_tasks, execute_cell
from repro.run.persistence import task_fingerprint
from repro.run.results import RunResult, SweepResult
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
    "CellRef",
    "DEFAULT_EXPERIMENTS",
    "KNOWN_EXPERIMENTS",
    "SWEEP_EXPERIMENTS",
    "assemble_result",
    "campaign_cells",
    "fig7_tasks",
    "fig8_tasks",
    "loadcurve_platform_order",
    "loadcurve_tasks",
    "plan_fingerprint",
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
    """The spec of one of the Figs. 3-6 sweeps of ``campaign``: its
    cells are that figure's part of :func:`campaign_cells`, and the
    adaptive path runs it under a rep-allocation policy."""
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


@dataclass(frozen=True)
class CellRef:
    """One campaign cell in plan order: task, position, and identity."""

    exp: str
    index: int
    task: CellTask
    key: str


def campaign_cells(campaign: Campaign) -> list[CellRef]:
    """Every cell of ``campaign``, in plan order.

    The plan is the included experiments in :data:`KNOWN_EXPERIMENTS`
    order, each in its own cell order.  Every executor runs this list
    (or a slice of it) and :func:`assemble_result` reads it back.
    """
    refs: list[CellRef] = []
    for fig in KNOWN_EXPERIMENTS:
        if fig not in campaign.include:
            continue
        if fig in SWEEP_EXPERIMENTS:
            tasks = cell_tasks(sweep_spec(campaign, fig))
        elif fig == "fig7":
            tasks, _ = fig7_tasks(campaign)
        elif fig == "fig8":
            tasks, _ = fig8_tasks(campaign)
        else:
            tasks, _ = loadcurve_tasks(campaign)
        for i, task in enumerate(tasks):
            key = task_fingerprint(task)
            if key is None:  # pragma: no cover - cell tasks always hash
                raise ConfigurationError(
                    f"cell {task.label} of {fig} is not fingerprintable"
                )
            refs.append(CellRef(exp=fig, index=i, task=task, key=key))
    return refs


def plan_fingerprint(refs: list[CellRef]) -> str:
    """Stable hex digest of the ordered cell identities."""
    blob = json.dumps([(r.exp, r.index, r.key) for r in refs])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def assemble_result(
    campaign: Campaign,
    runs_by_key: dict[str, list[RunResult]],
    *,
    sweeps: dict[str, SweepResult] | None = None,
) -> CampaignResult:
    """Build the :class:`CampaignResult` of ``campaign`` from per-cell runs.

    ``runs_by_key`` maps each cell's store key (:attr:`CellRef.key`) to
    its measured repetitions, whichever executor produced them: the
    serial, pool, batched or resumed :func:`run_campaign`, or a fabric
    merge loading them from the queue's checkpoint store.  ``sweeps``
    holds Figs. 3-6 sweeps built elsewhere (the adaptive path); their
    cells need no runs.  Every derived number depends only on the
    measured values, so the report is byte-identical across executors.
    """
    by_exp: dict[str, list[CellRef]] = {}
    for ref in campaign_cells(campaign):
        by_exp.setdefault(ref.exp, []).append(ref)

    def runs(fig: str) -> list[list[RunResult]]:
        out = []
        for ref in by_exp[fig]:
            try:
                out.append(runs_by_key[ref.key])
            except KeyError:
                raise ConfigurationError(
                    f"cell {ref.task.label} ({ref.exp}) has no runs under "
                    f"fingerprint {ref.key}"
                ) from None
        return out

    def summaries(fig: str, keys) -> dict[tuple[str, str], StatSummary]:
        return {
            key: summarize([run.value for run in cell_runs])
            for key, cell_runs in zip(keys, runs(fig))
        }

    given = sweeps or {}
    built: dict[str, SweepResult] = {}
    for fig in SWEEP_EXPERIMENTS:
        if fig in given:
            built[fig] = given[fig]
        elif fig in campaign.include:
            built[fig] = sweep_result(
                sweep_spec(campaign, fig),
                [r.task for r in by_exp[fig]],
                runs(fig),
            )

    chr_bands: dict[str, ChrRange] = {}
    for fig, name in (
        ("fig3", "FFmpeg"), ("fig5", "WordPress"), ("fig6", "Cassandra")
    ):
        if fig in built:
            chr_bands[name] = estimate_suitable_chr_range(
                built[fig], campaign.host
            )

    fig7: dict[tuple[str, str], StatSummary] = {}
    if "fig7" in campaign.include:
        fig7 = summaries("fig7", fig7_tasks(campaign)[1])
    fig8: dict[tuple[str, str], StatSummary] = {}
    if "fig8" in campaign.include:
        fig8 = summaries("fig8", fig8_tasks(campaign)[1])
    loadcurve: LoadCurveResult | None = None
    if "loadcurve" in campaign.include:
        loadcurve = build_loadcurve(
            campaign.loadcurve,
            loadcurve_platform_order(campaign.loadcurve),
            zip(loadcurve_tasks(campaign)[1], runs("loadcurve")),
        )
    return CampaignResult(
        sweeps=built, chr_bands=chr_bands, fig7=fig7, fig8=fig8,
        loadcurve=loadcurve,
    )


def run_campaign(
    campaign: Campaign | None = None,
    *,
    runner: ParallelRunner | None = None,
    reps_policy: "AdaptiveRepsPolicy | None" = None,
) -> CampaignResult:
    """Execute the full evaluation and return everything measured.

    The campaign's cells (:func:`campaign_cells`) run in one
    :meth:`~repro.run.parallel.ParallelRunner.run_tasks` call, so a pool
    runner starts one pool and never waits at a figure boundary;
    :func:`assemble_result` then builds the result.

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
        re-execute).  Cell spans open under ``runner.tracer``, which
        its owner closes.  An enabled ``runner.faults`` is armed on the
        checkpoint store and the journal for the length of the call.
    reps_policy:
        Optional :class:`~repro.analysis.adaptive.AdaptiveRepsPolicy`.
        When given, the Figs. 3-6 sweeps run the CI-width rep
        allocator (:func:`repro.run.adaptive.run_adaptive_sweep`)
        instead of a uniform repetition count, one sweep after the
        other; the remaining experiments then run as one plan.  Every
        cell starts at the policy's base reps and only cells whose
        confidence interval is still wider than the target receive
        more, capped at the figure's uniform count (or
        ``policy.max_reps``).  Allocation decisions derive only from
        seed-deterministic measured values, so the result is a pure
        function of (campaign, policy) — resumable and byte-stable like
        the uniform path, cell checkpoints included; Figs. 7-8 are
        unaffected (fixed reps by design).
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
        sweeps: dict[str, SweepResult] = {}
        if reps_policy is not None:
            from repro.run.adaptive import run_adaptive_sweep

            for fig in SWEEP_EXPERIMENTS:
                if fig in campaign.include:
                    spec = sweep_spec(campaign, fig)
                    sweeps[fig] = run_adaptive_sweep(
                        spec.workload,
                        spec.instances,
                        reps_policy,
                        host=spec.host,
                        reps=spec.reps,
                        calib=spec.calib,
                        seed=spec.seed,
                        runner=runner,
                    )
        refs = [r for r in campaign_cells(campaign) if r.exp not in sweeps]
        runs = runner.run_tasks(execute_cell, [r.task for r in refs])
        result = assemble_result(
            campaign,
            {r.key: cell_runs for r, cell_runs in zip(refs, runs)},
            sweeps=sweeps,
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
    return result
