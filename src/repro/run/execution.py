"""Run one (workload, platform, host) configuration through the engine.

This is the glue the paper's shell scripts provided: deploy the platform,
size it, start the workload, time it.  :func:`run_once` assembles the
overhead model from the deployment geometry, evaluates memory pressure,
selects the storage profile, runs the simulator, and packages a
:class:`repro.run.results.RunResult`.

It is split into :func:`prepare_run` (everything up to a ready
:class:`~repro.engine.simulator.Simulator`) and :func:`finish_run`
(packaging an :class:`~repro.engine.simulator.EngineResult`) so the
batched engine (:mod:`repro.engine.batch`) can prepare many cells,
advance their simulators together, and package each result exactly as
the serial path would have.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.simulator import EngineConfig, EngineResult, Simulator
from repro.engine.tracing import NullTraceSink, TraceSink
from repro.errors import SimulationError
from repro.hostmodel.storage import StorageModel
from repro.hostmodel.topology import HostTopology
from repro.obs.sketch import LatencyRecorder
from repro.obs.trace_spans import active_tracer
from repro.platforms.base import ExecutionPlatform
from repro.rng import StreamSpec
from repro.run.calibration import Calibration
from repro.run.results import RunResult
from repro.sched.accounting import OverheadModel
from repro.workloads.base import ProcessSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.schedprof import SchedProfiler

__all__ = [
    "PreparedRun",
    "assemble_overhead_model",
    "finish_run",
    "prepare_run",
    "run_cell",
    "run_once",
]


def assemble_overhead_model(
    host: HostTopology,
    platform: ExecutionPlatform,
    calib: Calibration,
    workload: Workload,
    processes: list[ProcessSpec],
) -> OverheadModel:
    """Build the overhead model for one deployment.

    The thread-weighted mean working set of the built processes feeds the
    migration cache-penalty expectation; the workload profile's CPU duty
    cycle scales platform background machinery.
    """
    working_sets = [t.working_set_bytes for p in processes for t in p.threads]
    avg_ws = float(np.mean(working_sets)) if working_sets else 0.0
    return OverheadModel(
        host,
        platform,
        calib,
        cpu_duty_cycle=workload.profile().cpu_duty_cycle,
        working_set_bytes=avg_ws,
    )


def run_cell(
    workload: Workload,
    platform: ExecutionPlatform,
    host: HostTopology,
    calib: Calibration,
    streams: list[StreamSpec],
) -> list[RunResult]:
    """Run every repetition of one (platform, instance) cell.

    Each repetition rebuilds its generator from a self-contained
    :class:`~repro.rng.StreamSpec`, so this function produces identical
    results whether it runs in the campaign process or in a worker of
    :class:`repro.run.parallel.ParallelRunner`.  Every repetition
    carries its simulated latency sketches on ``RunResult.dist``.
    """
    return [
        run_once(workload, platform, host, calib, rng=s.make(), rep=s.rep)
        for s in streams
    ]


@dataclass
class PreparedRun:
    """One repetition, built and configured but not yet simulated.

    Produced by :func:`prepare_run`; ``sim.run()`` (or a batched advance
    of many prepared sims) yields the :class:`EngineResult` that
    :func:`finish_run` packages into a :class:`RunResult`.
    """

    workload: Workload
    platform: ExecutionPlatform
    host: HostTopology
    sim: Simulator
    thrashed: bool
    rep: int
    latency: LatencyRecorder


def prepare_run(
    workload: Workload,
    platform: ExecutionPlatform,
    host: HostTopology,
    calib: Calibration | None = None,
    *,
    rng: np.random.Generator | None = None,
    rep: int = 0,
    trace: TraceSink | None = None,
    profiler: "SchedProfiler | None" = None,
) -> PreparedRun:
    """Build one repetition up to a ready-to-run :class:`Simulator`.

    The simulator feeds a fresh :class:`~repro.obs.sketch.LatencyRecorder`
    with the repetition's simulated latency streams.
    """
    calib = calib or Calibration()
    rng = rng if rng is not None else np.random.default_rng(0)

    instance = platform.instance
    processes = workload.build(instance.cores, rng)
    if not processes:
        raise SimulationError(
            f"workload {workload.name!r} built no processes for "
            f"{instance.cores} cores"
        )

    # memory pressure of the whole deployment
    demand = sum(p.memory_demand_bytes for p in processes)
    thrash = calib.memory_pressure.factor(demand, instance.memory_bytes)
    thrashed = calib.memory_pressure.is_thrashing(demand, instance.memory_bytes)

    # workload-specific storage profile (Cassandra overrides the default)
    storage: StorageModel = getattr(workload, "storage_model", lambda: calib.storage)()

    overhead = assemble_overhead_model(host, platform, calib, workload, processes)
    latency = LatencyRecorder()
    config = EngineConfig(
        capacity=float(instance.cores),
        overhead=overhead,
        storage=storage,
        thrash_factor=thrash,
        trace=trace or NullTraceSink(),
        profiler=profiler,
        latency=latency,
    )
    return PreparedRun(
        workload=workload,
        platform=platform,
        host=host,
        sim=Simulator(processes, config),
        thrashed=thrashed,
        rep=rep,
        latency=latency,
    )


def finish_run(prep: PreparedRun, result: EngineResult) -> RunResult:
    """Package an engine result exactly as :func:`run_once` would.

    The result carries the run's perf counters; campaign metrics are
    built from the journal (:func:`repro.obs.export.journal_to_metrics`),
    never here.
    """
    workload = prep.workload
    value = (
        result.mean_response
        if workload.metric == "mean_response"
        else result.makespan
    )
    # per-operation responses and the repetition's simulated wall time
    # join the engine-recorded wait streams; everything in the sketches
    # is simulated, so distributions are deterministic
    lat = prep.latency
    lat.observe_many("op", result.op_responses)
    lat.observe("cell", result.makespan)
    return RunResult(
        workload=workload.name,
        platform_label=prep.platform.label(),
        instance_name=prep.platform.instance.name,
        host_name=prep.host.name,
        metric_name=workload.metric,
        value=value,
        makespan=result.makespan,
        mean_response=result.mean_response,
        thrashed=prep.thrashed,
        rep=prep.rep,
        counters=result.counters,
        dist=lat.sketches(),
    )


def run_once(
    workload: Workload,
    platform: ExecutionPlatform,
    host: HostTopology,
    calib: Calibration | None = None,
    *,
    rng: np.random.Generator | None = None,
    rep: int = 0,
    trace: TraceSink | None = None,
    profiler: "SchedProfiler | None" = None,
) -> RunResult:
    """Execute one configuration once and return its result.

    Parameters
    ----------
    workload:
        The application model.
    platform:
        The execution platform (kind, instance type, provisioning mode).
    host:
        The physical host.
    calib:
        Calibration constants (default :class:`Calibration`).
    rng:
        Randomness source for the workload build; defaults to a fresh
        deterministic generator.
    rep:
        Repetition index recorded in the result.
    trace:
        Optional engine event sink.
    profiler:
        Optional :class:`~repro.trace.schedprof.SchedProfiler`; when
        given it observes this run and ``profiler.profile()`` is valid
        afterwards.  Results are byte-identical with and without it.

    The run's simulator counters ride on ``RunResult.counters`` and its
    simulated latency streams (``op``, ``cell``, and the engine's
    ``io_wait`` / ``comm_wait`` / ``barrier_wait``) on ``RunResult.dist``
    as quantile sketches; the runner journals both per cell, and
    campaign metrics are built from that journal.

    When a span tracer has an open inline cell frame
    (:func:`repro.obs.trace_spans.active_tracer`), the two engine
    phases of the repetition — ``compile`` (workload build + overhead
    model + simulator construction) and ``advance`` (the simulation
    itself) — are emitted as phase spans under the cell.  The hook is
    one module-global read when tracing is off and never perturbs the
    result.
    """
    tracer = active_tracer()
    if tracer is None:
        prep = prepare_run(
            workload,
            platform,
            host,
            calib,
            rng=rng,
            rep=rep,
            trace=trace,
            profiler=profiler,
        )
        return finish_run(prep, prep.sim.run())
    start = time.time()
    t0 = time.perf_counter()
    prep = prepare_run(
        workload,
        platform,
        host,
        calib,
        rng=rng,
        rep=rep,
        trace=trace,
        profiler=profiler,
    )
    tracer.phase("compile", start, time.perf_counter() - t0, rep=rep)
    start = time.time()
    t0 = time.perf_counter()
    engine_result = prep.sim.run()
    tracer.phase("advance", start, time.perf_counter() - t0, rep=rep)
    return finish_run(prep, engine_result)
