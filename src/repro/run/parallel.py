"""Parallel campaign execution over a determinism-preserving worker pool.

A sweep is a grid of independent (platform, instance) cells; the paper
ran them on a 112-core host, and there is no reason the reproduction
should pay for them serially.  :class:`ParallelRunner` fans cells out
over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping the
results **bit-for-bit identical** to the serial path:

* every repetition's randomness is described by a picklable
  :class:`~repro.rng.StreamSpec` built from the experiment's root seed —
  the seed travels with the task, never with the pool, so scheduling
  order cannot perturb any stream;
* results are reassembled in task-submission order, so the
  :class:`~repro.run.results.SweepResult` cell order matches the serial
  iteration exactly.

Failure handling: a task whose worker raises is resubmitted up to
``retries`` extra times; a broken pool (worker process killed) is
rebuilt and the outstanding tasks resubmitted; a task exceeding the
per-task ``timeout`` raises a structured
:class:`~repro.errors.ParallelExecutionError` — carrying the per-attempt
failure history — instead of hanging the campaign.  A ``progress``
callback reports ``(done, total, task)`` after each completed cell,
including cells resolved from the sweep cache (delivered as tagged
:class:`CachedCell` payloads via :meth:`ParallelRunner.report_cached`).

Telemetry: attach a :class:`~repro.obs.journal.Journal` to stream
structured lifecycle events (cell queued / started / cache-hit / retried
/ failed / finished, worker identity, durations, pool rebuilds) and a
:class:`~repro.obs.metrics.MetricsRegistry` to accumulate campaign
counters.  Both default to off, leaving the execution path untouched.

Fault injection and resume: attach a
:class:`~repro.faults.FaultInjector` to fire a deterministic
:class:`~repro.faults.FaultPlan` at the runner's worker sites
(``worker.kill`` / ``task.timeout`` / ``task.error`` — the plan travels
with the task, so pool scheduling cannot perturb which faults fire on
the inline path), and a :class:`~repro.run.persistence.CellStore`
checkpoint to make campaigns crash-safe: every completed cell task is
persisted atomically as it finishes, probed (with fingerprint
verification) before submission, and replayed instead of re-run —
delivered to progress/journal as tagged :class:`CachedCell` payloads
with ``resumed=True``.  Both default to off, leaving the execution path
untouched.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.engine.batch import run_batched
from repro.errors import (
    AttemptFailure,
    BatchPartitionError,
    ConfigurationError,
    InjectedCrash,
    ParallelExecutionError,
    SimulationError,
)
from repro.faults import NULL_INJECTOR, FaultInjector, FaultPlan, raise_worker_fault
from repro.hostmodel.topology import HostTopology
from repro.obs.journal import NULL_JOURNAL, Journal
from repro.obs.metrics import CELL_SECONDS_BUCKETS, MetricsRegistry
from repro.obs.sketch import merge_stream_sketches
from repro.obs.trace_spans import NULL_TRACER
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import make_platform
from repro.rng import RngFactory, StreamSpec
from repro.run.calibration import Calibration
from repro.run.execution import finish_run, prepare_run, run_cell
from repro.run.experiment import ExperimentSpec
from repro.run.results import ExperimentResult, RunResult, SweepResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.run.persistence import CellStore

__all__ = [
    "CachedCell",
    "CellTask",
    "ParallelRunner",
    "ProgressFn",
    "cell_tasks",
    "default_jobs",
    "execute_cell",
]

ProgressFn = Callable[[int, int, object], None]


def default_jobs() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _worker_id() -> str:
    """Journal-friendly identity of the current process."""
    return f"pid-{os.getpid()}"


@dataclass(frozen=True)
class CellTask:
    """One independent unit of campaign work: a (platform, instance)
    cell and the stream recipes of its repetitions.

    Everything here is picklable; the platform object itself is rebuilt
    inside the worker from ``(kind, instance, mode)``.
    """

    workload: Workload
    kind: PlatformKind
    mode: ProvisioningMode
    instance: InstanceType
    host: HostTopology
    calib: Calibration
    streams: tuple[StreamSpec, ...]

    @property
    def label(self) -> str:
        """Human-readable task identity for errors and progress."""
        return (
            f"{self.workload.name}/{self.mode.value} {self.kind.value}"
            f"/{self.instance.name}"
        )


@dataclass(frozen=True)
class CachedCell:
    """Progress payload for a cell resolved without execution.

    Tags sweep-cache hits (``cached=True``) and checkpoint replays
    (``resumed=True``) so progress consumers can tell replayed cells
    from executed ones while still seeing an accurate ``(done, total)``.
    """

    task: object
    cached: bool = True
    resumed: bool = False

    @property
    def label(self) -> str:
        """Label of the underlying task."""
        return _label(self.task, 0)


def execute_cell(task: CellTask) -> list[RunResult]:
    """Worker entry point: run one cell's repetitions.

    Module-level (hence picklable) and stateless: everything the cell
    needs arrives inside the task.
    """
    platform = make_platform(task.kind, task.instance, task.mode)
    return run_cell(
        task.workload, platform, task.host, task.calib, list(task.streams)
    )


def _task_shape_key(task: CellTask) -> tuple:
    """Coarse pre-clustering key for batched execution.

    Tasks sharing this key *probably* compile to the same program shape
    (same workload family and core count); the exact structural
    fingerprint is taken per prepared simulation by
    :func:`repro.engine.batch.partition_sims`, which splits a group
    whose cells turn out shape-incompatible — so a permissive key here
    costs nothing but grouping granularity.
    """
    return (
        type(task.workload).__name__,
        task.workload.name,
        task.instance.cores,
    )


def _group_label(tasks: Sequence[CellTask]) -> str:
    """Journal/error label for one batched group of cell tasks."""
    return f"batch[{len(tasks)}] {tasks[0].label}"


def _execute_batch_group(tasks: tuple[CellTask, ...]) -> list[list[RunResult]]:
    """Worker entry point: run a group of cells through the batched engine.

    Prepares every repetition of every cell, advances all the prepared
    simulators together (:func:`repro.engine.batch.run_batched` batches
    the shape-compatible ones and runs the rest scalar), and packages
    per-cell run lists — bit-for-bit identical per cell to
    :func:`execute_cell`, latency sketches included (the batched engine
    issues IO / comm / barrier transitions through the same scalar
    methods that feed the recorder).  Module-level (hence picklable).
    """
    preps = []
    for task in tasks:
        platform = make_platform(task.kind, task.instance, task.mode)
        for s in task.streams:
            preps.append(
                prepare_run(
                    task.workload, platform, task.host, task.calib,
                    rng=s.make(), rep=s.rep,
                )
            )
    engine_results = run_batched([p.sim for p in preps])
    out: list[list[RunResult]] = []
    k = 0
    for task in tasks:
        runs = []
        for _ in task.streams:
            runs.append(finish_run(preps[k], engine_results[k]))
            k += 1
        out.append(runs)
    return out


@dataclass(frozen=True)
class _Observed:
    """Worker-side observation wrapped around a task result."""

    result: object
    worker: str
    started: float
    duration: float


class _ObservedFailure(Exception):
    """Worker-side observation wrapped around a task failure.

    Carries the worker identity alongside the original exception so the
    parent can journal which process failed.  The original exception
    travels as ``cause`` (it must be picklable either way — the pool
    pickles raised exceptions too).
    """

    def __init__(self, worker: str, cause: Exception) -> None:
        self.worker = worker
        self.cause = cause
        super().__init__(worker, cause)

    def __str__(self) -> str:
        return str(self.cause)


def _observed(worker: Callable, payload) -> _Observed:
    """Run ``worker(payload)`` recording worker identity and timing.

    Used in place of the bare worker when a journal is attached;
    :class:`~repro.errors.ConfigurationError` passes through unwrapped
    so the runner's no-retry rule still sees it.
    """
    started = time.time()
    t0 = time.perf_counter()
    try:
        result = worker(payload)
    except ConfigurationError:
        raise
    except Exception as exc:
        raise _ObservedFailure(_worker_id(), exc) from exc
    return _Observed(result, _worker_id(), started, time.perf_counter() - t0)


def _faulted(
    plan: FaultPlan,
    worker: Callable,
    payload,
    label: str,
    attempt: int,
    observe: bool,
):
    """Pool worker shim evaluating the fault plan before the task.

    Module-level (hence picklable); the immutable plan travels with the
    submission, so whichever worker process picks the task up reaches the
    same verdict — pool scheduling cannot perturb which faults fire.  A
    matched ``worker.kill`` really kills this process (``os._exit``),
    ``task.timeout`` sleeps past the runner's collection timeout, and
    ``task.error`` raises a retryable transient fault.
    """
    spec = plan.worker_fault(label, attempt)
    if spec is not None:
        raise_worker_fault(spec, label, in_pool=True)
    return _observed(worker, payload) if observe else worker(payload)


def cell_tasks(spec: ExperimentSpec) -> tuple[list[CellTask], list[str]]:
    """Decompose a sweep spec into cell tasks, in serial iteration order.

    Returns the tasks plus the platform label order of the sweep.  The
    stream labels reproduce the serial paired design: the *same* stream
    per (workload, instance, rep) across platforms.
    """
    factory = RngFactory(seed=spec.seed)
    tasks: list[CellTask] = []
    platform_order: list[str] = []
    for instance in spec.instances:
        labels = [
            make_platform(kind, instance, mode).label()
            for kind, mode in spec.platform_grid
        ]
        if not platform_order:
            platform_order = labels
        for kind, mode in spec.platform_grid:
            streams = tuple(
                factory.stream_spec(
                    f"{spec.workload.name}/{instance.name}", rep=rep
                )
                for rep in range(spec.reps)
            )
            tasks.append(
                CellTask(
                    workload=spec.workload,
                    kind=kind,
                    mode=mode,
                    instance=instance,
                    host=spec.host,
                    calib=spec.calib,
                    streams=streams,
                )
            )
    return tasks, platform_order


class ParallelRunner:
    """Deterministic fan-out of independent campaign tasks.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs every task
        inline in the calling process — the exact serial path, no pool.
    timeout:
        Per-task wait bound in seconds once the runner starts collecting
        that task; exceeding it raises
        :class:`~repro.errors.ParallelExecutionError` (reason
        ``"timeout"``) instead of hanging the campaign.
    retries:
        Extra attempts after a task's first failure (so a task runs at
        most ``retries + 1`` times).
    progress:
        Optional ``callback(done, total, task)`` invoked after every
        completed task, in completion-collection order.
    journal:
        Optional :class:`~repro.obs.journal.Journal`; when attached, the
        runner streams cell lifecycle events into it (and routes pool
        tasks through a worker shim that reports identity and timing).
        Every executed cell also journals its merged latency sketches
        as a ``cell-dist`` event, identical across the inline, pool,
        and batched legs.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating
        campaign counters (cells completed, retries, cache hits,
        simulator event totals) and the ``op`` / ``cell`` latency
        summaries.
    mp_context:
        Optional :mod:`multiprocessing` context for the pool (useful to
        force ``spawn`` in tests).
    faults:
        Optional :class:`~repro.faults.FaultInjector` arming a
        deterministic fault plan at the runner's worker sites; defaults
        to the no-op injector (one ``enabled`` check per task, results
        byte-identical to a runner without the parameter).
    checkpoint:
        Optional :class:`~repro.run.persistence.CellStore`.  When
        attached, every completed cell task is persisted atomically as
        it finishes, and each task is probed (fingerprint-verified)
        before submission — a verified hit is replayed as a
        ``cell-resumed`` cell instead of re-run, a corrupt entry is
        journaled as ``checkpoint-corrupt`` and re-run.
    batch:
        Run shape-compatible cell tasks through the batched engine
        (:mod:`repro.engine.batch`) instead of one scalar simulation at
        a time.  Per-cell results, journal events, checkpoints, and
        progress reports are unchanged and bit-for-bit identical;
        fault-armed tasks and tasks matching no batch run on the scalar
        path (the partition is checked — a cell that would be silently
        dropped raises :class:`~repro.errors.BatchPartitionError`).
    tracer:
        Optional :class:`~repro.obs.trace_spans.SpanTracer`; when
        attached, every cell attempt becomes a span in the campaign
        trace — the inline leg opens a frame around the attempt (so
        engine compile/advance phases and checkpoint writes nest under
        it), the pool leg emits leaf spans from the worker shim's
        observed timing, and batched groups emit one leaf per cell.
        Defaults to the no-op tracer (one ``enabled`` check per cell);
        spans never feed back into results.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        timeout: float | None = None,
        retries: int = 1,
        progress: ProgressFn | None = None,
        journal: Journal | None = None,
        metrics: MetricsRegistry | None = None,
        mp_context=None,
        faults: FaultInjector | None = None,
        checkpoint: "CellStore | None" = None,
        batch: bool = False,
        tracer=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.journal = journal or NULL_JOURNAL
        self.metrics = metrics
        self.mp_context = mp_context
        self.faults = faults or NULL_INJECTOR
        self.checkpoint = checkpoint
        self.batch = bool(batch)
        self.tracer = tracer or NULL_TRACER

    # -- generic task execution ---------------------------------------------

    def run_tasks(
        self, worker: Callable, payloads: Iterable
    ) -> list:
        """Run ``worker(payload)`` for every payload; results in input order.

        ``worker`` must be a picklable module-level callable when
        ``jobs > 1``.  With a :attr:`checkpoint` store attached, tasks
        whose checkpoint probe verifies are replayed without execution
        (reported as ``resumed`` :class:`CachedCell` progress payloads)
        and every freshly-executed task is checkpointed as it completes.
        """
        items = list(payloads)
        if not items:
            return []
        store = self.checkpoint
        batched = self.batch and worker is execute_cell
        if store is None:
            if self.journal.enabled:
                for i, payload in enumerate(items):
                    self.journal.record("cell-queued", label=_label(payload, i))
            if batched:
                return self._run_batched(worker, items)
            if self.jobs == 1:
                return self._run_inline(worker, items)
            return self._run_pool(worker, items)

        total = len(items)
        keys: list[str | None] = [store.key_for(p) for p in items]
        results: list = [None] * total
        replayed = [False] * total
        pending: list[int] = []
        for i, payload in enumerate(items):
            label = _label(payload, i)
            if keys[i] is not None:
                runs, state = store.load(keys[i])
                if state == "hit":
                    results[i] = runs
                    replayed[i] = True
                    if self.journal.enabled:
                        self.journal.record(
                            "cell-resumed", label=label, cached=True,
                            detail=keys[i],
                        )
                    if self.metrics is not None:
                        self.metrics.counter(
                            "repro_cells_completed_total",
                            "campaign cells resolved (run or cached)",
                        ).inc()
                        self.metrics.counter(
                            "repro_cells_resumed_total",
                            "cells replayed from resume checkpoints",
                        ).inc()
                    continue
                if state == "corrupt":
                    if self.journal.enabled:
                        self.journal.record(
                            "checkpoint-corrupt", label=label,
                            detail=keys[i],
                        )
            pending.append(i)
            if self.journal.enabled:
                self.journal.record("cell-queued", label=label)

        done = 0
        for i in range(total):
            if replayed[i]:
                done += 1
                self._report(done, total, CachedCell(items[i], resumed=True))
        if not pending:
            return results

        def on_result(j: int, payload, result) -> None:
            key = keys[pending[j]]
            if key is not None and isinstance(result, list):
                tracer = self.tracer
                if tracer.enabled:
                    put_start = time.time()
                    t0 = time.perf_counter()
                    store.put(key, result, label=_label(payload, pending[j]))
                    tracer.phase(
                        "checkpoint", put_start, time.perf_counter() - t0
                    )
                else:
                    store.put(key, result, label=_label(payload, pending[j]))

        pending_items = [items[i] for i in pending]
        if batched:
            fresh = self._run_batched(
                worker, pending_items,
                total=total, done_base=done, on_result=on_result,
            )
        elif self.jobs == 1:
            fresh = self._run_inline(
                worker, pending_items,
                total=total, done_base=done, on_result=on_result,
            )
        else:
            fresh = self._run_pool(
                worker, pending_items,
                total=total, done_base=done, on_result=on_result,
            )
        for j, i in enumerate(pending):
            results[i] = fresh[j]
        return results

    def _run_batched(
        self,
        worker: Callable,
        items: Sequence,
        *,
        total: int | None = None,
        done_base: int = 0,
        on_result: Callable | None = None,
    ) -> list:
        """Batched twin of ``_run_inline`` / ``_run_pool`` for cell tasks.

        Clusters shape-compatible :class:`CellTask` payloads into groups
        advanced by the batched engine; everything else — non-cell
        payloads, fault-armed tasks (pre-screened against the plan so
        injection still fires on the scalar path, exactly once), and
        tasks matching no group — runs on the ordinary scalar leg.
        Groups run first so their cells checkpoint before a fault-armed
        scalar task can abort the campaign; per-cell results, journal
        events, and progress reports are emitted exactly as for scalar
        cells.
        """
        n = len(items)
        total = n if total is None else total
        results: list = [None] * n
        plan = self.faults.plan if self.faults.enabled else None
        groups: dict[tuple, list[int]] = {}
        scalar_idx: list[int] = []
        for i, task in enumerate(items):
            if not isinstance(task, CellTask) or (
                plan is not None
                and plan.worker_fault(_label(task, i), 1) is not None
            ):
                scalar_idx.append(i)
            else:
                groups.setdefault(_task_shape_key(task), []).append(i)
        batches: list[list[int]] = []
        for idxs in groups.values():
            if len(idxs) >= 2:
                batches.append(idxs)
            else:
                scalar_idx.extend(idxs)
        scalar_idx.sort()
        covered = sorted(i for b in batches for i in b) + scalar_idx
        if sorted(covered) != list(range(n)):
            raise BatchPartitionError(
                f"batch partition covered {len(covered)} slot(s) of {n} "
                "cell task(s); refusing to drop cells silently"
            )
        if self.journal.enabled:
            self.journal.record(
                "batch-partition",
                label=f"{n} task(s)",
                detail=(
                    f"{len(batches)} batch(es) covering "
                    f"{n - len(scalar_idx)} cell(s), "
                    f"{len(scalar_idx)} scalar cell(s)"
                ),
            )
        done = done_base
        for group_idx, group_out in zip(
            batches,
            self._run_groups([tuple(items[i] for i in b) for b in batches]),
        ):
            cell_runs, wid, started, duration = group_out
            for runs, i in zip(cell_runs, group_idx):
                results[i] = runs
                if on_result is not None:
                    on_result(i, items[i], runs)
                if self.tracer.enabled:
                    self.tracer.emit_leaf(
                        "cell", _label(items[i], i), start=started,
                        duration=duration, worker=wid, attempt=1,
                        batched=True,
                    )
                self._observe_completion(
                    _label(items[i], i), runs, worker=wid, attempt=1,
                    started=started, duration=duration,
                )
                done += 1
                self._report(done, total, items[i])
        if scalar_idx:
            sub = [items[i] for i in scalar_idx]
            remap = (
                None
                if on_result is None
                else lambda j, payload, result: on_result(
                    scalar_idx[j], payload, result
                )
            )
            if self.jobs == 1:
                fresh = self._run_inline(
                    worker, sub, total=total, done_base=done, on_result=remap,
                )
            else:
                fresh = self._run_pool(
                    worker, sub, total=total, done_base=done, on_result=remap,
                )
            for j, i in enumerate(scalar_idx):
                results[i] = fresh[j]
        return results

    def _fallback_group(self, tasks: Sequence[CellTask], exc: Exception) -> list:
        """Scalar rescue of a batched group that failed as a unit."""
        if self.journal.enabled:
            self.journal.record(
                "batch-fallback", label=_group_label(tasks), detail=repr(exc)
            )
        return [execute_cell(t) for t in tasks]

    def _run_groups(
        self, payloads: list[tuple[CellTask, ...]]
    ) -> list[tuple[list, str, float, float]]:
        """Execute batched groups; per group ``(cell_runs, worker,
        started, duration)``.

        With ``jobs == 1`` groups run inline (journaling ``cell-started``
        per cell, like the inline scalar leg); otherwise each group is
        one pool submission, collected with the same timeout /
        broken-pool / retry discipline as scalar pool tasks.  A group
        whose batched execution fails with a
        :class:`~repro.errors.SimulationError` falls back *explicitly*
        to per-cell scalar runs (journaled as ``batch-fallback``) so a
        genuine workload error reproduces its scalar diagnostic.
        """
        out: list[tuple[list, str, float, float]] = []
        if self.jobs == 1:
            wid = _worker_id()
            for group in payloads:
                if self.journal.enabled:
                    started_ts = time.time()
                    for task in group:
                        self.journal.record(
                            "cell-started", label=task.label, worker=wid,
                            attempt=1, ts=started_ts,
                        )
                started = time.time()
                t0 = time.perf_counter()
                try:
                    cell_runs = _execute_batch_group(group)
                except (BatchPartitionError, SimulationError) as exc:
                    cell_runs = self._fallback_group(group, exc)
                out.append(
                    (cell_runs, wid, started, time.perf_counter() - t0)
                )
            return out
        n = len(payloads)
        slots: list[tuple[list, str, float, float] | None] = [None] * n
        attempts = [0] * n
        executor = self._new_executor()
        index_future: dict[int, Future] = {}

        def submit(i: int) -> None:
            attempts[i] += 1
            index_future[i] = executor.submit(
                _observed, _execute_batch_group, payloads[i]
            )

        try:
            for i in range(n):
                submit(i)
            for i in range(n):
                label = _group_label(payloads[i])
                while slots[i] is None:
                    try:
                        value = index_future[i].result(timeout=self.timeout)
                        slots[i] = (
                            value.result, value.worker,
                            value.started, value.duration,
                        )
                    except FutureTimeoutError:
                        self._record_failure(
                            label, "", attempts[i],
                            f"timeout after {self.timeout}s", final=True,
                        )
                        raise ParallelExecutionError(
                            label, attempts[i], "timeout",
                            f"exceeded {self.timeout}s",
                        ) from None
                    except BrokenExecutor as exc:
                        if attempts[i] > self.retries:
                            self._record_failure(
                                label, "", attempts[i], repr(exc), final=True,
                            )
                            raise ParallelExecutionError(
                                label, attempts[i], "broken-pool", str(exc),
                            ) from exc
                        executor.shutdown(wait=False, cancel_futures=True)
                        executor = self._new_executor()
                        if self.journal.enabled:
                            self.journal.record(
                                "pool-rebuilt", label=label, detail=repr(exc)
                            )
                        if self.metrics is not None:
                            self.metrics.counter(
                                "repro_pool_rebuilds_total",
                                "worker-pool rebuilds after breakage",
                            ).inc()
                        for j in range(n):
                            if slots[j] is None:
                                submit(j)
                    except (ConfigurationError, InjectedCrash):
                        raise
                    except Exception as exc:
                        cause, wid = (
                            (exc.cause, exc.worker)
                            if isinstance(exc, _ObservedFailure)
                            else (exc, "")
                        )
                        if isinstance(
                            cause, (BatchPartitionError, SimulationError)
                        ) and not isinstance(cause, ParallelExecutionError):
                            started = time.time()
                            t0 = time.perf_counter()
                            cell_runs = self._fallback_group(payloads[i], cause)
                            slots[i] = (
                                cell_runs, _worker_id(), started,
                                time.perf_counter() - t0,
                            )
                            continue
                        self._record_failure(
                            label, wid, attempts[i], repr(cause),
                            final=attempts[i] > self.retries,
                        )
                        if attempts[i] > self.retries:
                            raise ParallelExecutionError(
                                label, attempts[i], "exception", str(cause),
                            ) from cause
                        submit(i)
            return [s for s in slots if s is not None]
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _run_inline(
        self,
        worker: Callable,
        items: Sequence,
        *,
        total: int | None = None,
        done_base: int = 0,
        on_result: Callable | None = None,
    ) -> list:
        results = []
        wid = _worker_id()
        tracer = self.tracer
        total = len(items) if total is None else total
        for i, payload in enumerate(items):
            label = _label(payload, i)
            attempts = 0
            failures: list[AttemptFailure] = []
            while True:
                attempts += 1
                started = time.time()
                t0 = time.perf_counter()
                if self.journal.enabled:
                    self.journal.record(
                        "cell-started", label=label, worker=wid,
                        attempt=attempts, ts=started,
                    )
                frame = (
                    tracer.begin_cell(label, attempt=attempts)
                    if tracer.enabled
                    else None
                )
                try:
                    if self.faults.enabled:
                        spec = self.faults.worker_fault(label, attempts)
                        if spec is not None:
                            raise_worker_fault(spec, label, in_pool=False)
                    result = worker(payload)
                except (ConfigurationError, InjectedCrash):
                    # misconfiguration never heals on retry; a simulated
                    # process death must abort like the real thing.
                    if frame is not None:
                        tracer.end_cell(frame, failed=True)
                    raise
                except Exception as exc:
                    if frame is not None:
                        tracer.end_cell(frame, failed=True)
                    failures.append(AttemptFailure(attempts, wid, repr(exc)))
                    self._record_failure(
                        label, wid, attempts, repr(exc),
                        final=attempts > self.retries,
                    )
                    if attempts > self.retries:
                        raise ParallelExecutionError(
                            label, attempts, "exception", str(exc),
                            failures=failures,
                        ) from exc
                    continue
                results.append(result)
                if on_result is not None:
                    on_result(i, payload, result)
                if frame is not None:
                    tracer.end_cell(frame)
                self._observe_completion(
                    label, result, worker=wid, attempt=attempts,
                    started=started, duration=time.perf_counter() - t0,
                )
                break
            self._report(done_base + i + 1, total, payload)
        return results

    def _run_pool(
        self,
        worker: Callable,
        items: Sequence,
        *,
        total: int | None = None,
        done_base: int = 0,
        on_result: Callable | None = None,
    ) -> list:
        n = len(items)
        total = n if total is None else total
        results: list = [None] * n
        attempts = [0] * n
        failures: list[list[AttemptFailure]] = [[] for _ in range(n)]
        collected = [False] * n
        done = 0
        observe = self.journal.enabled
        plan = self.faults.plan if self.faults.enabled else None
        executor = self._new_executor()
        index_future: dict[int, Future] = {}

        def submit(i: int) -> None:
            attempts[i] += 1
            if plan is not None:
                index_future[i] = executor.submit(
                    _faulted, plan, worker, items[i],
                    _label(items[i], i), attempts[i], observe,
                )
            elif observe:
                index_future[i] = executor.submit(_observed, worker, items[i])
            else:
                index_future[i] = executor.submit(worker, items[i])

        try:
            for i in range(n):
                submit(i)
            for i in range(n):
                label = _label(items[i], i)
                while not collected[i]:
                    try:
                        value = index_future[i].result(timeout=self.timeout)
                        if isinstance(value, _Observed):
                            results[i] = value.result
                            if on_result is not None:
                                on_result(i, items[i], value.result)
                            if self.tracer.enabled:
                                self.tracer.emit_leaf(
                                    "cell", label,
                                    start=value.started,
                                    duration=value.duration,
                                    worker=value.worker,
                                    attempt=attempts[i],
                                )
                            self._observe_completion(
                                label, value.result, worker=value.worker,
                                attempt=attempts[i], started=value.started,
                                duration=value.duration,
                            )
                        else:
                            results[i] = value
                            if on_result is not None:
                                on_result(i, items[i], value)
                            self._observe_completion(
                                label, value, worker="", attempt=attempts[i],
                                started=None, duration=None,
                            )
                        collected[i] = True
                    except FutureTimeoutError:
                        failures[i].append(AttemptFailure(
                            attempts[i], "", f"timeout: exceeded {self.timeout}s"
                        ))
                        self._record_failure(
                            label, "", attempts[i],
                            f"timeout after {self.timeout}s", final=True,
                        )
                        raise ParallelExecutionError(
                            label,
                            attempts[i],
                            "timeout",
                            f"exceeded {self.timeout}s",
                            failures=failures[i],
                        ) from None
                    except BrokenExecutor as exc:
                        # the pool is dead: every outstanding future is
                        # lost.  Rebuild it and resubmit the survivors.
                        failures[i].append(AttemptFailure(
                            attempts[i], "", f"broken-pool: {exc!r}"
                        ))
                        if attempts[i] > self.retries:
                            self._record_failure(
                                label, "", attempts[i], repr(exc), final=True,
                            )
                            raise ParallelExecutionError(
                                label,
                                attempts[i],
                                "broken-pool",
                                str(exc),
                                failures=failures[i],
                            ) from exc
                        executor.shutdown(wait=False, cancel_futures=True)
                        executor = self._new_executor()
                        if self.journal.enabled:
                            self.journal.record(
                                "pool-rebuilt", label=label, detail=repr(exc)
                            )
                        if self.metrics is not None:
                            self.metrics.counter(
                                "repro_pool_rebuilds_total",
                                "worker-pool rebuilds after breakage",
                            ).inc()
                        for j in range(n):
                            if not collected[j]:
                                submit(j)
                    except (ConfigurationError, InjectedCrash):
                        # a simulated crash (e.g. journal torn mid-append)
                        # must abort the campaign, not look like a task
                        # failure to the retry logic.
                        raise
                    except Exception as exc:
                        cause, wid = (
                            (exc.cause, exc.worker)
                            if isinstance(exc, _ObservedFailure)
                            else (exc, "")
                        )
                        failures[i].append(
                            AttemptFailure(attempts[i], wid, repr(cause))
                        )
                        self._record_failure(
                            label, wid, attempts[i], repr(cause),
                            final=attempts[i] > self.retries,
                        )
                        if attempts[i] > self.retries:
                            raise ParallelExecutionError(
                                label,
                                attempts[i],
                                "exception",
                                str(cause),
                                failures=failures[i],
                            ) from cause
                        submit(i)
                done += 1
                self._report(done_base + done, total, items[i])
            return results
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self.mp_context
        )

    def _report(self, done: int, total: int, payload) -> None:
        if self.progress is not None:
            self.progress(done, total, payload)

    # -- telemetry ----------------------------------------------------------

    def _observe_completion(
        self,
        label: str,
        result,
        *,
        worker: str,
        attempt: int,
        started: float | None,
        duration: float | None,
    ) -> None:
        """Journal + metrics bookkeeping for one successfully run cell."""
        sim = _sim_counters(result)
        if self.journal.enabled:
            extra = dict(sim)
            if started is not None:
                extra["started"] = started
            self.journal.record(
                "cell-finished",
                label=label,
                worker=worker,
                attempt=attempt,
                duration=duration or 0.0,
                extra=extra,
            )
            ledger = _cell_ledger(result)
            if ledger is not None:
                self.journal.record(
                    "cell-ledger",
                    label=label,
                    worker=worker,
                    attempt=attempt,
                    extra=ledger,
                )
        m = self.metrics
        # the per-cell merge only feeds the journal and the metrics
        dist = (
            _cell_dist(result)
            if self.journal.enabled or m is not None
            else None
        )
        if dist is not None and self.journal.enabled:
            first = result[0]
            self.journal.record(
                "cell-dist",
                label=label,
                worker=worker,
                attempt=attempt,
                extra={
                    "workload": first.workload,
                    "platform": first.platform_label,
                    "instance": first.instance_name,
                    "streams": {
                        name: sk.to_dict() for name, sk in dist.items()
                    },
                },
            )
        if m is not None and dist is not None:
            for stream, metric, help_text in (
                ("op", "repro_sim_op_response_seconds",
                 "simulated per-operation response time"),
                ("cell", "repro_sim_makespan_seconds",
                 "simulated per-repetition wall time"),
            ):
                sk = dist.get(stream)
                if sk is not None and sk.count:
                    m.summary(metric, help_text).merge_sketch(sk)
        if m is not None:
            m.counter(
                "repro_cells_completed_total",
                "campaign cells resolved (run or cached)",
            ).inc()
            if duration is not None:
                m.histogram(
                    "repro_cell_seconds", CELL_SECONDS_BUCKETS, "cell wall time"
                ).observe(duration)
            if sim:
                m.counter(
                    "repro_sim_runs_total", "simulated repetitions executed"
                ).inc(sim["runs"])
                m.counter(
                    "repro_sim_sched_events_total", "simulator scheduling events"
                ).inc(sim["sched_events"])
                m.counter(
                    "repro_sim_migrations_total",
                    "expected simulator thread migrations",
                ).inc(sim["migrations"])

    def _record_failure(
        self, label: str, worker: str, attempt: int, detail: str, *, final: bool
    ) -> None:
        """Journal + metrics bookkeeping for one failed attempt."""
        if self.journal.enabled:
            self.journal.record(
                "cell-failed" if final else "cell-retried",
                label=label,
                worker=worker,
                attempt=attempt,
                detail=detail,
            )
        if self.metrics is not None:
            name, help_text = (
                ("repro_cell_failures_total", "cells that failed permanently")
                if final
                else ("repro_cell_retries_total",
                      "cell attempts that failed and were retried")
            )
            self.metrics.counter(name, help_text).inc()

    def report_cached(self, tasks: Sequence) -> None:
        """Deliver cache-resolved cells to progress, journal, and metrics.

        Cells satisfied by the sweep cache never reach the pool, so
        without this call the progress stream under-reports ``(done,
        total)``.  Each cell is reported as a tagged :class:`CachedCell`
        and journaled as ``cell-cache-hit``.
        """
        n = len(tasks)
        for i, task in enumerate(tasks):
            if self.journal.enabled:
                self.journal.record(
                    "cell-cache-hit", label=_label(task, i), cached=True
                )
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_cells_completed_total",
                    "campaign cells resolved (run or cached)",
                ).inc()
                self.metrics.counter(
                    "repro_cache_hit_cells_total",
                    "cells resolved from the sweep cache",
                ).inc()
            self._report(i + 1, n, CachedCell(task))

    # -- sweep execution ----------------------------------------------------

    def run_experiment(self, spec: ExperimentSpec) -> SweepResult:
        """Parallel twin of :func:`repro.run.experiment.run_experiment`.

        Decomposes the sweep into cell tasks, fans them out, and
        reassembles the grid in serial order — the returned
        :class:`SweepResult` is field-for-field identical to the serial
        run at the same seed.
        """
        tasks, platform_order = cell_tasks(spec)
        cell_runs = self.run_tasks(execute_cell, tasks)
        cells = {
            (
                make_platform(t.kind, t.instance, t.mode).label(),
                t.instance.name,
            ): ExperimentResult(runs)
            for t, runs in zip(tasks, cell_runs)
        }
        return SweepResult(
            workload=spec.workload.name,
            cells=cells,
            instance_order=[i.name for i in spec.instances],
            platform_order=platform_order,
        )


def _label(payload, index: int) -> str:
    return getattr(payload, "label", None) or f"task-{index}"


def _sim_counters(result) -> dict:
    """Aggregate perf counters when a task result is a list of runs."""
    if not isinstance(result, list) or not result:
        return {}
    sched = migrations = 0.0
    runs = 0
    for r in result:
        counters = getattr(r, "counters", None)
        if counters is None:
            return {}
        sched += float(counters.sched_events)
        migrations += float(counters.migrations + counters.wake_migrations)
        runs += 1
    return {"runs": runs, "sched_events": sched, "migrations": migrations}


def _cell_dist(result):
    """Merged per-stream latency sketches of one cell's repetitions.

    Returns ``{stream: QuantileSketch}`` (sorted stream names) when
    every run carries recorded distributions, else None.  The merge is
    exactly order- and partition-invariant, so the payload is identical
    whether the cell ran inline, on a pool worker, or batched.
    """
    if not isinstance(result, list) or not result:
        return None
    dists = [getattr(r, "dist", None) for r in result]
    if any(d is None for d in dists):
        return None
    return merge_stream_sketches(dists)


def _cell_ledger(result) -> dict | None:
    """Coarse overhead-ledger payload for one cell's merged counters.

    Returns the ``cell-ledger`` event extra (mechanism decomposition of
    the cell's core-seconds, from the always-on perf counters), or None
    when the result carries no counters.  The worker already paid for
    the counters; the fold is a handful of scalar ops per cell.
    """
    if not isinstance(result, list) or not result:
        return None
    merged = None
    for r in result:
        counters = getattr(r, "counters", None)
        if counters is None:
            return None
        merged = counters if merged is None else merged.merge(counters)
    from repro.analysis.ledger import OverheadLedger

    ledger = OverheadLedger.from_counters(merged)
    return {
        "total_core_seconds": ledger.total_core_seconds,
        "mechanisms": ledger.mechanisms(),
        "dominant": ledger.dominant_mechanism(),
        "residual": ledger.residual,
    }
