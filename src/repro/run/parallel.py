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

Every run goes through one cell-execution loop over *units*: a unit is
one payload, or one batched group of shape-compatible cell tasks.  The
loop has two executors — inline (``jobs == 1``: run the unit in this
process) and pool (submit every unit, collect in submission order) —
and both feed one failure handler and one completion sink, so the
serial, pool, batched, resumed and fabric legs cannot drift apart.

Failure handling: a task whose worker raises is resubmitted up to
``retries`` extra times; a broken pool (worker process killed) is
rebuilt and the outstanding tasks resubmitted; a task exceeding the
per-task ``timeout`` raises a structured
:class:`~repro.errors.ParallelExecutionError` — carrying the per-attempt
failure history — instead of hanging the campaign.  A ``progress``
callback reports ``(done, total, task)`` after each completed cell,
including cells replayed from checkpoints (delivered as
:class:`CachedCell` payloads).

Telemetry: attach a :class:`~repro.obs.journal.Journal` to stream
structured lifecycle events (cell queued / started / resumed / retried
/ failed / finished, worker identity, durations, pool rebuilds).  Every
per-cell event of a :class:`CellTask` names its cell by store key
(:func:`~repro.run.persistence.task_fingerprint`), so cells sharing a
label stay distinct; campaign metrics are built from the journal
(:func:`~repro.obs.export.journal_to_metrics`).  The journal defaults to
off; results never depend on it.

Fault injection and resume: attach a
:class:`~repro.faults.FaultInjector` to fire a deterministic
:class:`~repro.faults.FaultPlan` at the runner's worker sites
(``worker.kill`` / ``task.timeout`` / ``task.error`` — the plan travels
with the task, so pool scheduling cannot perturb which faults fire on
the inline path), and a :class:`~repro.run.persistence.CellStore`
checkpoint to make campaigns crash-safe: every completed cell task is
persisted atomically as it finishes, probed (with fingerprint
verification) before submission, and replayed instead of re-run —
delivered to progress as :class:`CachedCell` payloads and journaled as
``cell-resumed``.  Both default to off.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.engine.batch import run_batched
from repro.errors import (
    AttemptFailure,
    BatchPartitionError,
    ConfigurationError,
    InjectedCrash,
    ParallelExecutionError,
    SimulationError,
)
from repro.faults import (
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    raise_worker_fault,
)
from repro.hostmodel.topology import HostTopology
from repro.obs.journal import NULL_JOURNAL, Journal
from repro.obs.sketch import merge_stream_sketches
from repro.obs.trace_spans import NULL_TRACER
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import make_platform
from repro.rng import RngFactory, StreamSpec
from repro.run.calibration import Calibration
from repro.run.execution import finish_run, prepare_run, run_cell
from repro.run.experiment import ExperimentSpec
from repro.run.persistence import CellStore, task_fingerprint
from repro.run.results import RunResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.base import Workload

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
    """Progress payload for a cell replayed from a checkpoint.

    Wraps the task so progress consumers can tell replayed cells from
    executed ones while still seeing an accurate ``(done, total)``.
    """

    task: object

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


#: Failures that abort the campaign at once: misconfiguration never
#: heals on retry, and a simulated process death must abort like the
#: real thing.
_FATAL = (ConfigurationError, InjectedCrash)


def _observed(
    worker: Callable,
    payload,
    fault: FaultSpec | None = None,
    label: str = "",
    in_pool: bool = True,
) -> _Observed:
    """Run one attempt of ``worker(payload)``, recording worker identity
    and timing.

    A matched worker-site ``fault`` fires first (see
    :func:`~repro.faults.raise_worker_fault`).  :data:`_FATAL` errors
    pass through unwrapped; any other failure is wrapped in
    :class:`_ObservedFailure` so the parent learns which worker failed.
    """
    started = time.time()
    t0 = time.perf_counter()
    try:
        if fault is not None:
            raise_worker_fault(fault, label, in_pool=in_pool)
        result = worker(payload)
    except _FATAL:
        raise
    except Exception as exc:
        raise _ObservedFailure(_worker_id(), exc) from exc
    return _Observed(result, _worker_id(), started, time.perf_counter() - t0)


def _pool_task(
    plan: FaultPlan | None,
    worker: Callable,
    payload,
    label: str,
    attempt: int,
) -> _Observed:
    """Pool entry point: evaluate the fault plan, then run the attempt.

    Module-level (hence picklable); the immutable plan travels with the
    submission, so whichever worker process picks the task up reaches the
    same verdict — pool scheduling cannot perturb which faults fire.  A
    matched ``worker.kill`` really kills this process (``os._exit``),
    ``task.timeout`` sleeps past the runner's collection timeout, and
    ``task.error`` raises a retryable transient fault.
    """
    fault = plan.worker_fault(label, attempt) if plan is not None else None
    return _observed(worker, payload, fault, label)


@dataclass(frozen=True)
class _Unit:
    """One submission of the cell-execution loop.

    A scalar unit runs ``fn(payload)`` for one payload; a ``group`` unit
    runs :func:`_execute_batch_group` over a tuple of shape-compatible
    :class:`CellTask` payloads and returns one run list per cell.
    ``slots`` are the unit's positions in the payload list of
    :meth:`ParallelRunner.run_tasks`, ``labels`` their cell labels and
    ``cells`` their journal cell keys (``""`` where there is none).
    """

    fn: Callable
    payload: object
    label: str
    slots: tuple[int, ...]
    labels: tuple[str, ...]
    cells: tuple[str, ...]
    group: bool = False


@dataclass
class _TaskSet:
    """State of one :meth:`ParallelRunner.run_tasks` call."""

    items: list
    keys: list[str | None]
    results: list
    done: int = 0


def cell_tasks(spec: ExperimentSpec) -> list[CellTask]:
    """Decompose a sweep spec into cell tasks, in serial iteration order.

    The stream labels reproduce the serial paired design: the *same*
    stream per (workload, instance, rep) across platforms.
    """
    factory = RngFactory(seed=spec.seed)
    tasks: list[CellTask] = []
    for instance in spec.instances:
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
    return tasks


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
        runner streams cell lifecycle events into it, with the worker
        identity and timing every attempt reports and the cell's store
        key.  Every executed cell also journals its merged latency
        sketches as a ``cell-dist`` event, identical across the inline,
        pool, and batched legs.
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
        it), the pool leg emits leaf spans from the timing the worker
        observed, and batched groups emit one leaf per cell.
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
        mp_context=None,
        faults: FaultInjector | None = None,
        checkpoint: CellStore | None = None,
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
        (reported as :class:`CachedCell` progress payloads)
        and every freshly-executed task is checkpointed as it completes.

        A cell task's key (:func:`~repro.run.persistence.task_fingerprint`)
        names it in the store and in the journal, so it is computed only
        when either is attached.
        """
        items = list(payloads)
        store = self.checkpoint
        journal = self.journal
        keys = (
            [task_fingerprint(p) for p in items]
            if store is not None or journal.enabled
            else [None] * len(items)
        )
        tasks = _TaskSet(items, keys, [None] * len(items))
        pending: list[int] = []
        resumed: list[int] = []
        for i, payload in enumerate(items):
            label = _label(payload, i)
            key = keys[i]
            if store is not None and key is not None:
                runs, state = store.load(key)
                if state == "hit":
                    tasks.results[i] = runs
                    resumed.append(i)
                    if journal.enabled:
                        journal.record(
                            "cell-resumed", label=label, cell=key,
                            cached=True,
                        )
                    continue
                if state == "corrupt" and journal.enabled:
                    journal.record("checkpoint-corrupt", label=label, cell=key)
            pending.append(i)
            if journal.enabled:
                journal.record("cell-queued", label=label, cell=key or "")

        for i in resumed:
            tasks.done += 1
            self._report(tasks.done, len(items), CachedCell(items[i]))
        if pending:
            for units in self._units(worker, tasks, pending):
                self._execute(units, tasks)
        return tasks.results

    def _units(
        self, worker: Callable, tasks: _TaskSet, pending: list[int]
    ) -> list[list[_Unit]]:
        """Split the pending payloads into execution units, in run order.

        Every payload is one scalar unit unless :attr:`batch` is set and
        ``worker`` is :func:`execute_cell`.  Then shape-compatible
        :class:`CellTask` payloads are clustered into groups advanced by
        the batched engine; everything else — non-cell payloads,
        fault-armed tasks (pre-screened against the plan so injection
        still fires on the scalar path, exactly once), and tasks matching
        no group — stays scalar.  The groups form a list of their own
        that runs first, so their cells checkpoint before a fault-armed
        scalar task can abort the campaign.
        """

        items = tasks.items

        def cells(idxs) -> tuple[str, ...]:
            return tuple(tasks.keys[i] or "" for i in idxs)

        def scalar(i: int) -> _Unit:
            label = _label(items[i], i)
            return _Unit(worker, items[i], label, (i,), (label,), cells((i,)))

        if not (self.batch and worker is execute_cell):
            return [[scalar(i) for i in pending]]
        plan = self.faults.plan if self.faults.enabled else None
        groups: dict[tuple, list[int]] = {}
        scalar_idx: list[int] = []
        for i in pending:
            task = items[i]
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
        if sorted(covered) != pending:
            raise BatchPartitionError(
                f"batch partition covered {len(covered)} slot(s) of "
                f"{len(pending)} cell task(s); refusing to drop cells silently"
            )
        if self.journal.enabled:
            self.journal.record(
                "batch-partition",
                label=f"{len(pending)} task(s)",
                detail=(
                    f"{len(batches)} batch(es) covering "
                    f"{len(pending) - len(scalar_idx)} cell(s), "
                    f"{len(scalar_idx)} scalar cell(s)"
                ),
            )
        group_units = []
        for idxs in batches:
            group = tuple(items[i] for i in idxs)
            group_units.append(_Unit(
                _execute_batch_group, group, _group_label(group), tuple(idxs),
                tuple(_label(t, i) for t, i in zip(group, idxs)), cells(idxs),
                group=True,
            ))
        return [group_units, [scalar(i) for i in scalar_idx]]

    def _execute(self, units: list[_Unit], tasks: _TaskSet) -> None:
        """The cell-execution loop: run ``units`` to completion, in order.

        With ``jobs == 1`` the inline executor runs each attempt in this
        process when the loop reaches the unit; otherwise every unit is
        submitted to a process pool up front and the results are
        collected in submission order.  Both executors share one failure
        handler and one completion sink (:meth:`_complete`):

        * a failed attempt is retried until ``retries`` is exhausted,
          then raises :class:`~repro.errors.ParallelExecutionError`
          carrying one :class:`~repro.errors.AttemptFailure` per attempt;
        * a batched group failing with a
          :class:`~repro.errors.SimulationError` falls back *explicitly*
          to per-cell scalar runs (journaled as ``batch-fallback``) so a
          genuine workload error reproduces its scalar diagnostic;
        * a broken pool — whether it breaks at ``submit`` or at
          ``result`` — counts as a failed attempt of the unit being
          collected; the pool is rebuilt and every uncollected unit
          resubmitted;
        * a unit exceeding :attr:`timeout` raises at once;
        * :data:`_FATAL` errors abort at once.
        """
        if not units:
            return
        n = len(units)
        attempts = [0] * n
        failures: list[list[AttemptFailure]] = [[] for _ in range(n)]
        plan = self.faults.plan if self.faults.enabled else None
        pool = self._new_executor() if self.jobs > 1 else None
        futures: list[Future | None] = [None] * n

        def submit(u: int) -> None:
            attempts[u] += 1
            if pool is None:
                return  # the inline executor runs the attempt when collected
            unit = units[u]
            try:
                futures[u] = pool.submit(
                    _pool_task, None if unit.group else plan, unit.fn,
                    unit.payload, unit.label, attempts[u],
                )
            except Exception as exc:
                # e.g. a pool broken by an earlier task refuses new work:
                # collect the failure exactly like one raised by ``result``
                futures[u] = Future()
                futures[u].set_exception(exc)

        try:
            for u in range(n):
                submit(u)
            for u, unit in enumerate(units):
                label = unit.label
                while True:
                    frame = None
                    try:
                        if pool is None:
                            obs, frame = self._attempt_here(unit, attempts[u])
                        else:
                            obs = futures[u].result(timeout=self.timeout)
                    except FutureTimeoutError:
                        failures[u].append(AttemptFailure(
                            attempts[u], "", f"timeout: exceeded {self.timeout}s"
                        ))
                        self._record_failure(
                            unit, "", attempts[u],
                            f"timeout after {self.timeout}s", final=True,
                        )
                        raise ParallelExecutionError(
                            label, attempts[u], "timeout",
                            f"exceeded {self.timeout}s", failures=failures[u],
                        ) from None
                    except BrokenExecutor as exc:
                        # the pool is dead: every outstanding future is
                        # lost.  Rebuild it and resubmit the survivors.
                        failures[u].append(AttemptFailure(
                            attempts[u], "", f"broken-pool: {exc!r}"
                        ))
                        if attempts[u] > self.retries:
                            self._record_failure(
                                unit, "", attempts[u], repr(exc), final=True,
                            )
                            raise ParallelExecutionError(
                                label, attempts[u], "broken-pool", str(exc),
                                failures=failures[u],
                            ) from exc
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = self._new_executor()
                        if self.journal.enabled:
                            self.journal.record(
                                "pool-rebuilt", label=label, detail=repr(exc)
                            )
                        for j in range(u, n):
                            submit(j)
                        continue
                    except _FATAL:
                        raise
                    except Exception as exc:
                        cause, wid = (
                            (exc.cause, exc.worker)
                            if isinstance(exc, _ObservedFailure)
                            else (exc, "")
                        )
                        if (
                            unit.group
                            and isinstance(cause, SimulationError)
                            and not isinstance(cause, ParallelExecutionError)
                        ):
                            obs = self._fallback_group(unit.payload, cause)
                        else:
                            failures[u].append(
                                AttemptFailure(attempts[u], wid, repr(cause))
                            )
                            final = attempts[u] > self.retries
                            self._record_failure(
                                unit, wid, attempts[u], repr(cause),
                                final=final,
                            )
                            if final:
                                raise ParallelExecutionError(
                                    label, attempts[u], "exception",
                                    str(cause), failures=failures[u],
                                ) from cause
                            submit(u)
                            continue
                    self._complete(tasks, unit, obs, attempts[u], frame)
                    break
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _attempt_here(
        self, unit: _Unit, attempt: int
    ) -> tuple[_Observed, object]:
        """Inline executor: run one attempt of ``unit`` in this process.

        Journals ``cell-started`` per cell and matches the fault plan
        through the parent's injector (which records the firing).  Under
        a tracer, a scalar unit runs inside a cell frame — so engine
        compile/advance phases nest under it — that :meth:`_complete`
        closes after the checkpoint write.  Returns ``(observed, frame)``.
        """
        if self.journal.enabled:
            wid = _worker_id()
            started = time.time()
            for label, cell in zip(unit.labels, unit.cells):
                self.journal.record(
                    "cell-started", label=label, cell=cell, worker=wid,
                    attempt=attempt, ts=started,
                )
        tracer = self.tracer
        frame = (
            tracer.begin_cell(unit.label, attempt=attempt, cell=unit.cells[0])
            if tracer.enabled and not unit.group
            else None
        )
        try:
            fault = (
                None if unit.group
                else self.faults.worker_fault(unit.label, attempt)
            )
            obs = _observed(
                unit.fn, unit.payload, fault, unit.label, in_pool=False
            )
        except BaseException:
            if frame is not None:
                tracer.end_cell(frame, failed=True)
            raise
        return obs, frame

    def _complete(
        self,
        tasks: _TaskSet,
        unit: _Unit,
        obs: _Observed,
        attempt: int,
        frame,
    ) -> None:
        """The cell-completion sink: every executed cell passes here once.

        Stores the cell's result, checkpoints it (traced as a
        ``checkpoint`` phase), closes the inline cell frame or emits the
        cell's leaf span, journals the completion under the cell's key,
        and reports progress.
        """
        tracer = self.tracer
        store = self.checkpoint
        outs = obs.result if unit.group else [obs.result]
        for i, label, cell, result in zip(
            unit.slots, unit.labels, unit.cells, outs
        ):
            tasks.results[i] = result
            if store is not None and cell and isinstance(result, list):
                put_start = time.time()
                t0 = time.perf_counter()
                store.put(cell, result, label=label)
                if tracer.enabled:
                    tracer.phase(
                        "checkpoint", put_start, time.perf_counter() - t0
                    )
            if frame is not None:
                tracer.end_cell(frame)
            elif tracer.enabled:
                tracer.emit_leaf(
                    "cell", label, start=obs.started, duration=obs.duration,
                    worker=obs.worker, attempt=attempt, cell=cell,
                    **({"batched": True} if unit.group else {}),
                )
            if self.journal.enabled:
                self._journal_completion(
                    label, cell, result, worker=obs.worker, attempt=attempt,
                    started=obs.started, duration=obs.duration,
                )
            tasks.done += 1
            self._report(tasks.done, len(tasks.items), tasks.items[i])

    def _fallback_group(
        self, tasks: Sequence[CellTask], exc: Exception
    ) -> _Observed:
        """Scalar rescue, in this process, of a batched group that failed
        as a unit."""
        if self.journal.enabled:
            self.journal.record(
                "batch-fallback", label=_group_label(tasks), detail=repr(exc)
            )
        started = time.time()
        t0 = time.perf_counter()
        runs = [execute_cell(t) for t in tasks]
        return _Observed(runs, _worker_id(), started, time.perf_counter() - t0)

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self.mp_context
        )

    def _report(self, done: int, total: int, payload) -> None:
        if self.progress is not None:
            self.progress(done, total, payload)

    # -- telemetry ----------------------------------------------------------

    def _journal_completion(
        self,
        label: str,
        cell: str,
        result,
        *,
        worker: str,
        attempt: int,
        started: float,
        duration: float,
    ) -> None:
        """Journal one successfully run cell: ``cell-finished`` with its
        simulator counters, then ``cell-ledger`` and ``cell-dist``."""
        extra = _sim_counters(result)
        extra["started"] = started
        self.journal.record(
            "cell-finished",
            label=label,
            cell=cell,
            worker=worker,
            attempt=attempt,
            duration=duration,
            extra=extra,
        )
        ledger = _cell_ledger(result)
        if ledger is not None:
            self.journal.record(
                "cell-ledger",
                label=label,
                cell=cell,
                worker=worker,
                attempt=attempt,
                extra=ledger,
            )
        dist = _cell_dist(result)
        if dist is not None:
            first = result[0]
            self.journal.record(
                "cell-dist",
                label=label,
                cell=cell,
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

    def _record_failure(
        self,
        unit: _Unit,
        worker: str,
        attempt: int,
        detail: str,
        *,
        final: bool,
    ) -> None:
        """Journal one failed attempt of ``unit`` (``cell-failed`` when
        ``final``), once per member cell under its own label and key."""
        if self.journal.enabled:
            for label, cell in zip(unit.labels, unit.cells):
                self.journal.record(
                    "cell-failed" if final else "cell-retried",
                    label=label,
                    cell=cell,
                    worker=worker,
                    attempt=attempt,
                    detail=detail,
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
