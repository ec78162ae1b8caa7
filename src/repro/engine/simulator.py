"""The fluid discrete-event simulator.

Semantics
---------
Threads execute straight-line segment programs.  Between events the set
of runnable threads is fixed, so the engine advances all of them under
**two-level processor sharing**: each *instance* (a platform deployment
with its own quota and overhead model) splits its capacity equally among
its runnable threads, and the host scales every instance down when their
combined demand exceeds the host's cores.  A thread's progress rate is::

    rate = share * efficiency(osr_g) / (platform_penalty * contention
                                        * migration_slowdown * thrash)

where ``osr_g`` is the instance's oversubscription ratio (runnable
threads per quota core), ``efficiency`` folds in the steady
cgroup-accounting tax, platform background machinery and per-scheduling-
event costs (:class:`repro.sched.accounting.OverheadModel`),
``platform_penalty`` is the abstraction-layer slowdown of the current
compute segment, ``contention`` is the host-wide cache-pressure factor,
and ``thrash`` the instance's memory-pressure factor.

The paper evaluates every configuration in isolation ("there is no other
coexisting workload in the system", Section III-A) — that is the
single-instance :class:`EngineConfig` path.  The multi-instance path
(:meth:`Simulator.colocated`) models the very contention the paper
excluded, enabling consolidation studies on top of the reproduction.

State changes only at events — a segment completing, an IO/communication
wake-up, an arrival, a barrier release — so jumping straight to the next
event is exact, and identical threads finishing together are handled in
one step.  The runnable threads' step state lives in packed numpy slot
arrays; each step is O(runnable) vectorized work.

Overheads are charged **in expectation** (probability x penalty per
event); run-to-run variance comes from the workload builders' seeded
jitter, mirroring how the paper's confidence intervals capture measured
noise.

Hot-path architecture
---------------------
The event loop is built around three components, all chosen so the
results stay **bit-for-bit identical** to a straightforward per-segment
interpreter (every floating-point operation happens in the same order on
the same operands):

* **Compiled program tables** (:mod:`repro.engine.compile`): each
  thread's segment list is flattened up front into columnar tables —
  segment kinds, compute work, precomputed per-group platform penalties,
  IO and communication durations — so a segment transition is a handful
  of tuple lookups instead of ``isinstance`` dispatch and per-event
  overhead-model calls.  The tables are all a prepared simulator keeps
  of its programs: it holds no segment objects, op-mark dicts or
  deployments after compiling (only each group's overhead model and
  label), and bitwise-identical columns are one shared, read-only
  array across every live simulator, so a batch of paired reps costs
  little more memory than its distinct columns.

* **Indexed event calendar and packed runnable set**
  (:mod:`repro.engine.calendar`): pending wake-ups and arrivals live in
  a lazy-deletion heap (no ``min`` over all pending wakes), and the
  runnable threads in a packed slot set that also holds each one's
  remaining work, platform penalty and contention coefficient.  The
  rate step works on contiguous ``[:n_run]`` views of those slot
  arrays: no ``flatnonzero``, gather or scatter over all threads.
  Slots are in insertion order, so everything whose result depends on
  thread order runs in ascending tid order: completed segments are
  sorted by tid before they are visited (disk-queue depth and float
  accumulation order depend on it), and the multi-group/weighted path
  and the profiler hooks work on tid-sorted copies (water-filling and
  the profiler's stretch sums add across threads).  Per-thread state
  only scalar Python code touches (``state``, ``wake``, ``finish``, ...)
  is kept in lists.

* **Cached rate records**: the per-group share/efficiency/timeslice
  computation depends only on the per-group runnable multiset, so it is
  computed once per distinct multiset and reused; counter accumulation
  collapses to scalar arithmetic on cached coefficients, in locals that
  are written back to the counters when the run returns or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.calendar import EventCalendar, RunnableIndex
from repro.engine.compile import (
    KIND_BARRIER,
    KIND_COMPUTE,
    KIND_IO,
    CompiledPrograms,
    compile_programs,
)
from repro.engine.events import EventKind, TraceEvent
from repro.engine.tracing import NullTraceSink, TeeTraceSink, TraceSink
from repro.errors import SimulationError
from repro.hostmodel.network import NetworkModel
from repro.hostmodel.storage import StorageModel
from repro.sched.accounting import OverheadModel
from repro.trace.counters import PerfCounters
from repro.workloads.base import ProcessSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.obs.sketch import LatencyRecorder
    from repro.trace.schedprof import SchedProfiler

__all__ = [
    "EngineConfig",
    "EngineResult",
    "GroupResult",
    "InstanceDeployment",
    "Simulator",
]

# thread states
_PRE = 0  # not yet arrived
_RUN = 1  # runnable (in a compute segment)
_BLOCK = 2  # waiting on IO or communication
_BARRIER = 3  # parked at a barrier
_DONE = 4

# blocked causes
_CAUSE_IO = 1
_CAUSE_COMM = 2

_EPS = 1e-12


def _waterfill(weights: np.ndarray, capacity: float) -> np.ndarray:
    """Weighted fair shares with a per-thread cap of one core.

    Allocates ``capacity`` cores proportionally to ``weights``; threads
    whose proportional share exceeds one core are capped and the excess
    is redistributed among the rest (CFS group-weight semantics).
    """
    n = weights.size
    share = np.zeros(n)
    active = np.ones(n, dtype=bool)
    remaining = capacity
    # converges in at most n rounds; in practice a couple
    for _ in range(n):
        w_sum = float(weights[active].sum())
        if w_sum <= 0 or remaining <= 0 or not active.any():
            break
        prop = remaining * weights / w_sum
        over = active & (prop >= 1.0)
        if not over.any():
            share[active] = prop[active]
            break
        share[over] = 1.0
        remaining -= int(over.sum())
        active &= ~over
    return np.minimum(share, 1.0)


@dataclass
class EngineConfig:
    """Engine-level configuration for one isolated run.

    Parameters
    ----------
    capacity:
        Core capacity of the instance (quota or vCPU count).
    overhead:
        Precomputed overhead model of the deployment.
    storage:
        Shared-disk contention model.
    thrash_factor:
        Memory-pressure factor (>= 1): divides compute rates, multiplies
        IO durations.
    max_time:
        Simulation-time guard; exceeding it raises
        :class:`~repro.errors.SimulationError`.
    max_steps:
        Event-loop step guard against livelock.
    trace:
        Optional event sink.
    profiler:
        Optional :class:`~repro.trace.schedprof.SchedProfiler`.  When
        attached the engine tees it into the trace stream and invokes
        its per-step hooks; detached (the default) the only cost is one
        ``is not None`` check per accounting step, and results are
        byte-identical either way.
    latency:
        Optional :class:`~repro.obs.sketch.LatencyRecorder` observing
        per-issue simulated waits (``io_wait`` / ``comm_wait`` /
        ``barrier_wait``).  Unlike a trace sink it does not make a run
        batch-ineligible — the batched leg keeps running and feeds it
        through the same issue methods — so results are byte-identical
        with or without it, and
        detached (the default) the cost is one ``is not None`` check per
        issue.
    """

    capacity: float
    overhead: OverheadModel
    storage: StorageModel = field(default_factory=StorageModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    thrash_factor: float = 1.0
    max_time: float = 1e6
    max_steps: int = 5_000_000
    trace: TraceSink = field(default_factory=NullTraceSink)
    profiler: "SchedProfiler | None" = None
    latency: "LatencyRecorder | None" = None

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {self.capacity}")
        if self.thrash_factor < 1.0:
            raise SimulationError(
                f"thrash_factor must be >= 1, got {self.thrash_factor}"
            )


@dataclass
class InstanceDeployment:
    """One platform instance in a (possibly co-located) simulation.

    Parameters
    ----------
    processes:
        The workload processes running inside this instance.
    capacity:
        Quota/vCPU cores of the instance.
    overhead:
        Overhead model of the instance's deployment.
    thrash_factor:
        Memory-pressure factor of the instance.
    label:
        Name used in per-group results.
    """

    processes: list[ProcessSpec]
    capacity: float
    overhead: OverheadModel
    thrash_factor: float = 1.0
    label: str = "instance"

    def __post_init__(self) -> None:
        if not self.processes:
            raise SimulationError(
                f"deployment {self.label!r} has no processes"
            )
        if self.capacity <= 0:
            raise SimulationError(
                f"deployment {self.label!r} capacity must be > 0"
            )
        if self.thrash_factor < 1.0:
            raise SimulationError(
                f"deployment {self.label!r} thrash_factor must be >= 1"
            )


@dataclass
class GroupResult:
    """Per-instance outcome of a co-located run."""

    label: str
    makespan: float
    op_responses: np.ndarray

    @property
    def mean_response(self) -> float:
        """Mean marked-operation response time; NaN when none."""
        if self.op_responses.size == 0:
            return float("nan")
        return float(self.op_responses.mean())


@dataclass
class EngineResult:
    """Outcome of one simulated run.

    Attributes
    ----------
    makespan:
        Time from t=0 to the last thread completion (host-wide).
    thread_finish_times:
        Completion time of every thread.
    op_responses:
        Response times of all marked operations (all instances).
    counters:
        Aggregate perf counters (all instances).
    groups:
        Per-instance results, in deployment order.
    """

    makespan: float
    thread_finish_times: np.ndarray
    op_responses: np.ndarray
    counters: PerfCounters
    groups: list[GroupResult] = field(default_factory=list)

    @property
    def mean_response(self) -> float:
        """Mean operation response time; NaN when nothing was marked."""
        if self.op_responses.size == 0:
            return float("nan")
        return float(self.op_responses.mean())

    def group(self, label: str) -> GroupResult:
        """Per-instance result by deployment label."""
        for g in self.groups:
            if g.label == label:
                return g
        raise SimulationError(f"no instance labelled {label!r} in this run")


class Simulator:
    """Runs one population of processes to completion.

    Parameters
    ----------
    processes:
        The workload's process specs (single isolated instance).
    config:
        Engine configuration for the isolated-instance case.

    For consolidation studies use :meth:`colocated` instead.
    """

    def __init__(self, processes: list[ProcessSpec], config: EngineConfig) -> None:
        if not processes:
            raise SimulationError("cannot simulate an empty process list")
        deployment = InstanceDeployment(
            processes=processes,
            capacity=config.capacity,
            overhead=config.overhead,
            thrash_factor=config.thrash_factor,
            label="instance",
        )
        self._init_common(
            [deployment],
            host_capacity=config.capacity,
            storage=config.storage,
            network=config.network,
            max_time=config.max_time,
            max_steps=config.max_steps,
            trace=config.trace,
            profiler=config.profiler,
            latency=config.latency,
        )

    @classmethod
    def colocated(
        cls,
        deployments: list[InstanceDeployment],
        host_capacity: float,
        *,
        storage: StorageModel | None = None,
        network: NetworkModel | None = None,
        max_time: float = 1e6,
        max_steps: int = 5_000_000,
        trace: TraceSink | None = None,
        profiler: "SchedProfiler | None" = None,
        latency: "LatencyRecorder | None" = None,
    ) -> "Simulator":
        """Build a simulator with several instances sharing one host.

        ``host_capacity`` caps the combined core usage; the shared
        ``storage`` model couples the instances' disk IO.
        """
        if not deployments:
            raise SimulationError("colocated() needs at least one deployment")
        if host_capacity <= 0:
            raise SimulationError("host_capacity must be > 0")
        self = cls.__new__(cls)
        self._init_common(
            deployments,
            host_capacity=host_capacity,
            storage=storage or StorageModel(),
            network=network or NetworkModel(),
            max_time=max_time,
            max_steps=max_steps,
            trace=trace or NullTraceSink(),
            profiler=profiler,
            latency=latency,
        )
        return self

    # ------------------------------------------------------------------
    # construction

    def _init_common(
        self,
        deployments: list[InstanceDeployment],
        *,
        host_capacity: float,
        storage: StorageModel,
        network: NetworkModel,
        max_time: float,
        max_steps: int,
        trace: TraceSink,
        profiler: "SchedProfiler | None" = None,
        latency: "LatencyRecorder | None" = None,
    ) -> None:
        # an attached profiler observes the event stream like any other
        # sink; teeing keeps a user-provided sink observing too
        self._profiler = profiler
        # a latency recorder is deliberately NOT a trace sink: it must
        # not force the traced scalar path or batch-ineligibility
        self._lat = latency
        if profiler is not None:
            trace = (
                profiler
                if type(trace) is NullTraceSink
                else TeeTraceSink(profiler, trace)
            )
        self.host_capacity = float(host_capacity)
        self.storage = storage
        self.network = network
        self.max_time = max_time
        self.max_steps = max_steps
        self.trace = trace
        self.n_groups = len(deployments)

        programs = []
        proc_of = []
        group_of_list = []
        weights = []
        arrivals = []
        op_marks: dict[int, dict[int, float]] = {}
        tid = 0
        pidx = 0
        for gidx, dep in enumerate(deployments):
            for proc in dep.processes:
                for th in proc.threads:
                    programs.append(th.program)
                    proc_of.append(pidx)
                    group_of_list.append(gidx)
                    weights.append(proc.weight)
                    arrivals.append(th.arrival_time)
                    if th.op_marks:
                        op_marks[tid] = {
                            m.seg_index: m.submitted_at for m in th.op_marks
                        }
                    tid += 1
                pidx += 1

        n = tid
        self.n_threads = n

        # per-thread state read and written one tid at a time by scalar
        # code is kept in lists; seg_ptr and pending_extra stay numpy
        # because the batched engine writes them vectorized
        self.state = [_PRE] * n
        self.wake = [float(a) for a in arrivals]
        self.seg_ptr = np.full(n, -1, dtype=np.int64)
        self.finish = [math.nan] * n
        self.blocked_cause = [0] * n
        self.is_disk_io = [False] * n
        self.barrier_enter = [0.0] * n
        self.pending_extra = np.zeros(n)
        self.group_of = np.asarray(group_of_list, dtype=np.int64)
        self.thread_weight = np.asarray(weights, dtype=float)
        self._uniform_weights = bool(
            np.all(self.thread_weight == self.thread_weight[0])
        )

        self.outstanding_disk = 0
        self.counters = PerfCounters()
        self.op_responses: list[float] = []
        self.op_group: list[int] = []
        self.t = 0.0
        self.n_done = 0

        # per-group overhead models and labels: the only parts of the
        # deployments the run reads once the programs are compiled
        self._g_overhead = [d.overhead for d in deployments]
        self._g_label = [d.label for d in deployments]

        # per-group precomputed overhead scalars
        self._g_capacity = np.array([d.capacity for d in deployments])
        self._g_thrash = np.array([d.thrash_factor for d in deployments])
        self._g_steady = np.array(
            [d.overhead.steady_cgroup_fraction for d in deployments]
        )
        self._g_background = np.array(
            [d.overhead.background_fraction for d in deployments]
        )
        self._g_p_mig = np.array(
            [d.overhead.sched_migration_probability for d in deployments]
        )
        self._g_p_wake = np.array(
            [d.overhead.wake_migration_probability for d in deployments]
        )
        self._g_irq_latency = np.array(
            [d.overhead.irq_latency() for d in deployments]
        )
        self._g_wake_extra = np.array(
            [d.overhead.wake_extra_work() for d in deployments]
        )
        self._g_comm_factor = np.array(
            [d.overhead.comm_factor for d in deployments]
        )
        self._g_net_factor = np.array(
            [
                d.overhead.platform.net_stack_factor(d.overhead.calib)
                for d in deployments
            ]
        )
        self._g_io_factor = np.array(
            [
                d.overhead.platform.io_device_factor(d.overhead.calib)
                for d in deployments
            ]
        )
        # calibration shared per run; take it from the first deployment
        calib = deployments[0].overhead.calib
        self._cfs = calib.cfs
        self._ctx_cost = calib.ctx_switch_cost
        self._gamma = calib.cache_contention_gamma
        self._osr_ref = calib.cache_contention_osr_ref
        self._g_cgroup_switch = np.array(
            [d.overhead.cgroup_switch_cost for d in deployments]
        )

        # --- compiled tables + calendar + runnable index -------------------
        self._compiled: CompiledPrograms = compile_programs(
            programs,
            proc_of,
            group_of_list,
            op_marks,
            deployments,
            storage=storage,
            network=network,
            g_wake_extra=self._g_wake_extra,
            g_p_wake=self._g_p_wake,
            g_irq_latency=self._g_irq_latency,
            g_io_factor=self._g_io_factor,
            g_thrash=self._g_thrash,
            g_comm_factor=self._g_comm_factor,
            g_net_factor=self._g_net_factor,
        )
        self.barrier_participants = self._compiled.barrier_participants
        self.barrier_remaining = dict(self.barrier_participants)
        self.barrier_waiters: dict[tuple[int, int], list[int]] = {}

        self._group_of_l = group_of_list
        self._calendar = EventCalendar(self.wake)
        for j, a in enumerate(arrivals):
            self._calendar.schedule(j, a)
        self._index = RunnableIndex(n, self.n_groups)
        self._queue: list[int] = []  # barrier-cascade work queue

        # emit calls are skipped entirely for the exact null sink; traced
        # runs keep the fully sequential path so the event stream is the
        # interpreter's, event for event
        self._traced = type(trace) is not NullTraceSink
        self._single = self.n_groups == 1 and self._uniform_weights
        self._plain_storage = type(storage) is StorageModel
        self._disk_conc = storage.effective_concurrency

        # scalar mirrors of the per-group constants (single-group path)
        self._cap0 = float(self._g_capacity[0])
        self._thrash0 = float(self._g_thrash[0])
        self._steady0 = float(self._g_steady[0])
        self._bg0 = float(self._g_background[0])
        self._p_mig0 = float(self._g_p_mig[0])
        self._cgsw0 = float(self._g_cgroup_switch[0])

        # rate records keyed by the runnable multiset (see _sg_record)
        self._sg_cache: dict[int, tuple] = {}
        self._mg_cache: dict = {}

        if profiler is not None:
            profiler.bind(self)

    # ------------------------------------------------------------------
    # rate records
    #
    # Everything the step needs that depends only on the per-group
    # runnable counts — shares, efficiency, migration slowdown, event
    # rate, timeslice, and the counter coefficients derived from them —
    # is computed once per distinct runnable multiset and cached.  The
    # record computations replay the historical per-step expressions
    # verbatim, so a cache hit yields the same bits as a recompute.

    def _sg_record(self, n_run: int) -> tuple:
        """Rate record for the single-group uniform-weights fast path."""
        n = float(n_run)
        cap = self._cap0
        host_scale = min(1.0, self.host_capacity / min(n, cap))
        osr = n / cap
        ov = self._g_overhead[0]
        eff = ov.efficiency(osr)
        mig = ov.migration_slowdown(osr)
        er = self._cfs.event_rate(osr)
        ts = self._cfs.timeslice(osr)
        osr_host = n_run / self.host_capacity
        cfac = min(1.0, max(0.0, osr_host - 1.0) / self._osr_ref)
        share = min(1.0, cap / n) * host_scale
        busy = n * share
        rec = (
            cfac,
            mig,
            share * eff,  # rate numerator
            busy,
            er * busy,  # scheduling events per unit time
            busy * eff,  # useful core-seconds per unit time
            self._steady0 * busy,
            self._bg0 * busy,
            1.0 - 1.0 / mig,
            round(float(ts), 6),  # timeslice histogram key
            share,
            n - busy,  # runnable-but-waiting thread count
        )
        self._sg_cache[n_run] = rec
        return rec

    def _mg_record(self, key) -> tuple:
        """Rate record for the general (multi-group / weighted) path."""
        index = self._index
        n_g = index.group_counts.astype(float)
        active = n_g > 0
        alloc = np.minimum(n_g, self._g_capacity)
        total_alloc = float(alloc.sum())
        host_scale = min(1.0, self.host_capacity / total_alloc)

        osr_g = np.divide(
            n_g, self._g_capacity, out=np.zeros_like(n_g), where=active
        )
        osr_host = index.count / self.host_capacity
        share_g = (
            np.minimum(1.0, np.divide(
                self._g_capacity, n_g, out=np.ones_like(n_g), where=active
            ))
            * host_scale
        )
        eff_g = np.ones(self.n_groups)
        mig_g = np.ones(self.n_groups)
        event_rate_g = np.zeros(self.n_groups)
        timeslice_g = np.zeros(self.n_groups)
        for g in range(self.n_groups):
            if not active[g]:
                continue
            ov = self._g_overhead[g]
            eff_g[g] = ov.efficiency(float(osr_g[g]))
            mig_g[g] = ov.migration_slowdown(float(osr_g[g]))
            event_rate_g[g] = self._cfs.event_rate(float(osr_g[g]))
            timeslice_g[g] = self._cfs.timeslice(float(osr_g[g]))
        cfac = min(1.0, max(0.0, osr_host - 1.0) / self._osr_ref)
        busy_g = n_g * share_g
        rec = (
            cfac,
            mig_g,
            share_g * eff_g,  # per-group rate numerator
            eff_g,
            host_scale,
            busy_g,
            event_rate_g * busy_g,  # events per unit time
            float(busy_g.sum()),
            float((busy_g * eff_g).sum()),
            float((self._g_steady * busy_g).sum()),
            float((self._g_background * busy_g).sum()),
            1.0 - 1.0 / mig_g,
            [
                (round(float(timeslice_g[g]), 6), float(busy_g[g]))
                for g in range(self.n_groups)
                if active[g]
            ],
            share_g,
            float(n_g.sum()) - float(busy_g.sum()),
        )
        self._mg_cache[key] = rec
        return rec

    # ------------------------------------------------------------------
    # segment transitions (compiled scalar path)

    def _issue_io(self, j: int, row: int, t: float) -> None:
        """Block thread ``j`` on the IO segment at table ``row``."""
        c = self._compiled
        if c.io_disk_l[row]:
            out = self.outstanding_disk + 1
            if self._plain_storage:
                conc = self._disk_conc
                device = c.io_base_l[row] * (
                    1.0 if out <= conc else out / conc
                )
            else:
                device = self.storage.device_time(
                    c.io_raw_l[row],
                    is_write=c.io_write_l[row],
                    outstanding_ios=out,
                )
            device = device * c.io_scale_l[row]
            duration = device + c.io_fixed_l[row]
            self.outstanding_disk = out
            self.is_disk_io[j] = True
        else:
            duration = c.io_net_dur_l[row]
            self.is_disk_io[j] = False
        self.blocked_cause[j] = _CAUSE_IO
        wake_t = t + duration
        self.wake[j] = wake_t
        self._calendar.schedule(j, wake_t)
        self.pending_extra[j] += c.io_extra_l[row]
        cnt = self.counters
        cnt.irqs += c.io_irqs_l[row]
        cnt.wake_migrations += c.io_wakemig_l[row]
        cnt.io_blocked_seconds += duration
        if self._lat is not None:
            self._lat.observe("io_wait", duration)
        if self._traced:
            self.trace.emit(TraceEvent(t, EventKind.IO_ISSUE, j, duration))

    def _issue_comm(self, j: int, row: int, t: float) -> None:
        """Block thread ``j`` on the communication segment at ``row``."""
        c = self._compiled
        duration = c.comm_dur_l[row]
        self.blocked_cause[j] = _CAUSE_COMM
        self.is_disk_io[j] = False
        wake_t = t + duration
        self.wake[j] = wake_t
        self._calendar.schedule(j, wake_t)
        self.counters.comm_blocked_seconds += duration
        if self._lat is not None:
            self._lat.observe("comm_wait", duration)
        if self._traced:
            self.trace.emit(TraceEvent(t, EventKind.COMM_ISSUE, j, duration))

    def _advance(self, i: int, t: float) -> None:
        """Move thread ``i`` past its just-completed segment at time ``t``.

        Handles cascades (barrier releases) iteratively via a work queue.
        """
        queue = self._queue
        queue.append(i)
        while queue:
            j = queue.pop()
            self._advance_one(j, t, queue)

    def _advance_one(self, j: int, t: float, queue: list[int]) -> None:
        c = self._compiled
        base = c.seg_base_l[j]
        end = c.seg_base_l[j + 1]
        row = base + int(self.seg_ptr[j])
        if row >= base:  # a segment just completed: record its mark
            if c.mark_mask_l[row]:
                response = t - c.mark_submit_l[row]
                self.op_responses.append(response)
                self.op_group.append(self._group_of_l[j])
                if self._traced:
                    self.trace.emit(
                        TraceEvent(t, EventKind.OP_COMPLETE, j, response)
                    )
        index = self._index
        pos = index.pos
        kind_l = c.kind_l
        while True:
            row += 1
            if row >= end:
                self.seg_ptr[j] = row - base
                self.state[j] = _DONE
                self.finish[j] = t
                self.n_done += 1
                if pos[j] >= 0:
                    index.remove(j, self._group_of_l[j])
                if self._traced:
                    self.trace.emit(TraceEvent(t, EventKind.THREAD_DONE, j))
                return
            k = kind_l[row]
            if k == KIND_COMPUTE:
                self.seg_ptr[j] = row - base
                self.state[j] = _RUN
                # re-warm work owed from preceding IRQ wake-ups executes
                # at the head of the next compute burst
                rem = c.work_l[row] + self.pending_extra[j]
                self.pending_extra[j] = 0.0
                gm = self._gamma * c.mem_l[row]
                self.wake[j] = math.inf
                slot = pos[j]
                if slot >= 0:
                    index.rem[slot] = rem
                    index.pp[slot] = c.pp_l[row]
                    index.gm[slot] = gm
                else:
                    index.add(j, self._group_of_l[j], rem, c.pp_l[row], gm)
                return
            if k == KIND_IO:
                self.seg_ptr[j] = row - base
                self.state[j] = _BLOCK
                if pos[j] >= 0:
                    index.remove(j, self._group_of_l[j])
                self._issue_io(j, row, t)
                return
            if k == KIND_BARRIER:
                self.seg_ptr[j] = row - base
                key = c.bar_keys[c.bar_key_l[row]]
                rem = self.barrier_remaining[key] - 1
                self.barrier_remaining[key] = rem
                if rem > 0:
                    self.state[j] = _BARRIER
                    self.barrier_enter[j] = t
                    self.wake[j] = math.inf
                    if pos[j] >= 0:
                        index.remove(j, self._group_of_l[j])
                    self.barrier_waiters.setdefault(key, []).append(j)
                    if self._traced:
                        self.trace.emit(
                            TraceEvent(t, EventKind.BARRIER_WAIT, j, key[1])
                        )
                    return
                # last arriver: release everyone else, continue own program
                waiters = self.barrier_waiters.pop(key, [])
                cnt = self.counters
                enter = self.barrier_enter
                lat = self._lat
                for w in waiters:
                    waited = t - enter[w]
                    cnt.barrier_blocked_seconds += waited
                    if lat is not None:
                        lat.observe("barrier_wait", waited)
                    queue.append(w)
                if self._profiler is not None and waiters:
                    self._profiler.on_barrier_release(t, waiters)
                if self._traced:
                    self.trace.emit(
                        TraceEvent(t, EventKind.BARRIER_RELEASE, j, key[1])
                    )
                continue  # fall through to this thread's next segment
            # KIND_COMM
            self.seg_ptr[j] = row - base
            self.state[j] = _BLOCK
            if pos[j] >= 0:
                index.remove(j, self._group_of_l[j])
            self._issue_comm(j, row, t)
            return

    # ------------------------------------------------------------------
    # main loop

    def run(self) -> EngineResult:
        """Simulate to completion and return the results."""
        steps = 0
        cal = self._calendar
        index = self._index
        traced = self._traced
        trace = self.trace
        prof = self._profiler
        cnt = self.counters
        tsw = cnt.timeslice_weight
        single = self._single
        state = self.state
        wake = self.wake
        sg_cache = self._sg_cache
        mg_cache = self._mg_cache
        thrash0 = self._thrash0
        p_mig0 = self._p_mig0
        ctx_cost = self._ctx_cost
        cgsw0 = self._cgsw0
        # the rate-step counter fields are written only by this loop (the
        # batched engine relies on that), so they accumulate in locals
        busy_cs = cnt.busy_core_seconds
        useful_cs = cnt.useful_core_seconds
        sched_events = cnt.sched_events
        migrations = cnt.migrations
        ctx_time = cnt.ctx_switch_time
        cgroup_time = cnt.cgroup_time
        mig_time = cnt.migration_time
        bg_time = cnt.background_time
        wait_s = cnt.sched_wait_seconds
        try:
            while self.n_done < self.n_threads:
                steps += 1
                if steps > self.max_steps:
                    raise SimulationError(
                        f"exceeded {self.max_steps} engine steps "
                        f"at t={self.t:.3f}s"
                    )

                # 1. deliver due wake-ups / arrivals (ascending thread id)
                due = cal.pop_due(self.t + _EPS)
                if due:
                    for j in due:
                        if state[j] == _PRE:
                            if traced:
                                trace.emit(
                                    TraceEvent(self.t, EventKind.ARRIVAL, j)
                                )
                        elif self.blocked_cause[j] == _CAUSE_IO:
                            if self.is_disk_io[j]:
                                self.outstanding_disk -= 1
                            if traced:
                                trace.emit(
                                    TraceEvent(self.t, EventKind.IO_WAKE, j)
                                )
                        elif traced:
                            trace.emit(
                                TraceEvent(self.t, EventKind.COMM_DONE, j)
                            )
                        wake[j] = math.inf
                        self._advance(j, self.t)
                    continue

                n_run = index.count

                # 2. nothing runnable: jump to the next wake-up
                if n_run == 0:
                    next_wake = cal.next_time()
                    if not math.isfinite(next_wake):
                        waiting = sum(
                            len(v) for v in self.barrier_waiters.values()
                        )
                        raise SimulationError(
                            "deadlock: no runnable threads and no pending "
                            f"wake-ups ({self.n_done}/{self.n_threads} "
                            f"done; barriers waiting: {waiting})"
                        )
                    self.t = max(self.t, next_wake)
                    continue

                # 3. two-level processor-sharing rates (cached per
                # multiset) on the packed slots [:n_run]
                if single:
                    rec = sg_cache.get(n_run)
                    if rec is None:
                        rec = self._sg_record(n_run)
                    (cfac, mig, num, busy, ev_coeff, u_coeff, s_coeff,
                     b_coeff, migfac, ts_key, share_f, w_coeff) = rec
                    pp = index.pp[:n_run]
                    # skip only exact no-op multiplies: with cfac == 0
                    # every lane of cont is exactly 1.0
                    slow = pp if cfac == 0.0 else pp * (
                        1.0 + index.gm[:n_run] * cfac
                    )
                    if mig != 1.0:
                        slow = slow * mig
                    if thrash0 != 1.0:
                        slow = slow * thrash0
                    rate = num / slow
                    rem = index.rem[:n_run]
                else:
                    key = n_run if self.n_groups == 1 else index.key()
                    rec = mg_cache.get(key)
                    if rec is None:
                        rec = self._mg_record(key)
                    (cfac, mig_g, num_g, eff_g, host_scale, busy_g,
                     ev_coeff_g, busy_sum, u_sum, s_sum, b_sum, migfac_g,
                     ts_items, share_g, w_sum) = rec
                    # water-filling sums across threads: work in tid order
                    order = np.argsort(index.tids[:n_run])
                    run_idx = index.tids[:n_run][order]
                    groups_run = self.group_of[run_idx]
                    pp = index.pp[:n_run][order]
                    cont = 1.0 + index.gm[:n_run][order] * cfac
                    slow = pp * cont
                    slow *= mig_g[groups_run]
                    slow *= self._g_thrash[groups_run]
                    if self._uniform_weights:
                        rate = num_g[groups_run] / slow
                    else:
                        # CFS group weights: water-fill each instance's
                        # capacity proportionally to the runnable
                        # threads' weights
                        thread_share = np.empty(n_run)
                        for g in range(self.n_groups):
                            gmask = groups_run == g
                            if not gmask.any():
                                continue
                            cap = float(self._g_capacity[g]) * host_scale
                            thread_share[gmask] = _waterfill(
                                self.thread_weight[run_idx[gmask]], cap
                            )
                        rate = (thread_share * eff_g[groups_run]) / slow
                    rem = index.rem[:n_run][order]

                ttf = rem / rate
                dt_finish = float(ttf.min())
                next_wake = cal.next_time()
                dt = min(dt_finish, next_wake - self.t)
                if dt < 0:
                    dt = 0.0

                # 4. advance and account
                if dt > 0:
                    if single:
                        rem -= rate * dt
                        busy_dt = busy * dt
                        e = ev_coeff * dt
                        busy_cs += busy_dt
                        useful_cs += u_coeff * dt
                        sched_events += e
                        migrations += e * p_mig0
                        ctx_time += e * ctx_cost
                        cgroup_time += s_coeff * dt + e * cgsw0
                        mig_time += busy_dt * migfac
                        bg_time += b_coeff * dt
                        wait_s += w_coeff * dt
                        tsw[ts_key] = tsw.get(ts_key, 0.0) + busy_dt
                        if prof is not None:
                            order = np.argsort(index.tids[:n_run])
                            prof.on_step_single(
                                self.t, dt, n_run, rec,
                                index.tids[:n_run][order], rate[order],
                                (1.0 + index.gm[:n_run] * cfac)[order],
                                pp[order],
                            )
                    else:
                        index.rem[:n_run][order] = rem - rate * dt
                        events_g = ev_coeff_g * dt
                        e_sum = float(events_g.sum())
                        busy_cs += busy_sum * dt
                        useful_cs += u_sum * dt
                        sched_events += e_sum
                        migrations += float((events_g * self._g_p_mig).sum())
                        ctx_time += e_sum * ctx_cost
                        cgroup_time += float(
                            s_sum * dt
                            + (events_g * self._g_cgroup_switch).sum()
                        )
                        mig_time += float(((busy_g * dt) * migfac_g).sum())
                        bg_time += b_sum * dt
                        wait_s += w_sum * dt
                        for tsl, busy_f in ts_items:
                            tsw[tsl] = tsw.get(tsl, 0.0) + busy_f * dt
                        if prof is not None:
                            prof.on_step_multi(
                                self.t, dt, n_run, rec, run_idx, rate, cont,
                                pp, groups_run,
                                None if self._uniform_weights
                                else thread_share,
                            )
                    self.t += dt
                    if self.t > self.max_time:
                        raise SimulationError(
                            f"exceeded max simulation time {self.max_time}s "
                            f"({self.n_done}/{self.n_threads} threads done)"
                        )

                # 5. complete finished compute segments in ascending tid
                # order (disk-queue depth and float accumulation order
                # depend on it)
                if single:
                    finished = index.tids[:n_run][ttf <= dt + _EPS].tolist()
                    finished.sort()
                else:
                    finished = run_idx[ttf <= dt + _EPS].tolist()
                for j in finished:
                    if traced:
                        trace.emit(
                            TraceEvent(self.t, EventKind.COMPUTE_DONE, j)
                        )
                    self._advance(j, self.t)
        finally:
            cnt.busy_core_seconds = busy_cs
            cnt.useful_core_seconds = useful_cs
            cnt.sched_events = sched_events
            cnt.migrations = migrations
            cnt.ctx_switch_time = ctx_time
            cnt.cgroup_time = cgroup_time
            cnt.migration_time = mig_time
            cnt.background_time = bg_time
            cnt.sched_wait_seconds = wait_s

        return self._build_result()

    def _build_result(self) -> EngineResult:
        finish = np.asarray(self.finish, dtype=float)
        makespan = float(np.nanmax(finish)) if finish.size else 0.0
        responses = np.asarray(self.op_responses, dtype=float)
        op_groups = np.asarray(self.op_group, dtype=np.int64)
        groups: list[GroupResult] = []
        for g, label in enumerate(self._g_label):
            mask = self.group_of == g
            g_finish = finish[mask]
            g_makespan = float(np.nanmax(g_finish)) if g_finish.size else 0.0
            # each group gets its own array: a shared empty-array object
            # would let one group's consumer mutate every other group's
            g_resp = (
                responses[op_groups == g]
                if responses.size
                else np.empty(0, dtype=float)
            )
            groups.append(
                GroupResult(
                    label=label, makespan=g_makespan, op_responses=g_resp
                )
            )
        return EngineResult(
            makespan=makespan,
            thread_finish_times=finish,
            op_responses=responses,
            counters=self.counters,
            groups=groups,
        )
