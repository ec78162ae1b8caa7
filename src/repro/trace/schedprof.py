"""Scheduler profiler: ``perf sched timehist`` / ``perf sched map`` analogs.

``perf sched record`` watches the real kernel's scheduler tracepoints and
``perf sched timehist`` / ``perf sched map`` replay them as a per-task
time history and a per-CPU occupancy map — the exact instruments the
paper uses to explain *where* virtualization and containerization lose
time (Section III-A).  :class:`SchedProfiler` is the simulated-kernel
analog: attached to a :class:`~repro.engine.simulator.Simulator` (via
``EngineConfig.profiler`` or ``run_once(profiler=...)``) it observes the
engine's event stream as a trace sink *and* its per-step rate records
through dedicated hooks, recording

* per-thread state transitions — run / blocked-IO / blocked-comm /
  barrier — as closed intervals (the ``timehist`` data),
* per-thread granted core-seconds vs runnable-wait seconds (the fluid
  analog of ``sch delay``),
* a per-step busy-core series (the ``perf sched map`` data), and
* the exact accumulators the :class:`~repro.analysis.ledger.OverheadLedger`
  needs to decompose every core-second of the run by mechanism.

Profiling is strictly opt-in.  A detached engine pays one ``is not
None`` check per accounting step and produces byte-identical results;
an attached profiler forces the engine's sequential traced path (the
same determinism contract every trace sink obeys), so results are
byte-identical *with the profiler attached* too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.events import EventKind, TraceEvent
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.engine.simulator import Simulator

__all__ = ["SchedProfiler", "SchedProfile", "ThreadHist"]

# interval state codes (compact strings; also the Chrome-trace span names)
RUN = "run"
IO = "io"
COMM = "comm"
BARRIER = "barrier"

#: occupancy glyphs for the ``perf sched map`` analog, thresholds at
#: 1e-9, 0.25, 0.5, 0.75 of a core-bin
_MAP_GLYPHS = " .-=#"


@dataclass(frozen=True)
class ThreadHist:
    """Per-thread ``timehist`` summary row (all times in seconds)."""

    thread: int
    group: int
    arrival: float
    finish: float
    granted: float  #: core-seconds actually granted while runnable
    run_wait: float  #: runnable-but-waiting thread-seconds (sch delay)
    io_blocked: float
    comm_blocked: float
    barrier_blocked: float

    @property
    def lifetime(self) -> float:
        """Wall seconds between arrival and completion."""
        return self.finish - self.arrival

    def to_dict(self) -> dict:
        """JSON-ready projection."""
        return {
            "thread": self.thread,
            "group": self.group,
            "arrival": self.arrival,
            "finish": self.finish,
            "granted": self.granted,
            "run_wait": self.run_wait,
            "io_blocked": self.io_blocked,
            "comm_blocked": self.comm_blocked,
            "barrier_blocked": self.barrier_blocked,
        }


@dataclass
class SchedProfile:
    """Everything one profiled run recorded.

    ``intervals`` is the raw transition log: ``(t0, t1, state, thread)``
    tuples in close order, ``state`` one of ``run`` / ``io`` / ``comm``
    / ``barrier``.  ``steps`` is the compressed busy-core series
    ``(t0, dt, busy)`` with contiguous equal-occupancy steps merged.
    The ``ledger`` attribute holds the raw mechanism accumulators
    consumed by :meth:`repro.analysis.ledger.OverheadLedger.from_profile`.
    """

    n_threads: int
    n_groups: int
    t_end: float
    group_of: list[int]
    arrival: np.ndarray
    finish: np.ndarray
    granted: np.ndarray
    run_wait: np.ndarray
    io_blocked: np.ndarray
    comm_blocked: np.ndarray
    barrier_blocked: np.ndarray
    intervals: list[tuple[float, float, str, int]]
    steps: list[tuple[float, float, float]]
    ledger: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derived views

    def thread_hist(self) -> list[ThreadHist]:
        """Per-thread summary rows, by engine thread index."""
        return [
            ThreadHist(
                thread=j,
                group=self.group_of[j],
                arrival=float(self.arrival[j]),
                finish=float(self.finish[j]),
                granted=float(self.granted[j]),
                run_wait=float(self.run_wait[j]),
                io_blocked=float(self.io_blocked[j]),
                comm_blocked=float(self.comm_blocked[j]),
                barrier_blocked=float(self.barrier_blocked[j]),
            )
            for j in range(self.n_threads)
        ]

    def occupancy(self, bins: int = 72) -> np.ndarray:
        """Mean busy cores per time bin over ``[0, t_end]``."""
        if self.t_end <= 0 or bins <= 0:
            return np.zeros(max(bins, 0))
        width = self.t_end / bins
        occ = np.zeros(bins)
        for t0, dt, busy in self.steps:
            if dt <= 0:
                continue
            lo = t0
            hi = min(t0 + dt, self.t_end)
            b0 = min(int(lo / width), bins - 1)
            b1 = min(int(hi / width - 1e-12), bins - 1)
            for b in range(b0, b1 + 1):
                seg = min(hi, (b + 1) * width) - max(lo, b * width)
                if seg > 0:
                    occ[b] += busy * seg
        return occ / width

    # ------------------------------------------------------------------
    # renderings

    def timehist(self, max_rows: int = 40) -> str:
        """``perf sched timehist`` analog: the transition log followed by
        per-thread wait/run totals.

        One line per closed interval (time-ordered by close time), then a
        per-thread summary table; at most ``max_rows`` of each, with a
        truncation note when the log is longer.
        """
        out = ["scheduler time history (seconds)"]
        out.append(
            f"{'time':>12}  {'thread':>6}  {'grp':>3}  {'state':<7}  "
            f"{'duration':>12}"
        )
        out.append("-" * 49)
        shown = self.intervals[:max_rows]
        for t0, t1, state, j in shown:
            out.append(
                f"{t1:>12.6f}  {j:>6d}  {self.group_of[j]:>3d}  "
                f"{state:<7}  {t1 - t0:>12.6f}"
            )
        if len(self.intervals) > max_rows:
            out.append(
                f"... {len(self.intervals) - max_rows} more transitions"
            )
        out.append("")
        out.append(
            f"{'thread':>6}  {'grp':>3}  {'arrival':>10}  {'finish':>10}  "
            f"{'run':>10}  {'wait':>10}  {'io':>10}  {'comm':>10}  "
            f"{'barrier':>10}"
        )
        out.append("-" * 91)
        rows = self.thread_hist()
        for h in rows[:max_rows]:
            out.append(
                f"{h.thread:>6d}  {h.group:>3d}  {h.arrival:>10.4f}  "
                f"{h.finish:>10.4f}  {h.granted:>10.4f}  "
                f"{h.run_wait:>10.4f}  {h.io_blocked:>10.4f}  "
                f"{h.comm_blocked:>10.4f}  {h.barrier_blocked:>10.4f}"
            )
        if len(rows) > max_rows:
            out.append(f"... {len(rows) - max_rows} more threads")
        return "\n".join(out)

    def core_map(self, width: int = 72) -> str:
        """``perf sched map`` analog: one row per (fluid) core lane, one
        column per time bin, glyphs ``' .-=#'`` by lane occupancy.

        Lane ``i``'s occupancy in a bin is the time-integral of
        ``clamp(busy - i, 0, 1)`` — how much of that unit of capacity the
        scheduler kept busy — so stacked lanes read like the real tool's
        per-CPU rows.
        """
        if not self.steps or self.t_end <= 0:
            return "(empty profile)"
        peak = max(busy for _, _, busy in self.steps)
        lanes = max(1, int(math.ceil(peak - 1e-9)))
        bin_w = self.t_end / width
        occ = np.zeros((lanes, width))
        for t0, dt, busy in self.steps:
            if dt <= 0 or busy <= 0:
                continue
            hi_t = min(t0 + dt, self.t_end)
            b0 = min(int(t0 / bin_w), width - 1)
            b1 = min(int(hi_t / bin_w - 1e-12), width - 1)
            for b in range(b0, b1 + 1):
                seg = min(hi_t, (b + 1) * bin_w) - max(t0, b * bin_w)
                if seg <= 0:
                    continue
                for lane in range(lanes):
                    share = min(max(busy - lane, 0.0), 1.0)
                    if share > 0:
                        occ[lane, b] += share * seg
        occ /= bin_w
        out = [
            f"core occupancy map  (t=0 .. {self.t_end:.4f}s, "
            f"{bin_w:.4f}s/col, peak {peak:.2f} busy cores)"
        ]
        for lane in range(lanes - 1, -1, -1):
            row = []
            for b in range(width):
                f = occ[lane, b]
                if f <= 1e-9:
                    g = _MAP_GLYPHS[0]
                elif f < 0.25:
                    g = _MAP_GLYPHS[1]
                elif f < 0.5:
                    g = _MAP_GLYPHS[2]
                elif f < 0.75:
                    g = _MAP_GLYPHS[3]
                else:
                    g = _MAP_GLYPHS[4]
                row.append(g)
            out.append(f"core {lane:>3d} |{''.join(row)}|")
        out.append(f"         +{'-' * width}+")
        out.append("         glyphs: ' '<1e-9  .<25%  -<50%  =<75%  #>=75%")
        return "\n".join(out)

    def to_dict(self, max_intervals: int | None = None) -> dict:
        """JSON-ready projection (interval log optionally capped)."""
        iv = self.intervals
        if max_intervals is not None:
            iv = iv[:max_intervals]
        return {
            "n_threads": self.n_threads,
            "n_groups": self.n_groups,
            "t_end": self.t_end,
            "threads": [h.to_dict() for h in self.thread_hist()],
            "intervals": [
                {"t0": t0, "t1": t1, "state": s, "thread": j}
                for t0, t1, s, j in iv
            ],
            "steps": [
                {"t0": t0, "dt": dt, "busy": busy}
                for t0, dt, busy in self.steps
            ],
            "ledger": dict(self.ledger),
        }


class SchedProfiler:
    """Records one run's scheduler history; see the module docstring.

    One profiler instance observes exactly one run: the engine calls
    :meth:`bind` during construction (resetting all state), feeds it
    events and step hooks during :meth:`Simulator.run`, and afterwards
    :meth:`profile` finalizes the recording.  ``record_intervals=False``
    drops the per-transition log (keeping aggregates and the ledger
    accumulators) for very large runs.
    """

    def __init__(self, record_intervals: bool = True) -> None:
        self.record_intervals = record_intervals
        self._sim: "Simulator | None" = None

    # ------------------------------------------------------------------
    # engine wiring

    def bind(self, sim: "Simulator") -> None:
        """Attach to a simulator (called by the engine; resets state)."""
        n = sim.n_threads
        self._sim = sim
        self.n_threads = n
        self.arrival = np.full(n, np.nan)
        self.granted = np.zeros(n)
        self.run_wait = np.zeros(n)
        self.io_blocked = np.zeros(n)
        self.comm_blocked = np.zeros(n)
        self.barrier_blocked = np.zeros(n)
        self.intervals: list[tuple[float, float, str, int]] = []
        # open interval per thread: (state, t_open) or None
        self._open: list[tuple[str, float] | None] = [None] * n
        self.steps: list[tuple[float, float, float]] = []
        # ledger accumulators (see OverheadLedger.from_profile)
        self.granted_total = 0.0
        self.sched_wait_total = 0.0
        self.progress = 0.0
        self.eff_granted = 0.0
        self.raw_cgroup = 0.0
        self.raw_ctx = 0.0
        self.raw_background = 0.0
        self.st_abstraction = 0.0
        self.st_contention = 0.0
        self.st_migration = 0.0
        self.st_thrash = 0.0

    # ------------------------------------------------------------------
    # trace-sink half: per-thread state transitions

    def _close(self, j: int, t: float) -> None:
        open_iv = self._open[j]
        if open_iv is None:
            return
        state, t0 = open_iv
        self._open[j] = None
        dur = t - t0
        if state is IO:
            self.io_blocked[j] += dur
        elif state is COMM:
            self.comm_blocked[j] += dur
        elif state is BARRIER:
            self.barrier_blocked[j] += dur
        if self.record_intervals:
            self.intervals.append((t0, t, state, j))

    def emit(self, event: TraceEvent) -> None:
        """Trace-sink entry point: fold one engine event into the
        per-thread state machine."""
        kind = event.kind
        j = event.thread
        t = event.time
        if kind is EventKind.ARRIVAL:
            self.arrival[j] = t
            self._open[j] = (RUN, t)
        elif kind is EventKind.IO_ISSUE:
            self._close(j, t)
            self._open[j] = (IO, t)
        elif kind is EventKind.IO_WAKE:
            self._close(j, t)
            self._open[j] = (RUN, t)
        elif kind is EventKind.COMM_ISSUE:
            self._close(j, t)
            self._open[j] = (COMM, t)
        elif kind is EventKind.COMM_DONE:
            self._close(j, t)
            self._open[j] = (RUN, t)
        elif kind is EventKind.BARRIER_WAIT:
            self._close(j, t)
            self._open[j] = (BARRIER, t)
        elif kind is EventKind.THREAD_DONE:
            self._close(j, t)
        # COMPUTE_DONE / OP_COMPLETE / BARRIER_RELEASE carry no state
        # change for the emitting thread; waiter release arrives through
        # the dedicated on_barrier_release hook.

    def on_barrier_release(self, t: float, waiters: list[int]) -> None:
        """Engine hook: parked ``waiters`` become runnable at ``t``."""
        for w in waiters:
            self._close(w, t)
            self._open[w] = (RUN, t)

    # ------------------------------------------------------------------
    # step-hook half: exact per-step accounting

    def _push_step(self, t0: float, dt: float, busy: float) -> None:
        steps = self.steps
        if steps:
            p0, pdt, pbusy = steps[-1]
            if pbusy == busy and abs(p0 + pdt - t0) <= 1e-9:
                steps[-1] = (p0, pdt + dt, busy)
                return
        steps.append((t0, dt, busy))

    def _stretch(self, s, l_pp, l_cont, l_mig, l_th) -> None:
        """Attribute per-thread stretch losses ``s`` to the multiplicative
        slowdown factors by their log weights."""
        lslow = l_pp + l_cont + l_mig + l_th
        wgt = np.divide(
            s, lslow, out=np.zeros_like(s), where=lslow > 1e-300
        )
        self.st_abstraction += float((wgt * l_pp).sum())
        self.st_contention += float((wgt * l_cont).sum())
        self.st_migration += float((wgt * l_mig).sum())
        self.st_thrash += float((wgt * l_th).sum())

    def on_step_single(
        self, t0, dt, n_run, rec, run_idx, rate, cont, pp
    ) -> None:
        """Engine hook after one single-group accounting step of length
        ``dt`` starting at ``t0`` (before the clock advances).

        ``run_idx`` holds the runnable tids in ascending order and
        ``rate``, ``cont`` and ``pp`` (platform penalty) are aligned
        with it, so the stretch sums add in tid order."""
        sim = self._sim
        (cfac, mig, num, busy, ev_coeff, u_coeff, s_coeff, b_coeff,
         migfac, ts_f, share, w_coeff) = rec
        ev = ev_coeff * dt
        self.granted_total += busy * dt
        self.sched_wait_total += w_coeff * dt
        self.progress += float(rate.sum()) * dt
        self.eff_granted += num * n_run * dt
        self.raw_cgroup += s_coeff * dt + ev * sim._cgsw0
        self.raw_ctx += ev * sim._ctx_cost
        self.raw_background += b_coeff * dt
        s = (num - rate) * dt
        self._stretch(
            s,
            np.log(pp),
            np.log(cont),
            math.log(mig),
            math.log(sim._thrash0),
        )
        self.granted[run_idx] += share * dt
        self.run_wait[run_idx] += (1.0 - share) * dt
        self._push_step(t0, dt, busy)

    def on_step_multi(
        self, t0, dt, n_run, rec, run_idx, rate, cont, pp, groups_run,
        thread_share,
    ) -> None:
        """Engine hook after one multi-group accounting step; the
        per-thread arrays are aligned with the ascending tids
        ``run_idx``, and ``thread_share`` is the water-filled per-thread
        share array on the weighted path, ``None`` on the uniform
        path."""
        sim = self._sim
        (cfac, mig_g, num_g, eff_g, host_scale, busy_g, ev_coeff_g,
         busy_sum, u_sum, s_sum, b_sum, migfac_g, ts_items,
         share_g, w_sum) = rec
        events_g = ev_coeff_g * dt
        if thread_share is None:
            share_t = share_g[groups_run]
            num_t = num_g[groups_run]
            granted_step = busy_sum * dt
            wait_step = w_sum * dt
        else:
            # weighted path: account the water-filled shares actually
            # granted, not the uniform-share busy coefficient
            share_t = thread_share
            num_t = thread_share * eff_g[groups_run]
            sh_sum = float(thread_share.sum())
            granted_step = sh_sum * dt
            wait_step = (n_run - sh_sum) * dt
        self.granted_total += granted_step
        self.sched_wait_total += wait_step
        self.progress += float(rate.sum()) * dt
        self.eff_granted += float(num_t.sum()) * dt
        self.raw_cgroup += s_sum * dt + float(
            (events_g * sim._g_cgroup_switch).sum()
        )
        self.raw_ctx += float(events_g.sum()) * sim._ctx_cost
        self.raw_background += b_sum * dt
        s = (num_t - rate) * dt
        self._stretch(
            s,
            np.log(pp),
            np.log(cont),
            np.log(mig_g)[groups_run],
            np.log(sim._g_thrash)[groups_run],
        )
        self.granted[run_idx] += share_t * dt
        self.run_wait[run_idx] += (1.0 - share_t) * dt
        self._push_step(
            t0, dt, busy_sum if thread_share is None else sh_sum
        )

    # ------------------------------------------------------------------
    # finalization

    def profile(self) -> SchedProfile:
        """Finalize the recording into a :class:`SchedProfile`.

        Call after :meth:`Simulator.run` returned; raises if the run did
        not complete (open intervals remain).
        """
        sim = self._sim
        if sim is None:
            raise SimulationError("profiler was never attached to a run")
        if any(iv is not None for iv in self._open):
            raise SimulationError(
                "profiler finalized before the run completed"
            )
        c = sim._compiled
        # IRQ re-warm work retired into compute bursts: everything the
        # IO segments charged minus what a trailing IO left unretired
        rewarm = float(c.io_extra.sum()) - float(sim.pending_extra.sum())
        finish = np.array(sim.finish, dtype=float)
        ledger = {
            "granted": self.granted_total,
            "sched_wait": self.sched_wait_total,
            "progress": self.progress,
            "eff_granted": self.eff_granted,
            "raw_cgroup": self.raw_cgroup,
            "raw_ctx": self.raw_ctx,
            "raw_background": self.raw_background,
            "abstraction_stretch": self.st_abstraction,
            "contention_stretch": self.st_contention,
            "migration_stretch": self.st_migration,
            "thrash_stretch": self.st_thrash,
            "irq_rewarm": rewarm,
            "io_blocked": float(self.io_blocked.sum()),
            "comm_blocked": float(self.comm_blocked.sum()),
            "barrier_blocked": float(self.barrier_blocked.sum()),
            "lifetime": float((finish - self.arrival).sum()),
        }
        t_end = float(np.nanmax(finish)) if finish.size else 0.0
        return SchedProfile(
            n_threads=self.n_threads,
            n_groups=sim.n_groups,
            t_end=t_end,
            group_of=[int(g) for g in sim.group_of],
            arrival=self.arrival,
            finish=finish,
            granted=self.granted,
            run_wait=self.run_wait,
            io_blocked=self.io_blocked,
            comm_blocked=self.comm_blocked,
            barrier_blocked=self.barrier_blocked,
            intervals=self.intervals,
            steps=self.steps,
            ledger=ledger,
        )
