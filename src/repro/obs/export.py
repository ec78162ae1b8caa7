"""Trace export: Chrome trace-event JSON, folded stacks, Prometheus text.

Two span sources feed the exporters:

* **campaign journals** — cell spans on worker tracks, plus instant
  markers for retries and pool rebuilds (the view that shows where a
  campaign's wall-clock went);
* **simulator traces** — a :class:`~repro.trace.timeline.Timeline` of
  per-thread activity intervals and an
  :class:`~repro.trace.offcputime.OffCpuReport` of time attribution
  (the view behind the paper's Section-IV root-cause analysis).

The Chrome output loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``; the folded output feeds Brendan Gregg's
``flamegraph.pl`` or :mod:`repro.viz.flamegraph`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import JournalEvent
from repro.obs.metrics import CELL_SECONDS_BUCKETS, MetricsRegistry
from repro.obs.summary import summarize_journal
from repro.trace.offcputime import OffCpuReport
from repro.trace.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ledger import OverheadLedger
    from repro.trace.schedprof import SchedProfile

__all__ = [
    "journal_to_chrome",
    "journal_to_folded",
    "journal_to_metrics",
    "journal_to_prometheus",
    "timeline_to_chrome",
    "timeline_to_folded",
    "offcpu_to_folded",
    "schedprof_to_chrome",
    "schedprof_to_folded",
    "ledger_to_folded",
]

_US = 1_000_000  # Chrome trace timestamps are in microseconds


def _frame(name: str) -> str:
    """A folded-stack-safe frame name (no separators or blanks)."""
    return name.replace(";", ",").replace(" ", "_") or "(anonymous)"


def _meta(pid: int, name: str, tid: int | None = None) -> dict:
    event = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": 0 if tid is None else tid,
        "ts": 0,
        "args": {"name": name},
    }
    return event


def journal_to_chrome(events: list[JournalEvent]) -> dict:
    """Convert a run journal into a Chrome trace-event document.

    Cell executions become complete (``"X"``) spans on one track per
    worker; retries, failures, replayed cells, and pool rebuilds become
    instant (``"i"``) markers on the track they belong to.
    """
    t0 = min((e.ts for e in events), default=0.0)
    workers: dict[str, int] = {}

    def tid(worker: str) -> int:
        key = worker or "(coordinator)"
        if key not in workers:
            workers[key] = len(workers) + 1
        return workers[key]

    trace_events: list[dict] = []
    for e in events:
        if e.kind == "cell-finished":
            start = float(e.extra.get("started", e.ts - e.duration))
            trace_events.append(
                {
                    "name": e.label,
                    "cat": "cell",
                    "ph": "X",
                    "ts": max(0.0, (start - t0) * _US),
                    "dur": e.duration * _US,
                    "pid": 1,
                    "tid": tid(e.worker),
                    "args": {"attempt": e.attempt, "worker": e.worker},
                }
            )
        elif e.kind in (
            "cell-retried",
            "cell-failed",
            "cell-cache-hit",
            "cell-resumed",
            "checkpoint-corrupt",
            "fault-injected",
            "pool-rebuilt",
        ):
            trace_events.append(
                {
                    "name": f"{e.kind}: {e.label}" if e.label else e.kind,
                    "cat": "lifecycle",
                    "ph": "i",
                    "s": "p",
                    "ts": max(0.0, (e.ts - t0) * _US),
                    "pid": 1,
                    "tid": tid(e.worker),
                    "args": {"detail": e.detail, "attempt": e.attempt},
                }
            )
        elif e.kind in ("campaign-started", "campaign-finished",
                        "sweep-started", "sweep-finished",
                        "run-started", "run-finished"):
            trace_events.append(
                {
                    "name": f"{e.kind}: {e.label}" if e.label else e.kind,
                    "cat": "phase",
                    "ph": "i",
                    "s": "g",
                    "ts": max(0.0, (e.ts - t0) * _US),
                    "pid": 1,
                    "tid": 0,
                    "args": {"detail": e.detail},
                }
            )
    meta = [_meta(1, "campaign")]
    meta += [_meta(1, name, t) for name, t in sorted(workers.items(), key=lambda kv: kv[1])]
    return {"traceEvents": meta + trace_events, "displayTimeUnit": "ms"}


def journal_to_folded(events: list[JournalEvent]) -> list[str]:
    """Folded stacks of campaign wall-clock: ``campaign;worker;cell us``.

    Cell durations are attributed to the worker that ran them, in
    microseconds (flamegraph sample counts must be integers).
    """
    weights: dict[tuple[str, str], float] = {}
    for e in events:
        if e.kind != "cell-finished":
            continue
        key = (_frame(e.worker or "(coordinator)"), _frame(e.label))
        weights[key] = weights.get(key, 0.0) + e.duration
    return [
        f"campaign;{worker};{label} {int(round(seconds * _US))}"
        for (worker, label), seconds in sorted(weights.items())
    ]


def journal_to_metrics(events: list[JournalEvent]) -> MetricsRegistry:
    """Rebuild the campaign metrics registry from a recorded journal."""
    registry = MetricsRegistry()
    summary = summarize_journal(events)
    registry.counter(
        "repro_cells_completed_total", "campaign cells resolved (run or cached)"
    ).value = float(summary.n_cells)
    registry.counter(
        "repro_cells_resumed_total", "cells replayed from resume checkpoints"
    ).value = float(summary.n_resumed)
    registry.counter(
        "repro_cell_retries_total", "cell attempts that failed and were retried"
    ).value = float(summary.retries_total)
    registry.counter(
        "repro_cell_failures_total", "cells that failed permanently"
    ).value = float(summary.failures_total)
    registry.counter(
        "repro_pool_rebuilds_total", "worker-pool rebuilds after breakage"
    ).value = float(summary.pool_rebuilds)
    registry.counter(
        "repro_sim_sched_events_total", "simulator scheduling events"
    ).value = float(summary.sched_events_total)
    registry.counter(
        "repro_sim_migrations_total", "expected simulator thread migrations"
    ).value = float(sum(c.migrations for c in summary.cells.values()))
    registry.gauge(
        "repro_sim_events_per_second", "scheduling events per wall-clock second"
    ).set(summary.events_per_second)
    registry.gauge(
        "repro_campaign_wall_seconds", "journal span in seconds"
    ).set(summary.wall_seconds)
    hist = registry.histogram(
        "repro_cell_seconds", CELL_SECONDS_BUCKETS, "cell wall time"
    )
    for cell in summary.cells.values():
        if not cell.resumed:
            hist.observe(cell.duration)
    for stream, name, help_text in (
        ("op", "repro_sim_op_response_seconds",
         "simulated per-operation response time"),
        ("cell", "repro_sim_makespan_seconds",
         "simulated per-repetition wall time"),
    ):
        sketches = [
            d[stream] for d in summary.dists.values()
            if stream in d and d[stream].count
        ]
        for sk in sketches:
            registry.summary(name, help_text).merge_sketch(sk)
    return registry


def journal_to_prometheus(events: list[JournalEvent]) -> str:
    """Prometheus text exposition of a recorded journal's metrics."""
    return journal_to_metrics(events).to_prometheus()


def timeline_to_chrome(timeline: Timeline, *, pid: int = 2, name: str = "simulator") -> dict:
    """Convert a simulator :class:`Timeline` into Chrome trace events.

    Each simulated thread becomes a track; its activity intervals
    (run / io / comm / barrier) become complete spans.  Simulation
    seconds are mapped to trace microseconds.
    """
    trace_events: list[dict] = [_meta(pid, name)]
    threads = sorted({iv.thread for iv in timeline.intervals})
    for t in threads:
        trace_events.append(_meta(pid, f"T{t}", t + 1))
    for iv in timeline.intervals:
        trace_events.append(
            {
                "name": iv.activity,
                "cat": "sim",
                "ph": "X",
                "ts": iv.start * _US,
                "dur": iv.duration * _US,
                "pid": pid,
                "tid": iv.thread + 1,
                "args": {"thread": iv.thread},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def timeline_to_folded(timeline: Timeline) -> list[str]:
    """Folded stacks of simulated thread time: ``sim;T<i>;activity us``."""
    weights: dict[tuple[int, str], float] = {}
    for iv in timeline.intervals:
        key = (iv.thread, _frame(iv.activity))
        weights[key] = weights.get(key, 0.0) + iv.duration
    return [
        f"sim;T{thread};{activity} {int(round(seconds * _US))}"
        for (thread, activity), seconds in sorted(weights.items())
    ]


def schedprof_to_chrome(
    profile: "SchedProfile", *, pid: int = 3, name: str = "schedprof"
) -> dict:
    """Convert a scheduler profile into Chrome trace events.

    Per-thread state intervals (run / io / comm / barrier) become
    complete spans on one track per thread, and the busy-core step
    series becomes a ``"C"`` counter track — the ``perf sched map``
    view as a Perfetto area chart.
    """
    trace_events: list[dict] = [_meta(pid, name)]
    for j in range(profile.n_threads):
        trace_events.append(_meta(pid, f"T{j}", j + 1))
    for t0, t1, state, j in profile.intervals:
        trace_events.append(
            {
                "name": state,
                "cat": "sched",
                "ph": "X",
                "ts": t0 * _US,
                "dur": (t1 - t0) * _US,
                "pid": pid,
                "tid": j + 1,
                "args": {"thread": j, "group": profile.group_of[j]},
            }
        )
    for t0, dt, busy in profile.steps:
        trace_events.append(
            {
                "name": "busy_cores",
                "cat": "sched",
                "ph": "C",
                "ts": t0 * _US,
                "pid": pid,
                "tid": 0,
                "args": {"busy": busy},
            }
        )
    if profile.steps:
        t0, dt, _ = profile.steps[-1]
        trace_events.append(
            {
                "name": "busy_cores",
                "cat": "sched",
                "ph": "C",
                "ts": (t0 + dt) * _US,
                "pid": pid,
                "tid": 0,
                "args": {"busy": 0.0},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def schedprof_to_folded(profile: "SchedProfile") -> list[str]:
    """Folded stacks of profiled thread time.

    Each thread's seconds split into on-CPU (granted), runnable-wait,
    and the blocked causes: ``sched;g<g>;T<i>;<state> us``.
    """
    rows: list[str] = []
    for h in profile.thread_hist():
        base = f"sched;g{h.group};T{h.thread}"
        for state, seconds in (
            ("run", h.granted),
            ("runnable_wait", h.run_wait),
            ("io", h.io_blocked),
            ("comm", h.comm_blocked),
            ("barrier", h.barrier_blocked),
        ):
            if seconds > 0:
                rows.append(f"{base};{state} {int(round(seconds * _US))}")
    return rows


def ledger_to_folded(ledger: "OverheadLedger", root: str = "run") -> list[str]:
    """Folded stacks of an overhead ledger: ``run;mechanism;component us``.

    The flamegraph form of the additive decomposition — frame widths
    *are* booked core-seconds, so the picture conserves by construction.
    """
    from repro.analysis.ledger import MECHANISM_OF

    root = _frame(root)
    return [
        f"{root};{_frame(MECHANISM_OF[name])};{_frame(name)} "
        f"{int(round(seconds * _US))}"
        for name, seconds in sorted(ledger.components.items())
        if seconds > 0
    ]


def offcpu_to_folded(report: OffCpuReport, root: str = "run") -> list[str]:
    """Folded stacks of one run's time attribution (on-CPU vs off-CPU).

    Mirrors the BCC ``offcputime`` view: off-CPU thread-seconds by
    blocking cause, on-CPU core-seconds split into useful work and the
    four overhead channels.  Weights are microseconds.
    """
    root = _frame(root)
    rows = [
        (f"{root};oncpu;useful", report.useful_cpu),
        (f"{root};oncpu;overhead;cgroup", report.cgroup_overhead),
        (f"{root};oncpu;overhead;ctx_switch", report.ctx_switch_overhead),
        (f"{root};oncpu;overhead;migration", report.migration_overhead),
        (f"{root};oncpu;overhead;background", report.background_overhead),
        (f"{root};offcpu;io_wait", report.io_wait),
        (f"{root};offcpu;comm_wait", report.comm_wait),
        (f"{root};offcpu;barrier_wait", report.barrier_wait),
    ]
    return [
        f"{stack} {int(round(seconds * _US))}"
        for stack, seconds in rows
        if seconds > 0
    ]
