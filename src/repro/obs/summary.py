"""Reconstruct a campaign summary from a recorded run journal.

The journal is a flat event stream; :func:`summarize_journal` folds it
back into the questions an operator actually asks after a campaign:
which cells dominated wall-clock, what got retried, how many cells were
replayed from checkpoints, how evenly the pool workers were loaded, and
what bounds further speedup (the critical path — the busiest worker's
total cell time, which no amount of extra workers can shrink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.obs.events import EVENT_KINDS, JournalEvent
from repro.obs.sketch import QuantileSketch

__all__ = ["CellRecord", "RunSummary", "ShardRecord", "summarize_journal"]

#: Percentiles reported for recorded latency distributions.
DIST_PERCENTILES: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)


def _busy_fraction(busy: float, span: float) -> float:
    """``busy / span`` with degenerate windows pinned to 0.0.

    A zero-length journal span (a cached-only campaign whose events all
    share one timestamp) or a non-finite endpoint (an ``inf`` duration
    passes schema validation) would otherwise surface as ``inf`` / NaN
    utilization in ``obs summary``.
    """
    if span <= 0 or not math.isfinite(span) or not math.isfinite(busy):
        return 0.0
    return busy / span


def _pct_label(q: float) -> str:
    """``0.999 -> "p999"`` (the conventional tail-percentile spelling)."""
    return "p" + f"{q * 100:g}".replace(".", "")


@dataclass
class CellRecord:
    """Everything the journal recorded about one cell.

    ``label`` is display text only: cells are identified by their store
    key (:attr:`~repro.obs.events.JournalEvent.cell`), and several cells
    may share a label.
    """

    label: str
    duration: float = 0.0
    worker: str = ""
    attempts: int = 0
    retries: int = 0
    resumed: bool = False
    failed: bool = False
    runs: int = 0
    sched_events: float = 0.0
    migrations: float = 0.0
    #: core-seconds per overhead-ledger mechanism (``cell-ledger`` events)
    mechanisms: dict[str, float] = field(default_factory=dict)
    ledger_total: float = 0.0

    @property
    def dominant_mechanism(self) -> str:
        """The mechanism with the most booked overhead core-seconds
        (excluding useful work), or ``""`` without ledger data."""
        overhead = {
            m: v for m, v in self.mechanisms.items() if m != "useful-work"
        }
        if not overhead:
            return ""
        return max(overhead, key=lambda m: overhead[m])


@dataclass
class ShardRecord:
    """Everything the journal recorded about one fabric shard.

    Fabric workers journal ``shard-started`` / ``shard-finished`` per
    shard generation, ``shard-lost`` when a heartbeat discovers the
    lease was stolen, and ``shard-reclaimed`` when a worker steals a
    stale lease — so a merged campaign journal carries the full custody
    history of every shard.  ``executed`` counts the ``cell-finished``
    events between a shard's ``shard-started`` and its end (a merged
    journal is in shard order); cells replayed from checkpoints are not
    among them.
    """

    label: str
    worker: str = ""
    generation: int = 0
    cells: int = 0
    executed: int = 0
    duration: float = 0.0
    started: int = 0
    lost: int = 0
    reclaimed: int = 0
    finished: bool = False

    @property
    def state(self) -> str:
        """``done`` / ``lost`` / ``running`` for display."""
        if self.finished:
            return "done"
        if self.lost and self.started <= self.lost:
            return "lost"
        return "running"


@dataclass
class RunSummary:
    """Aggregate view of one recorded campaign.

    Attributes
    ----------
    wall_seconds:
        Journal span: last event timestamp minus first.
    cells:
        Per-cell records, keyed by the cell's store key (events without
        one — payloads that are not cell tasks — fall back to their
        label).  Distinct cells sharing a label, like fig. 7's per-host
        copies, stay distinct.
    worker_busy:
        Busy seconds per worker (sum of its cells' durations).
    retries_total / failures_total:
        Retried and permanently failed attempts across the campaign.
    dists:
        Merged latency sketches from ``cell-dist`` events, keyed by
        platform label then stream name (``op``, ``cell``, ``io_wait``,
        ...).  Empty unless the campaign ran with distribution
        recording.
    unknown_events:
        Tally of event kinds not in this release's schema — journals
        written by newer writers summarize instead of crashing.
    """

    wall_seconds: float
    cells: dict[str, CellRecord] = field(default_factory=dict)
    worker_busy: dict[str, float] = field(default_factory=dict)
    retries_total: int = 0
    failures_total: int = 0
    pool_rebuilds: int = 0
    faults_injected: int = 0
    checkpoint_corrupt: int = 0
    dists: dict[str, dict[str, QuantileSketch]] = field(default_factory=dict)
    unknown_events: dict[str, int] = field(default_factory=dict)
    #: per-shard custody records from fabric campaigns (empty otherwise)
    shards: dict[str, ShardRecord] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        """Distinct cells the journal saw (executed or replayed)."""
        return len(self.cells)

    @property
    def n_resumed(self) -> int:
        """Cells replayed from checkpoints without execution."""
        return sum(1 for c in self.cells.values() if c.resumed)

    @property
    def n_executed(self) -> int:
        """Cells that actually ran."""
        return self.n_cells - self.n_resumed

    @property
    def sched_events_total(self) -> float:
        """Simulator scheduling events across all executed cells."""
        return sum(c.sched_events for c in self.cells.values())

    @property
    def events_per_second(self) -> float:
        """Simulator scheduling events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sched_events_total / self.wall_seconds

    @property
    def critical_path_seconds(self) -> float:
        """Busy time of the most loaded worker — the wall-clock floor
        this cell placement cannot beat with more workers."""
        return max(self.worker_busy.values(), default=0.0)

    def slowest_cells(self, n: int = 5) -> list[CellRecord]:
        """The ``n`` longest-running cells, slowest first."""
        executed = [c for c in self.cells.values() if not c.resumed]
        return sorted(executed, key=lambda c: -c.duration)[:n]

    def dist_percentiles(
        self,
        stream: str = "op",
        percentiles: tuple[float, ...] = DIST_PERCENTILES,
    ) -> dict[str, dict[float, float]]:
        """Tail percentiles of one latency stream, per platform label.

        Platforms whose merged ``stream`` sketch is empty (or absent)
        are omitted; an empty dict means the campaign recorded no
        distributions for this stream.
        """
        out: dict[str, dict[float, float]] = {}
        for platform in sorted(self.dists):
            sk = self.dists[platform].get(stream)
            if sk is None or not sk.count:
                continue
            out[platform] = {q: sk.quantile(q) for q in percentiles}
        return out

    def worker_utilization(self) -> dict[str, float]:
        """Busy fraction of the journal span, per worker (0.0 for
        zero-length or non-finite spans)."""
        return {
            w: _busy_fraction(busy, self.wall_seconds)
            for w, busy in sorted(self.worker_busy.items())
        }

    @property
    def shard_reclaims(self) -> int:
        """Lease steals across all shards (reclaimed-lease replays)."""
        return sum(s.reclaimed for s in self.shards.values())

    def shard_utilization(self) -> dict[str, float]:
        """Busy fraction of the journal span, per fabric shard (0.0 for
        zero-length or non-finite spans, e.g. instant cached-only
        shards)."""
        return {
            label: _busy_fraction(s.duration, self.wall_seconds)
            for label, s in sorted(self.shards.items())
        }

    def render(self, top: int = 5) -> str:
        """Human-readable summary block for the ``obs summary`` CLI."""
        lines = [
            f"cells        : {self.n_cells} "
            f"({self.n_executed} executed, {self.n_resumed} replayed from "
            "checkpoints)",
            f"wall clock   : {self.wall_seconds:.3f} s",
            f"retries      : {self.retries_total}"
            + (f"  failures: {self.failures_total}" if self.failures_total else ""),
        ]
        if self.pool_rebuilds:
            lines.append(f"pool rebuilds: {self.pool_rebuilds}")
        if self.faults_injected or self.checkpoint_corrupt:
            lines.append(
                f"faults       : {self.faults_injected} injected, "
                f"{self.checkpoint_corrupt} corrupt checkpoints re-run"
            )
        if self.sched_events_total:
            lines.append(
                f"sim events   : {self.sched_events_total:.0f} "
                f"({self.events_per_second:,.0f}/s)"
            )
        util = self.worker_utilization()
        if util:
            lines.append(
                f"critical path: {self.critical_path_seconds:.3f} s busiest worker"
            )
            lines.append("workers      :")
            for w, u in util.items():
                busy = self.worker_busy[w]
                lines.append(f"  {w:<12s} busy {busy:8.3f} s  utilization {u:6.1%}")
        if self.shards:
            reclaims = (
                f"  ({self.shard_reclaims} lease reclaim(s))"
                if self.shard_reclaims
                else ""
            )
            lines.append(f"shards       : {len(self.shards)}{reclaims}")
            shard_util = self.shard_utilization()
            for label, s in sorted(self.shards.items()):
                notes = ""
                if s.reclaimed:
                    notes += f"  reclaimed x{s.reclaimed}"
                if s.lost:
                    notes += f"  lost x{s.lost}"
                lines.append(
                    f"  {label:<12s} g{s.generation} {s.worker:<10s} "
                    f"{s.cells:>4d} cells  {s.state:<7s} "
                    f"busy {s.duration:8.3f} s  utilization "
                    f"{shard_util[label]:6.1%}{notes}"
                )
        slow = self.slowest_cells(top)
        if slow:
            lines.append(f"slowest cells (top {len(slow)}):")
            for c in slow:
                note = f"  ({c.retries} retries)" if c.retries else ""
                lines.append(f"  {c.duration:8.3f} s  {c.label}{note}")
        ledgered = [c for c in self.cells.values() if c.mechanisms]
        if ledgered:
            lines.append("dominant overhead mechanism per cell:")
            for c in sorted(ledgered, key=lambda c: c.label):
                mech = c.dominant_mechanism
                share = (
                    c.mechanisms.get(mech, 0.0) / c.ledger_total
                    if c.ledger_total > 0
                    else 0.0
                )
                lines.append(
                    f"  {c.label:<40s} {mech:<18s} "
                    f"{share:6.1%} of {c.ledger_total:10.3f} core-s"
                )
        # makespan-only workloads record no per-operation responses, so
        # fall back to the per-repetition makespan stream
        stream = "op"
        pct = self.dist_percentiles(stream)
        if not pct:
            stream = "cell"
            pct = self.dist_percentiles(stream)
        if pct:
            lines.append(
                f"{stream} latency percentiles (simulated s) per platform:"
            )
            for platform, qs in pct.items():
                cols = "  ".join(
                    f"{_pct_label(q)} {v:.6f}" for q, v in qs.items()
                )
                lines.append(f"  {platform:<16s} {cols}")
        if self.unknown_events:
            kinds = ", ".join(
                f"{k} x{n}" for k, n in sorted(self.unknown_events.items())
            )
            lines.append(
                f"unknown events: {sum(self.unknown_events.values())} "
                f"from newer schema kinds ({kinds})"
            )
        return "\n".join(lines)


def summarize_journal(events: list[JournalEvent]) -> RunSummary:
    """Fold a journal's event stream into a :class:`RunSummary`."""
    if not events:
        raise AnalysisError("cannot summarize an empty journal")
    first = min(e.ts for e in events)
    last = max(e.ts + e.duration for e in events)
    summary = RunSummary(wall_seconds=max(0.0, last - first))

    def cell(e: JournalEvent) -> CellRecord:
        key = e.cell or e.label
        rec = summary.cells.get(key)
        if rec is None:
            rec = summary.cells[key] = CellRecord(label=e.label)
        return rec

    def shard(label: str) -> ShardRecord:
        rec = summary.shards.get(label)
        if rec is None:
            rec = summary.shards[label] = ShardRecord(label=label)
        return rec

    current: ShardRecord | None = None  # the shard whose events these are
    for e in events:
        if e.kind == "cell-finished":
            if current is not None:
                current.executed += 1
            rec = cell(e)
            rec.duration += e.duration
            rec.worker = e.worker or rec.worker
            rec.attempts += max(1, e.attempt)
            rec.runs += int(e.extra.get("runs", 0))
            rec.sched_events += float(e.extra.get("sched_events", 0.0))
            rec.migrations += float(e.extra.get("migrations", 0.0))
            worker = e.worker or "(unknown)"
            summary.worker_busy[worker] = (
                summary.worker_busy.get(worker, 0.0) + e.duration
            )
        elif e.kind == "cell-ledger":
            rec = cell(e)
            rec.ledger_total += float(e.extra.get("total_core_seconds", 0.0))
            for mech, v in e.extra.get("mechanisms", {}).items():
                rec.mechanisms[mech] = rec.mechanisms.get(mech, 0.0) + float(v)
        elif e.kind == "cell-resumed":
            cell(e).resumed = True
        elif e.kind == "fault-injected":
            summary.faults_injected += 1
        elif e.kind == "checkpoint-corrupt":
            summary.checkpoint_corrupt += 1
        elif e.kind == "cell-retried":
            cell(e).retries += 1
            summary.retries_total += 1
        elif e.kind == "cell-failed":
            cell(e).failed = True
            summary.failures_total += 1
        elif e.kind == "pool-rebuilt":
            summary.pool_rebuilds += 1
        elif e.kind == "shard-started":
            rec = current = shard(e.label)
            rec.started += 1
            rec.worker = e.worker or rec.worker
            rec.generation = max(
                rec.generation, int(e.extra.get("generation", 0))
            )
            rec.cells = int(e.extra.get("cells", rec.cells))
        elif e.kind == "shard-finished":
            rec = shard(e.label)
            current = None
            rec.finished = True
            rec.worker = e.worker or rec.worker
            rec.duration += e.duration
            rec.generation = max(
                rec.generation, int(e.extra.get("generation", 0))
            )
        elif e.kind == "shard-lost":
            shard(e.label).lost += 1
            current = None
        elif e.kind == "shard-reclaimed":
            rec = shard(e.label)
            rec.reclaimed += 1
            rec.generation = max(
                rec.generation, int(e.extra.get("generation", 0))
            )
        elif e.kind == "cell-dist":
            platform = str(e.extra.get("platform", "")) or "(unknown)"
            streams = summary.dists.setdefault(platform, {})
            for name, state in e.extra.get("streams", {}).items():
                sk = QuantileSketch.from_dict(state)
                have = streams.get(name)
                streams[name] = sk if have is None else have.merge(sk)
        elif e.kind not in EVENT_KINDS:
            summary.unknown_events[e.kind] = (
                summary.unknown_events.get(e.kind, 0) + 1
            )
    return summary
