"""Hierarchical span tracing across campaign processes.

The engine already explains where *simulated* time goes; this module
does the same for the reproduction's own wall clock.  A campaign run —
serial or sharded across N fabric workers — emits a tree of spans::

    campaign
    └── shard-0002-g1            (fabric only)
        └── worker w1            (fabric only)
            └── cell attempt
                ├── phase compile
                ├── phase advance
                └── phase checkpoint

Spans ride inside the existing run journal as ``kind="span"`` events,
so every property of the journal (flush-per-event crash safety, resume
trimming, fabric per-shard files, ``merge_queue`` orphan handling)
applies to traces for free.  Identity is *deterministic*: a span id is
a hash of the trace id and the span's structural path, so the same
campaign plan traced twice — or traced by five independent worker
processes — produces ids that merge into one causal tree without any
cross-process coordination (:func:`merge_spans` is a plain associative
set union).

Every journal the CLI writes carries spans.  The trace id is derived,
never stored: ``report`` / ``loadcurve`` mint it from the campaign
(seed and experiments), a fabric fleet from the plan fingerprint in the
:class:`~repro.fabric.ShardQueue` manifest, which every worker and the
merge read — so a resumed run extends the same trace.

A Python-API :class:`~repro.run.parallel.ParallelRunner` records spans
only when given ``tracer=``; without one it holds :data:`NULL_TRACER`
and pays one attribute check per cell, and the engine-phase hook in
:func:`repro.run.execution.run_once` is a single module-global read
(:func:`active_tracer`) that only an *inline* open cell frame ever
sets — pool worker processes never pay for it.  Spans never feed back
into measured results, so reports are byte-identical with or without
a tracer.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.events import JournalEvent

__all__ = [
    "SPAN_KINDS",
    "TraceContext",
    "Span",
    "SpanNode",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "mint_trace_id",
    "span_id_for",
    "active_tracer",
    "spans_from_journal",
    "merge_spans",
    "build_tree",
    "canonical_tree",
    "render_span_tree",
    "spans_to_chrome",
    "validate_chrome_trace",
]

#: Every structural role a span may have in the campaign tree.
#: ``sweep`` is no longer emitted; journals written while campaigns ran
#: figure by figure hold it between the campaign and its cells.
SPAN_KINDS: frozenset[str] = frozenset(
    {"campaign", "sweep", "shard", "worker", "cell", "phase", "fault"}
)

_TRACE_HEX = 32
_SPAN_HEX = 16


def mint_trace_id(material: str) -> str:
    """Derive a 32-hex-digit trace id from identifying material.

    Deterministic by design: a fabric fleet mints from the plan
    fingerprint and ``report`` from the campaign, so re-running the
    same campaign yields the same trace id and re-run spans land in
    the same trace.
    """
    digest = hashlib.sha256(b"repro-trace:" + material.encode()).hexdigest()
    return digest[:_TRACE_HEX]


def span_id_for(trace_id: str, path: str) -> str:
    """Deterministic 16-hex span id for a structural path.

    The path encodes a span's position in the tree (e.g.
    ``campaign/cell:FFmpeg/pinned VM/Large@4``); hashing it with the
    trace id gives every process the same id for the same node, which
    is what makes :func:`merge_spans` a coordination-free union.
    """
    digest = hashlib.sha256(f"{trace_id}:{path}".encode()).hexdigest()
    return digest[:_SPAN_HEX]


def _check_hex(value: str, width: int, what: str) -> None:
    if len(value) != width or any(c not in "0123456789abcdef" for c in value):
        raise ConfigurationError(
            f"{what} must be {width} lowercase hex digits, got {value!r}"
        )


@dataclass(frozen=True)
class TraceContext:
    """Propagated identity of one campaign trace.

    Attributes
    ----------
    trace_id:
        32 lowercase hex digits naming the whole campaign trace.
    parent_id:
        Span id of the remote parent (the campaign root span when a
        worker process continues a coordinator's trace), or ``""`` for
        a root context.
    """

    trace_id: str
    parent_id: str = ""

    def __post_init__(self) -> None:
        """Validate the id fields."""
        _check_hex(self.trace_id, _TRACE_HEX, "trace id")
        if self.parent_id:
            _check_hex(self.parent_id, _SPAN_HEX, "parent span id")

    def traceparent(self) -> str:
        """W3C ``traceparent``-style header for this context."""
        parent = self.parent_id or "0" * _SPAN_HEX
        return f"00-{self.trace_id}-{parent}-01"

    @classmethod
    def parse(cls, header: str) -> "TraceContext":
        """Inverse of :meth:`traceparent`."""
        parts = header.split("-")
        if len(parts) != 4 or parts[0] != "00":
            raise ConfigurationError(f"malformed traceparent {header!r}")
        parent = "" if parts[2] == "0" * _SPAN_HEX else parts[2]
        return cls(trace_id=parts[1], parent_id=parent)


@dataclass(frozen=True)
class Span:
    """One completed span of a campaign trace.

    Attributes
    ----------
    trace_id / span_id / parent_id:
        Deterministic identity (see :func:`span_id_for`); a root span
        has ``parent_id == ""``.
    name:
        Human subject — cell label, sweep figure, phase name.
    kind:
        One of :data:`SPAN_KINDS`.
    start / duration:
        Wall-clock start (epoch seconds) and length (seconds).
    worker:
        Identity of the process that emitted the span.
    attrs:
        Structured payload: ``seq`` (child index under the parent,
        which makes sibling order timestamp-independent), ``attempt``
        for cells, ``shard`` / ``generation`` stamps on fabric spans
        (how :func:`merge_spans` excludes orphan generations).
    """

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    kind: str
    start: float
    duration: float
    worker: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Wall-clock end of the span."""
        return self.start + self.duration

    def to_event(self) -> JournalEvent:
        """Encode as a ``kind="span"`` journal event."""
        extra = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "span_kind": self.kind,
        }
        if self.attrs:
            extra["attrs"] = dict(self.attrs)
        return JournalEvent(
            ts=self.start,
            kind="span",
            label=self.name,
            worker=self.worker,
            duration=max(0.0, self.duration),
            extra=extra,
        )

    @classmethod
    def from_event(cls, event: JournalEvent) -> "Span":
        """Decode a ``kind="span"`` journal event."""
        if event.kind != "span":
            raise ConfigurationError(
                f"not a span event: kind={event.kind!r}"
            )
        extra = event.extra
        for key in ("trace", "span", "span_kind"):
            if key not in extra:
                raise ConfigurationError(
                    f"span event missing extra[{key!r}] (label={event.label!r})"
                )
        kind = extra["span_kind"]
        if kind not in SPAN_KINDS:
            raise ConfigurationError(f"unknown span kind {kind!r}")
        return cls(
            trace_id=extra["trace"],
            span_id=extra["span"],
            parent_id=extra.get("parent", ""),
            name=event.label,
            kind=kind,
            start=event.ts,
            duration=event.duration,
            worker=event.worker,
            attrs=dict(extra.get("attrs", {})),
        )


class _Frame:
    """One open span on a tracer's stack."""

    __slots__ = (
        "kind",
        "name",
        "path",
        "span_id",
        "parent_id",
        "start",
        "t0",
        "children",
        "attrs",
    )

    def __init__(self, kind, name, path, span_id, parent_id, attrs):
        self.kind = kind
        self.name = name
        self.path = path
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.t0 = time.perf_counter()
        self.children = 0
        self.attrs = attrs


#: Module-global phase sink: set only while an *inline* cell frame is
#: open, so `run_once` can attribute compile/advance phases to the cell
#: without threading a tracer through every engine call.  Pool worker
#: processes never set it — the off path is one global read.
_ACTIVE: "SpanTracer | None" = None


def active_tracer() -> "SpanTracer | None":
    """The tracer with an open inline cell frame, if any."""
    return _ACTIVE


class NullTracer:
    """Discards all spans (the default); the tracing-off no-op path."""

    __slots__ = ()

    enabled = False

    def push(self, kind: str, name: str, **attrs):
        """No frame to open."""
        return None

    def pop(self, frame, **attrs) -> None:
        """No frame to close."""

    @contextmanager
    def span(self, kind: str, name: str, **attrs):
        """No-op context manager."""
        yield None

    def begin_cell(self, label: str, *, attempt: int = 1, cell: str = ""):
        """No cell frame to open."""
        return None

    def end_cell(self, frame, *, failed: bool = False) -> None:
        """No cell frame to close."""

    def phase(self, name: str, start: float, duration: float, **attrs) -> None:
        """Discard the phase."""

    def emit_leaf(
        self,
        kind: str,
        name: str,
        *,
        start: float,
        duration: float,
        worker: str | None = None,
        **attrs,
    ) -> None:
        """Discard the leaf span."""

    def close(self) -> None:
        """Nothing to finalize."""


#: Shared no-op tracer; emitters compare against ``tracer.enabled``.
NULL_TRACER = NullTracer()


class SpanTracer:
    """Emits a tree of :class:`Span` records into a run journal.

    One tracer lives in one process and owns a stack of open frames.
    The root frame is the process's anchor in the campaign tree: the
    coordinator roots at ``campaign``; a fabric worker roots at
    ``shard-NNNN-gG`` (unique per shard *generation*, so a reclaimed
    shard's second attempt gets distinct span ids) with the campaign
    root as remote parent.

    Parameters
    ----------
    journal:
        Sink for the encoded span events.
    context:
        The propagated :class:`TraceContext`.
    worker:
        Process identity stamped on every emitted span.
    root_kind / root_name:
        Role and label of the root frame (default ``campaign``).
    root_path:
        Structural path of the root; defaults to ``root_kind``.  Fabric
        workers pass ``shard-NNNN-gG`` so ids are unique fleet-wide.
    root_parent:
        Span id of the remote parent; defaults to
        ``context.parent_id``.
    stamp:
        Attrs merged into *every* emitted span (fabric workers stamp
        ``shard`` / ``generation`` so :func:`merge_spans` can exclude
        orphan generations wholesale).
    """

    enabled = True

    def __init__(
        self,
        journal,
        context: TraceContext,
        *,
        worker: str = "",
        root_kind: str = "campaign",
        root_name: str = "campaign",
        root_path: str | None = None,
        root_parent: str | None = None,
        stamp: dict | None = None,
    ) -> None:
        self.journal = journal
        self.context = context
        self.worker = worker
        self.stamp = dict(stamp or {})
        path = root_kind if root_path is None else root_path
        parent = context.parent_id if root_parent is None else root_parent
        root = _Frame(
            root_kind,
            root_name,
            path,
            span_id_for(context.trace_id, path),
            parent,
            {"seq": 0},
        )
        self._stack: list[_Frame] = [root]
        self._closed = False

    @property
    def trace_id(self) -> str:
        """Trace id of the owning context."""
        return self.context.trace_id

    @property
    def root_id(self) -> str:
        """Span id of this tracer's root frame."""
        return self._stack[0].span_id

    def _child_identity(self, kind: str, name: str) -> tuple[int, str, str, str]:
        parent = self._stack[-1]
        seq = parent.children
        parent.children += 1
        path = f"{parent.path}/{kind}:{name}@{seq}"
        return seq, path, span_id_for(self.trace_id, path), parent.span_id

    def push(self, kind: str, name: str, **attrs) -> _Frame:
        """Open a child frame under the current top of the stack."""
        seq, path, span_id, parent_id = self._child_identity(kind, name)
        frame = _Frame(kind, name, path, span_id, parent_id, {"seq": seq, **attrs})
        self._stack.append(frame)
        return frame

    def pop(self, frame: _Frame, **attrs) -> None:
        """Close ``frame`` (which must be the top of the stack) and emit it."""
        top = self._stack.pop()
        if top is not frame:  # pragma: no cover - programming error
            raise ConfigurationError(
                f"span stack corrupted: popping {frame.name!r}, top is {top.name!r}"
            )
        if attrs:
            frame.attrs.update(attrs)
        self._emit_frame(frame)

    @contextmanager
    def span(self, kind: str, name: str, **attrs):
        """Context manager pairing :meth:`push` / :meth:`pop`."""
        frame = self.push(kind, name, **attrs)
        try:
            yield frame
        finally:
            self.pop(frame)

    def begin_cell(
        self, label: str, *, attempt: int = 1, cell: str = ""
    ) -> _Frame:
        """Open an inline cell-attempt frame and arm the phase sink.

        ``cell`` is the cell's store key, stamped on the span so two
        cells sharing a label stay apart.  While the frame is open,
        :func:`active_tracer` returns this tracer so
        :func:`repro.run.execution.run_once` can emit compile/advance
        phase spans under the cell.
        """
        global _ACTIVE
        frame = self.push("cell", label, attempt=attempt, cell=cell)
        _ACTIVE = self
        return frame

    def end_cell(self, frame: _Frame, *, failed: bool = False) -> None:
        """Close an inline cell-attempt frame and disarm the phase sink."""
        global _ACTIVE
        _ACTIVE = None
        if failed:
            frame.attrs["failed"] = True
        self.pop(frame)

    def phase(self, name: str, start: float, duration: float, **attrs) -> None:
        """Emit one engine-phase leaf under the current frame."""
        self.emit_leaf("phase", name, start=start, duration=duration, **attrs)

    def emit_leaf(
        self,
        kind: str,
        name: str,
        *,
        start: float,
        duration: float,
        worker: str | None = None,
        **attrs,
    ) -> None:
        """Emit a completed child span without opening a frame.

        Used for spans whose timing was observed elsewhere: pool cells
        (timed inside the worker process), engine phases, and injected
        fault markers.
        """
        seq, _path, span_id, parent_id = self._child_identity(kind, name)
        self._emit(
            Span(
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                kind=kind,
                start=start,
                duration=duration,
                worker=self.worker if worker is None else worker,
                attrs={**self.stamp, "seq": seq, **attrs},
            )
        )

    def _emit_frame(self, frame: _Frame) -> None:
        self._emit(
            Span(
                trace_id=self.trace_id,
                span_id=frame.span_id,
                parent_id=frame.parent_id,
                name=frame.name,
                kind=frame.kind,
                start=frame.start,
                duration=time.perf_counter() - frame.t0,
                worker=self.worker,
                attrs={**self.stamp, **frame.attrs},
            )
        )

    def _emit(self, span: Span) -> None:
        self.journal.emit(span.to_event())

    def close(self) -> None:
        """Emit every still-open frame (root included); idempotent.

        On the clean path only the root frame remains; after a crash
        (lease lost, injected fault) the partial frames are emitted
        with the durations they reached, so the trace shows where the
        process died.
        """
        global _ACTIVE
        if self._closed:
            return
        self._closed = True
        if _ACTIVE is self:
            _ACTIVE = None
        while self._stack:
            self._emit_frame(self._stack.pop())


def spans_from_journal(events) -> list[Span]:
    """Decode every ``kind="span"`` event of a journal, in order."""
    return [Span.from_event(e) for e in events if e.kind == "span"]


def merge_spans(*groups, winning: dict[int, int] | None = None) -> list[Span]:
    """Merge span sets from independent processes into one trace.

    A plain union keyed by span id — associative and commutative, so
    per-shard journals can be folded in any order or grouping.  With
    ``winning`` (a ``{shard: generation}`` map, e.g.
    :meth:`repro.fabric.ShardQueue.done_map`), spans stamped with a
    non-winning generation are excluded — the same exactly-once rule
    :func:`repro.fabric.merge_queue` applies to orphan journals.

    Returns spans sorted by ``(start, span_id)``.
    """
    out: dict[str, Span] = {}
    for group in groups:
        for span in group:
            if winning is not None:
                shard = span.attrs.get("shard")
                generation = span.attrs.get("generation")
                if (
                    shard is not None
                    and generation is not None
                    and winning.get(shard) != generation
                ):
                    continue
            out.setdefault(span.span_id, span)
    return sorted(out.values(), key=lambda s: (s.start, s.span_id))


@dataclass
class SpanNode:
    """One node of a reassembled span tree."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)


def build_tree(spans) -> list[SpanNode]:
    """Reassemble spans into trees by parent id.

    Spans whose parent is absent from the set (e.g. fabric shard roots
    whose campaign parent lives in the coordinator) become roots.
    Roots and children are ordered by ``(start, span_id)``.
    """
    nodes = {s.span_id: SpanNode(s) for s in spans}
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.span.parent_id)
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    key = lambda n: (n.span.start, n.span.span_id)  # noqa: E731
    for node in nodes.values():
        node.children.sort(key=key)
    roots.sort(key=key)
    return roots


def canonical_tree(spans) -> tuple:
    """Structural fingerprint of a trace, modulo workers and timestamps.

    Contracts the infrastructure kinds (campaign, sweep, shard, worker)
    and returns the sorted tuple of cell subtrees, each rendered as
    ``(kind, name, attempt, children)`` with children ordered by their
    emission sequence (``attrs["seq"]``), not by wall clock.  A serial
    run and a one-worker fabric run of the same campaign are equal
    under this fingerprint — the acceptance property of the span model.
    """
    _INFRA = ("campaign", "sweep", "shard", "worker")

    def cells(node):
        if node.span.kind == "cell":
            return [node]
        found = []
        for child in node.children:
            found.extend(cells(child))
        return found

    def canon(node):
        kids = sorted(
            node.children, key=lambda n: (n.span.attrs.get("seq", 0), n.span.name)
        )
        return (
            node.span.kind,
            node.span.name,
            node.span.attrs.get("attempt", 0),
            tuple(canon(k) for k in kids),
        )

    roots = build_tree([s for s in spans if s.kind not in ("fault",)])
    cell_nodes = []
    for root in roots:
        if root.span.kind in _INFRA or root.span.kind == "cell":
            cell_nodes.extend(cells(root))
    return tuple(sorted(canon(c) for c in cell_nodes))


def render_span_tree(spans) -> str:
    """Human-readable indented rendering of a span set."""
    lines: list[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        span = node.span
        where = f"  [{span.worker}]" if span.worker else ""
        lines.append(
            f"{'  ' * depth}{span.kind:<8} {span.name}  "
            f"{span.duration * 1e3:.1f}ms{where}"
        )
        for child in node.children:
            walk(child, depth + 1)

    for root in build_tree(spans):
        walk(root, 0)
    return "\n".join(lines)


_US = 1_000_000

#: Journal events :func:`spans_to_chrome` draws as instant markers.
_MARKER_KINDS = frozenset(
    {"cell-failed", "cell-resumed", "checkpoint-corrupt", "pool-rebuilt"}
)


def spans_to_chrome(spans, events=()) -> dict:
    """Chrome trace-event JSON (Perfetto) for a merged span set.

    The one Chrome exporter of campaign journals (``repro obs export
    --format chrome`` and ``fabric merge --trace-out``).  Spans become
    ``"X"`` complete events, one track per emitting worker; fault spans
    become instants.  The optional journal ``events`` add the causal
    glue as flow arrows (``"s"``/``"f"`` pairs): lease reclaims/steals
    point from the losing worker's track to the winning shard span,
    cell retries point from the failed attempt to the next attempt of
    the same cell (matched by store key, so cells sharing a label stay
    apart), and batch fallbacks point from the abandoned group to its
    first scalar replay.  Failed, resumed and corrupt-checkpoint cells
    and pool rebuilds become instant markers.  Load the result in
    https://ui.perfetto.dev.
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    starts = [s.start for s in spans] + [e.ts for e in events]
    t0 = min(starts) if starts else 0.0

    def us(ts: float) -> float:
        return max(0.0, (ts - t0) * _US)

    workers = sorted({s.worker or "coordinator" for s in spans})
    tids = {w: i + 1 for i, w in enumerate(workers)}

    def tid_for(worker: str) -> int:
        name = worker or "coordinator"
        if name not in tids:
            tids[name] = len(tids) + 1
        return tids[name]

    out: list[dict] = []
    for span in spans:
        base = {
            "name": span.name,
            "cat": span.kind,
            "pid": 1,
            "tid": tid_for(span.worker),
            "ts": us(span.start),
            "args": {
                "span": span.span_id,
                "parent": span.parent_id,
                **span.attrs,
            },
        }
        if span.kind == "fault":
            out.append({**base, "ph": "i", "s": "t"})
        else:
            out.append({**base, "ph": "X", "dur": max(0.0, span.duration * _US)})

    # Flow arrows need a concrete target span; index cells by
    # (store key or label, attempt) and shards by (shard, generation).
    cell_by_attempt = {
        (s.attrs.get("cell") or s.name, s.attrs.get("attempt", 0)): s
        for s in spans
        if s.kind == "cell"
    }
    shard_spans = {
        (s.attrs.get("shard"), s.attrs.get("generation")): s
        for s in spans
        if s.kind == "shard"
    }
    first_cell_after: list[Span] = sorted(
        (s for s in spans if s.kind == "cell"), key=lambda s: s.start
    )

    def flow(flow_id, src_ts, src_tid, dst_ts, dst_tid, name):
        out.append(
            {
                "ph": "s",
                "id": flow_id,
                "name": name,
                "cat": "flow",
                "pid": 1,
                "tid": src_tid,
                "ts": us(src_ts),
            }
        )
        out.append(
            {
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "name": name,
                "cat": "flow",
                "pid": 1,
                "tid": dst_tid,
                "ts": us(max(dst_ts, src_ts)),
            }
        )

    for event in events:
        if event.kind == "shard-reclaimed":
            extra = event.extra
            target = shard_spans.get(
                (extra.get("shard"), extra.get("generation"))
            )
            src_tid = tid_for(extra.get("from_worker", ""))
            dst_ts = target.start if target is not None else event.ts
            dst_tid = tid_for(target.worker if target is not None else event.worker)
            flow(
                f"reclaim:{event.label}:g{extra.get('generation')}",
                event.ts,
                src_tid,
                dst_ts,
                dst_tid,
                f"reclaim {event.label}",
            )
        elif event.kind == "cell-retried":
            cell = event.cell or event.label
            target = cell_by_attempt.get((cell, event.attempt + 1))
            if target is not None:
                flow(
                    f"retry:{cell}:{event.attempt}",
                    event.ts,
                    tid_for(event.worker),
                    target.start,
                    tid_for(target.worker),
                    f"retry {event.label}",
                )
        elif event.kind == "batch-fallback":
            target = next(
                (s for s in first_cell_after if s.start >= event.ts), None
            )
            if target is not None:
                flow(
                    f"fallback:{event.label}",
                    event.ts,
                    tid_for(event.worker),
                    target.start,
                    tid_for(target.worker),
                    f"fallback {event.label}",
                )
        elif event.kind in _MARKER_KINDS:
            out.append(
                {
                    "name": f"{event.kind}: {event.label}",
                    "cat": "lifecycle",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid_for(event.worker),
                    "ts": us(event.ts),
                    "args": {
                        "cell": event.cell,
                        "attempt": event.attempt,
                        "detail": event.detail,
                    },
                }
            )

    meta = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "ts": 0,
            "name": "process_name",
            "args": {"name": "repro campaign"},
        }
    ]
    for name, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> dict:
    """Structural check of a Chrome trace-event document.

    Verifies the phase grammar this module emits (``X`` spans carry a
    non-negative ``dur``, every flow-finish ``f`` has a matching
    flow-start ``s``, metadata events are well-formed) and returns a
    census — ``{"spans": n, "instants": n, "flow_ids": [...]}`` — that
    CI uses to assert, e.g., that a chaos fleet's merged trace contains
    reclaim flow arrows.  Raises
    :class:`~repro.errors.ConfigurationError` on the first violation.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ConfigurationError("chrome trace must have a traceEvents list")
    spans = instants = 0
    flow_starts: set[str] = set()
    flow_ends: set[str] = set()
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in {"X", "i", "s", "f", "M", "C"}:
            raise ConfigurationError(f"traceEvents[{i}]: unknown phase {ph!r}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ConfigurationError(
                    f"traceEvents[{i}]: ts must be a number >= 0, got {ts!r}"
                )
        if ph == "X":
            spans += 1
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ConfigurationError(
                    f"traceEvents[{i}]: X event needs dur >= 0, got {dur!r}"
                )
            if not ev.get("name"):
                raise ConfigurationError(f"traceEvents[{i}]: X event needs a name")
        elif ph == "i":
            instants += 1
        elif ph in ("s", "f"):
            flow_id = ev.get("id")
            if not flow_id:
                raise ConfigurationError(
                    f"traceEvents[{i}]: flow event needs an id"
                )
            (flow_starts if ph == "s" else flow_ends).add(flow_id)
        elif ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                raise ConfigurationError(
                    f"traceEvents[{i}]: unknown metadata {ev.get('name')!r}"
                )
    unmatched = flow_ends - flow_starts
    if unmatched:
        raise ConfigurationError(
            f"flow finish without start: {sorted(unmatched)[:3]}"
        )
    return {
        "spans": spans,
        "instants": instants,
        "flow_ids": sorted(flow_starts),
    }
