"""Versioned schema of campaign-journal events.

A run journal is a stream of :class:`JournalEvent` records describing the
lifecycle of a campaign: cells queued, started, replayed from a resume
checkpoint, retried, failed, and finished (each naming its cell by store
key, :attr:`JournalEvent.cell`), plus
sweep/campaign spans, worker-pool rebuilds, deterministic fault
injections (``fault-injected`` / ``checkpoint-corrupt``), fabric shard
lifecycles (``shard-started`` / ``shard-finished`` / ``shard-lost`` /
``shard-reclaimed``), adaptive rep-allocation rounds
(``reps-allocated``), and trace spans (``span``, carrying one encoded
:class:`~repro.obs.trace_spans.Span` per record).  The schema is
versioned (:data:`SCHEMA_VERSION`; version 2 added the cell key) so
journals written by one release can be rejected loudly — not misread
silently — by another, and :func:`validate_event` is the single gate
every reader passes records through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "JournalEvent",
    "validate_event",
]

#: Version of the journal event schema; bump on incompatible change.
SCHEMA_VERSION = 2

#: Every event kind a journal may contain.
EVENT_KINDS: frozenset[str] = frozenset(
    {
        "campaign-started",
        "campaign-finished",
        "sweep-started",
        "sweep-finished",
        "cell-queued",
        "cell-started",
        "cell-resumed",
        "cell-retried",
        "cell-failed",
        "cell-finished",
        "cell-ledger",
        "cell-dist",
        "shard-started",
        "shard-finished",
        "shard-lost",
        "shard-reclaimed",
        "reps-allocated",
        "batch-partition",
        "batch-fallback",
        "checkpoint-corrupt",
        "span",
        "fault-injected",
        "pool-rebuilt",
        "run-started",
        "run-finished",
    }
)


@dataclass(frozen=True)
class JournalEvent:
    """One structured record of a run journal.

    Attributes
    ----------
    ts:
        Wall-clock time of the event (seconds since the epoch).
    kind:
        One of :data:`EVENT_KINDS` (readers also accept unknown string
        kinds written by newer schemas and count them instead of
        raising).
    label:
        Display name of the subject (cell label, workload name,
        campaign).  Cell labels are not unique — fig. 7's two hosts
        share them — so a cell's identity is :attr:`cell`.
    cell:
        The cell's store key (:func:`repro.run.persistence.task_fingerprint`)
        on per-cell events of cell tasks; empty otherwise (other
        payloads are identified by their label).
    worker:
        Worker identity (``"pid-<n>"``) for cell events, where known.
    attempt:
        1-based attempt number for cell events (0 when not applicable).
    duration:
        Span length in seconds for ``*-finished`` / ``*-retried`` events.
    cached:
        True for cells replayed without execution (``cell-resumed``).
    detail:
        Free-form context (exception repr, include list, fingerprint).
    extra:
        Kind-specific structured payload (e.g. simulator counters and
        the span start time on ``cell-finished``).
    schema:
        The :data:`SCHEMA_VERSION` the event was written under.
    """

    ts: float
    kind: str
    label: str = ""
    cell: str = ""
    worker: str = ""
    attempt: int = 0
    duration: float = 0.0
    cached: bool = False
    detail: str = ""
    extra: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-ready representation (one journal line)."""
        out = {
            "ts": self.ts,
            "kind": self.kind,
            "label": self.label,
            "worker": self.worker,
            "attempt": self.attempt,
            "duration": self.duration,
            "cached": self.cached,
            "detail": self.detail,
            "schema": self.schema,
        }
        if self.cell:
            out["cell"] = self.cell
        if self.extra:
            out["extra"] = self.extra
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "JournalEvent":
        """Build a validated event from a parsed journal line."""
        validate_event(d)
        return cls(
            ts=float(d["ts"]),
            kind=d["kind"],
            label=d.get("label", ""),
            cell=d.get("cell", ""),
            worker=d.get("worker", ""),
            attempt=int(d.get("attempt", 0)),
            duration=float(d.get("duration", 0.0)),
            cached=bool(d.get("cached", False)),
            detail=d.get("detail", ""),
            extra=dict(d.get("extra", {})),
            schema=int(d["schema"]),
        )


def validate_event(d: dict) -> None:
    """Check one parsed journal line against the event schema.

    Raises :class:`~repro.errors.ConfigurationError` naming the first
    violated constraint; passes silently on a valid record.
    """
    if not isinstance(d, dict):
        raise ConfigurationError(f"journal event must be an object, got {type(d).__name__}")
    for key in ("ts", "kind", "schema"):
        if key not in d:
            raise ConfigurationError(f"journal event missing required key {key!r}")
    if not isinstance(d["ts"], (int, float)) or isinstance(d["ts"], bool):
        raise ConfigurationError(f"event ts must be a number, got {d['ts']!r}")
    # An unknown *string* kind is forward-compatible data from a newer
    # writer, not corruption: readers must count it, not crash on it
    # (summarize_journal surfaces the tally).  Only a non-string kind is
    # a malformed record.
    if not isinstance(d["kind"], str) or not d["kind"]:
        raise ConfigurationError(
            f"event kind must be a non-empty string, got {d['kind']!r}"
        )
    if d["schema"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"journal schema {d['schema']!r} unsupported (expected {SCHEMA_VERSION})"
        )
    if not isinstance(d.get("label", ""), str):
        raise ConfigurationError("event label must be a string")
    if not isinstance(d.get("cell", ""), str):
        raise ConfigurationError("event cell must be a string")
    if not isinstance(d.get("worker", ""), str):
        raise ConfigurationError("event worker must be a string")
    attempt = d.get("attempt", 0)
    if not isinstance(attempt, int) or isinstance(attempt, bool) or attempt < 0:
        raise ConfigurationError(f"event attempt must be an int >= 0, got {attempt!r}")
    duration = d.get("duration", 0.0)
    if not isinstance(duration, (int, float)) or isinstance(duration, bool) or duration < 0:
        raise ConfigurationError(f"event duration must be a number >= 0, got {duration!r}")
    if not isinstance(d.get("cached", False), bool):
        raise ConfigurationError("event cached flag must be a bool")
    if not isinstance(d.get("extra", {}), dict):
        raise ConfigurationError("event extra must be an object")
