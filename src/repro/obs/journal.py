"""Run-journal sinks: streaming JSONL recording of campaign lifecycles.

The journal is the campaign-level analog of the engine's trace sinks:
the executor calls :meth:`Journal.record` at every lifecycle transition,
and the sink either discards it (:class:`NullJournal`, the default — one
attribute check per event, so benchmark numbers are unaffected), keeps
it in memory (:class:`MemoryJournal`, for tests and summaries), or
streams it to disk as one JSON object per line (:class:`JsonlJournal`,
flushed per event so a crashed campaign still leaves a diagnosable
journal behind).

:func:`read_journal` is the inverse: parse + schema-validate a journal
file back into :class:`~repro.obs.events.JournalEvent` records.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Protocol

from repro.errors import ConfigurationError
from repro.obs.events import JournalEvent

__all__ = [
    "Journal",
    "NullJournal",
    "MemoryJournal",
    "JsonlJournal",
    "NULL_JOURNAL",
    "open_journal",
    "read_journal",
    "read_journal_tail",
]


class Journal(Protocol):
    """Anything that accepts run-journal events."""

    #: False only for the no-op sink; emitters may skip work when False.
    enabled: bool

    def record(self, kind: str, **fields) -> None:
        """Build and emit one event (``ts`` defaults to now)."""
        ...  # pragma: no cover - protocol

    def emit(self, event: JournalEvent) -> None:
        """Receive one already-built event."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any underlying resource."""
        ...  # pragma: no cover - protocol


class NullJournal:
    """Discards all events (the default); the telemetry-off no-op path."""

    __slots__ = ()

    enabled = False

    def record(self, kind: str, **fields) -> None:
        """Discard the event."""

    def emit(self, event: JournalEvent) -> None:
        """Discard the event."""

    def close(self) -> None:
        """Nothing to release."""


#: Shared no-op sink; emitters compare against ``journal.enabled``.
NULL_JOURNAL = NullJournal()


class _RecordingJournal:
    """Shared ``record`` implementation of the real sinks."""

    enabled = True

    def record(self, kind: str, **fields) -> None:
        """Build one event stamped with the current wall clock and emit it.

        Pass ``ts=...`` explicitly to backdate an event (e.g. a cell
        start observed inside a worker process).
        """
        ts = fields.pop("ts", None)
        self.emit(JournalEvent(ts=time.time() if ts is None else ts, kind=kind, **fields))

    def emit(self, event: JournalEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Nothing to release by default."""


class MemoryJournal(_RecordingJournal):
    """Keeps every event in order; useful in tests and for summaries."""

    def __init__(self) -> None:
        self.events: list[JournalEvent] = []

    def emit(self, event: JournalEvent) -> None:
        """Store the event."""
        self.events.append(event)

    def count(self, kind: str) -> int:
        """Number of stored events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)


class JsonlJournal(_RecordingJournal):
    """Streams events to ``path`` as JSON Lines, one object per event.

    The file is truncated on open (a journal describes one run) and every
    event is flushed immediately, so a killed campaign still leaves every
    record it reached on disk.

    Parameters
    ----------
    path:
        Where the JSONL stream lives.
    append:
        Open in append mode instead of truncating — the resume path uses
        this so one journal documents the whole (crash-interrupted)
        campaign.  A partial trailing line left by a run killed mid-write
        is trimmed first, so the appended journal parses strictly.
    faults:
        Optional :class:`~repro.faults.FaultInjector` arming the
        ``journal.truncate`` site: the scheduled event is cut mid-line
        (flushed without its tail) and the simulated crash
        (:class:`~repro.errors.InjectedCrash`) propagates, exactly like
        a power loss during the append.  As after a real power loss,
        nothing reaches the file after the torn line (spans closed while
        the crash unwinds are dropped), so the torn line stays the tail
        that a resume trims.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        append: bool = False,
        faults=None,
    ) -> None:
        from repro.faults import NULL_INJECTOR

        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.faults = faults or NULL_INJECTOR
        self._torn = False
        if append and self.path.exists():
            self._trim_partial_tail()
            self._fh = self.path.open("a", encoding="utf-8")
        else:
            self._fh = self.path.open("w", encoding="utf-8")

    def _trim_partial_tail(self) -> None:
        """Drop a trailing line with no newline (a crash-torn write)."""
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            keep = data.rfind(b"\n") + 1
            self.path.write_bytes(data[:keep])

    def emit(self, event: JournalEvent) -> None:
        """Append one JSON line and flush."""
        if self._torn:
            return
        line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
        if self.faults.enabled:
            spec = self.faults.fire("journal.truncate", event.kind)
            if spec is not None:
                from repro.errors import InjectedCrash

                self._fh.write(line[: max(1, len(line) // 2)])
                self._fh.flush()
                self._torn = True
                raise InjectedCrash(
                    "journal.truncate", event.kind, "crash mid-append"
                )
        self._fh.write(line)
        self._fh.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(
    path: str | Path | None, *, append: bool = False
) -> Journal:
    """A :class:`JsonlJournal` at ``path``, or the no-op sink for None.

    ``append=True`` opens the journal in resume mode: the existing
    stream is kept (a crash-torn trailing line is trimmed) and new
    events are appended.
    """
    return NULL_JOURNAL if path is None else JsonlJournal(path, append=append)


def read_journal(path: str | Path, *, strict: bool = True) -> list[JournalEvent]:
    """Parse and schema-validate a JSONL journal file.

    Raises :class:`~repro.errors.ConfigurationError` naming the first
    malformed line (bad JSON or schema violation).

    With ``strict=False`` a journal whose *final* line is not valid JSON
    — the signature of a campaign killed mid-write — is read anyway: the
    partial trailing line is skipped with a :class:`UserWarning`.  Bad
    JSON anywhere else and schema violations still raise; truncation can
    only ever affect the last record of a flush-per-event journal, so
    anything beyond that is real corruption, not a crash artifact.  The
    ``obs summary`` / ``obs export`` CLI reads with ``strict=False`` so
    crashed campaigns stay diagnosable.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"journal file {path} does not exist")
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.readlines()
    last_lineno = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            last_lineno = lineno
    events: list[JournalEvent] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            if not strict and lineno == last_lineno:
                warnings.warn(
                    f"{path}:{lineno}: skipping partial trailing journal "
                    f"line (truncated by a crashed/killed run): {exc}",
                    stacklevel=2,
                )
                break
            raise ConfigurationError(
                f"{path}:{lineno}: invalid JSON in journal: {exc}"
            ) from exc
        try:
            events.append(JournalEvent.from_dict(payload))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return events


def read_journal_tail(
    path: str | Path, offset: int = 0
) -> tuple[list[JournalEvent], int]:
    """Incrementally read a live journal from a byte offset.

    Returns ``(events, new_offset)`` where ``new_offset`` is the
    position to resume from on the next poll.  Only complete
    (newline-terminated) lines are consumed; a torn final line — a
    worker caught mid-``write`` — is *deferred*, not dropped: the
    returned offset stops before it, so the next poll re-reads it once
    the writer finishes the flush.  A missing file yields
    ``([], 0)`` (the journal may not exist until its shard is claimed),
    and a file shorter than ``offset`` — e.g. recreated from scratch —
    resets the cursor and re-reads from the start.

    This is the cheap polling primitive behind ``repro obs top``: each
    tick parses only the bytes appended since the last tick, never the
    whole journal.  Malformed JSON in a *complete* line raises
    :class:`~repro.errors.ConfigurationError` (flush-per-event writers
    can only ever tear the final line, so anything else is real
    corruption).
    """
    path = Path(path)
    if offset < 0:
        raise ConfigurationError(f"journal offset must be >= 0, got {offset}")
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return [], 0
    if size < offset:
        offset = 0
    with path.open("rb") as fh:
        fh.seek(offset)
        data = fh.read()
    keep = data.rfind(b"\n") + 1
    events: list[JournalEvent] = []
    for raw in data[:keep].splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            events.append(JournalEvent.from_dict(payload))
        except (json.JSONDecodeError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"{path}: invalid journal line at byte offset {offset}: {exc}"
            ) from exc
    return events, offset + keep
