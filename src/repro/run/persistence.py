"""Content-addressed persistence: per-cell result checkpoints.

:class:`CellStore` is the campaign's one result store: one
atomically-written JSON file per completed *(platform, instance)* cell,
keyed by :func:`task_fingerprint` over the cell task's full content —
workload identity and parameters, platform, instance, host, calibration
and the stream recipes of every repetition.  Any change to any
ingredient changes the key, so a hit is always a faithful replay.  The
runner persists each cell as it finishes, so a campaign killed
mid-sweep loses at most the cells in flight; on a re-run every verified
cell replays without execution, and corrupt entries are detected and
re-run.

Every write in this module goes through :func:`atomic_write_text` — a
temp file in the target directory followed by :func:`os.replace` — so a
crash mid-write can never leave a truncated entry that poisons a later
probe.  The store carries a :class:`~repro.faults.FaultInjector` hook
(``disk.full`` before the write, ``cache.corrupt`` after it) so chaos
tests can exercise exactly those torn-write scenarios deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from pathlib import Path

from repro.errors import PersistenceConflictError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.run.results import RunResult

__all__ = [
    "CellStore",
    "atomic_write_json",
    "atomic_write_text",
    "task_fingerprint",
]


def _jsonable(value):
    """Deterministic JSON-able projection of a config value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, frozenset):
        return sorted(value)
    if hasattr(value, "name"):  # enums, workload classes
        return getattr(value, "name")
    return repr(value)


def task_fingerprint(task) -> str | None:
    """Stable hex digest of one cell task's full content, or None.

    Covers everything that determines the cell's result — workload type
    and parameters, platform (kind, mode), instance, host, calibration,
    and the exact stream recipes of every repetition — so a checkpoint
    hit is always a faithful replay and any config drift invalidates the
    entry.  Returns ``None`` for payloads that are not cell tasks (the
    generic ``run_tasks`` path simply skips checkpointing those).
    """
    streams = getattr(task, "streams", None)
    if streams is None or not hasattr(task, "workload"):
        return None
    payload = {
        "workload_type": type(task.workload).__name__,
        "workload": _jsonable(
            task.workload.__dict__
            if not dataclasses.is_dataclass(task.workload)
            else task.workload
        ),
        "kind": task.kind.value,
        "mode": task.mode.value,
        "instance": (
            task.instance.name,
            task.instance.cores,
            task.instance.memory_bytes,
        ),
        "host": _jsonable(task.host),
        "calibration": _jsonable(task.calib),
        "streams": [(s.seed, s.label, s.rep) for s in streams],
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


#: Per-process tiebreaker so concurrent writers in one process cannot
#: collide on a temp name either.
_TMP_COUNTER = itertools.count()


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` via a *writer-unique* temp file + :func:`os.replace`.

    The temp file lives in the target directory (same filesystem, so the
    replace is atomic) and its name embeds the writer's pid plus a
    per-process counter — two processes racing on the same entry each
    write their own temp file and the replaces serialize at the
    filesystem, so neither can truncate or rename the other's half-
    written temp out from under it.  Cleaned up on failure: a crash at
    any instant leaves either the old entry or the new one, never a
    truncated hybrid.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    )
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON atomically (see :func:`atomic_write_text`)."""
    atomic_write_text(path, json.dumps(payload, indent=2))


class CellStore:
    """The campaign result store: one checkpoint per completed cell.

    One JSON file per completed cell, named by :func:`task_fingerprint`
    and written atomically, holding the cell's serialized
    :class:`~repro.run.results.RunResult` repetitions.  The runner
    probes here before submitting each task; a verified hit is replayed
    without execution, a corrupt or fingerprint-mismatched entry is
    reported and re-run.  Replayed runs carry no perf counters
    (counters are never serialized); recorded latency sketches *are*
    serialized (canonical dict form, sorted streams), so replayed cells
    keep their sketches.  The campaign report depends only on the
    serialized fields, so warm and resumed reports are byte-identical.

    Parameters
    ----------
    directory:
        Where the checkpoint files live (created on first write).
    faults:
        Optional :class:`~repro.faults.FaultInjector` arming the
        ``disk.full`` / ``cache.corrupt`` sites of :meth:`put`.
    """

    def __init__(
        self, directory: str | Path, faults: FaultInjector | None = None
    ) -> None:
        self.directory = Path(directory)
        self.faults = faults or NULL_INJECTOR

    def path_for(self, key: str) -> Path:
        """Checkpoint file path for a key."""
        return self.directory / f"cell-{key}.json"

    def _verified(self, key: str, text: str) -> list[RunResult] | None:
        """The runs of an entry's text, or None unless it is intact: it
        must decode, carry ``key`` as its fingerprint and hold runs."""
        try:
            payload = json.loads(text)
            if payload["fingerprint"] != key:
                return None
            runs = [RunResult.from_dict(r) for r in payload["runs"]]
        except (KeyError, TypeError, ValueError):
            return None
        return runs or None

    def load(self, key: str) -> tuple[list[RunResult] | None, str]:
        """Probe one checkpoint: ``(runs, state)``.

        ``state`` is ``"hit"`` (entry verified and deserialized),
        ``"miss"`` (no entry), or ``"corrupt"`` (undecodable or
        fingerprint mismatch; the caller should re-run and overwrite).
        """
        path = self.path_for(key)
        if not path.exists():
            return None, "miss"
        runs = self._verified(key, path.read_text())
        return (runs, "hit") if runs is not None else (None, "corrupt")

    def put(self, key: str, runs: list[RunResult], *, label: str = "") -> Path:
        """Checkpoint one completed cell atomically; returns the path.

        Same fingerprint, same content is the determinism contract: two
        workers completing the same cell (a reclaimed fabric shard
        replayed after a lease steal) write the same key, so an intact
        existing entry must be byte-identical.  A byte-identical
        re-write is skipped, a divergence raises
        :class:`~repro.errors.PersistenceConflictError` instead of
        silently masking the bug, and an entry that fails verification —
        torn by a crash or a ``cache.corrupt`` fault — is overwritten,
        exactly as the resume path expects.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        site_label = f"cell:{label or key}"
        if self.faults.enabled:
            self.faults.maybe_disk_full(site_label)
        text = json.dumps(
            {
                "fingerprint": key,
                "label": label,
                "runs": [r.to_dict() for r in runs],
            },
            indent=2,
        )
        try:
            existing = path.read_text() if path.exists() else None
        except OSError:
            existing = None
        if existing is None or self._verified(key, existing) is None:
            atomic_write_text(path, text)
        elif existing != text:
            raise PersistenceConflictError(
                f"divergent write for cell {path.name}: an intact entry "
                "with the same fingerprint already holds different bytes "
                "— two writers disagreed on deterministic content (seed "
                "drift or version skew between workers?)"
            )
        if self.faults.enabled:
            self.faults.maybe_corrupt(path, site_label)
        return path

    def __len__(self) -> int:
        """Number of checkpointed cells on disk."""
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("cell-*.json"))
