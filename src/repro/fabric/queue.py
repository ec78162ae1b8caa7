"""File-backed shard queue: atomic leases, heartbeats, reclamation.

The queue is a directory; its shared-state protocol is built on one
primitive only — ``os.rename`` of an *existing, uniquely-named* source
path, which POSIX makes atomic and single-winner (two processes racing
to rename the same source: exactly one succeeds, the loser gets
``FileNotFoundError``).  All shard state lives in filenames; file
*contents* (the shard's cell range) are immutable after creation.

State machine of shard ``NNNN`` (``gG`` = generation, monotonically
increasing across reclaims)::

    todo-NNNN--gG.json                      unclaimed
      --rename-->  lease-NNNN--gG+1--W.json     leased by worker W
      --rename-->  done-NNNN--gG+1--W.json      finalized by W

    lease-NNNN--gG--W.json   (heartbeat mtime older than lease_ttl)
      --rename-->  lease-NNNN--gG+1--V.json     stolen/reclaimed by V

Heartbeats are ``os.utime`` on the lease path: refreshing a file the
worker no longer owns is impossible (the rename moved it), so a stolen
lease surfaces as :class:`~repro.errors.LeaseLostError` at the next
heartbeat — the worker stops writing and its half-finished shard is
replayed by the new owner from the shared cell checkpoints,
exactly-once at the merge because only the *winning generation's*
journal is folded in.

Layout of a queue directory::

    manifest.json              campaign + sharding commitment
    shards/                    todo-/lease-/done- state files
    cells/                     shared CellStore (per-cell checkpoints)
    journals/shard-NNNN-gG.jsonl   per-(shard, generation) journals
                               (the merge builds metrics from these)

Fault sites (occurrence-counted by the worker's own injector):
``lease.stale`` silently stops refreshing one lease's heartbeats, so a
peer reclaims it mid-flight; ``lease.steal`` models losing the race —
the worker's lease is requeued and its next heartbeat raises.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, LeaseLostError, ReproError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.run.persistence import atomic_write_json

__all__ = ["Lease", "ShardQueue", "ShardState"]

_TODO_RE = re.compile(r"^todo-(\d{4})--g(\d+)\.json$")
_LEASE_RE = re.compile(r"^lease-(\d{4})--g(\d+)--(.+)\.json$")
_DONE_RE = re.compile(r"^done-(\d{4})--g(\d+)--(.+)\.json$")
_WORKER_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@dataclass(frozen=True)
class Lease:
    """A worker's exclusive claim on one shard, at one generation."""

    shard: int
    generation: int
    worker: str
    path: Path
    start: int
    stop: int
    reclaimed_from: tuple[str, int] | None = None

    @property
    def label(self) -> str:
        """Journal/error label of the shard."""
        return f"shard-{self.shard:04d}"

    @property
    def cells(self) -> int:
        """Number of cells in this shard's slice."""
        return self.stop - self.start


@dataclass(frozen=True)
class ShardState:
    """One shard's current queue state, for ``fabric status``."""

    shard: int
    state: str  # "todo" | "leased" | "stale" | "done"
    generation: int
    worker: str = ""
    heartbeat_age: float = 0.0


class ShardQueue:
    """Handle on a queue directory (create with :meth:`create`).

    Parameters
    ----------
    directory:
        The queue directory.
    lease_ttl:
        Seconds without a heartbeat before a lease counts as stale and
        becomes reclaimable (``None``: read from the manifest).
    faults:
        Optional injector arming the ``lease.stale`` / ``lease.steal``
        sites of :meth:`heartbeat`.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        lease_ttl: float | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.faults = faults or NULL_INJECTOR
        self._manifest: dict | None = None
        if lease_ttl is None:
            lease_ttl = float(self.manifest().get("lease_ttl", 30.0))
        if lease_ttl <= 0:
            raise ConfigurationError(
                f"lease_ttl must be > 0, got {lease_ttl}"
            )
        self.lease_ttl = float(lease_ttl)
        #: lease paths whose heartbeats a fired ``lease.stale`` muted.
        self._muted: set[Path] = set()

    # -- layout --------------------------------------------------------------

    @property
    def shards_dir(self) -> Path:
        return self.directory / "shards"

    @property
    def cells_dir(self) -> Path:
        return self.directory / "cells"

    @property
    def journals_dir(self) -> Path:
        return self.directory / "journals"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def journal_path(self, shard: int, generation: int) -> Path:
        """The JSONL journal one (shard, generation) execution writes."""
        return self.journals_dir / f"shard-{shard:04d}-g{generation}.jsonl"

    def manifest(self) -> dict:
        """The queue's manifest (cached after the first read)."""
        if self._manifest is None:
            if not self.manifest_path.exists():
                raise ConfigurationError(
                    f"{self.directory} is not a shard queue "
                    "(no manifest.json; run 'repro fabric init' first)"
                )
            try:
                self._manifest = json.loads(self.manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"corrupt queue manifest {self.manifest_path}: {exc}"
                ) from exc
        return self._manifest

    # -- creation ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        manifest: dict,
        ranges: list[tuple[int, int]],
        *,
        faults: FaultInjector | None = None,
    ) -> "ShardQueue":
        """Initialize a queue directory: manifest plus one todo per shard."""
        directory = Path(directory)
        if (directory / "manifest.json").exists():
            raise ConfigurationError(
                f"{directory} already holds a shard queue; use resume or "
                "point at a fresh directory"
            )
        for sub in ("shards", "cells", "journals"):
            (directory / sub).mkdir(parents=True, exist_ok=True)
        for i, (start, stop) in enumerate(ranges):
            atomic_write_json(
                directory / "shards" / f"todo-{i:04d}--g0.json",
                {"shard": i, "start": start, "stop": stop, "schema": 1},
            )
        atomic_write_json(directory / "manifest.json", manifest)
        return cls(
            directory, lease_ttl=manifest.get("lease_ttl"), faults=faults
        )

    # -- state scan ----------------------------------------------------------

    def _scan(self) -> dict[int, tuple[str, int, str, Path]]:
        """``{shard: (state, generation, worker, path)}`` — done wins
        over any transitional leftovers of the same shard."""
        out: dict[int, tuple[str, int, str, Path]] = {}
        if not self.shards_dir.exists():
            raise ConfigurationError(
                f"{self.directory} is not a shard queue (no shards/)"
            )
        for path in sorted(self.shards_dir.iterdir()):
            m = _DONE_RE.match(path.name)
            if m:
                out[int(m.group(1))] = (
                    "done", int(m.group(2)), m.group(3), path
                )
                continue
            m = _LEASE_RE.match(path.name)
            if m:
                shard = int(m.group(1))
                if out.get(shard, ("",))[0] != "done":
                    out[shard] = ("leased", int(m.group(2)), m.group(3), path)
                continue
            m = _TODO_RE.match(path.name)
            if m:
                shard = int(m.group(1))
                if shard not in out:
                    out[shard] = ("todo", int(m.group(2)), "", path)
        return out

    def status(self) -> list[ShardState]:
        """Current state of every shard, in shard order."""
        now = time.time()
        states = []
        for shard, (state, gen, worker, path) in sorted(self._scan().items()):
            age = 0.0
            if state == "leased":
                try:
                    age = max(0.0, now - path.stat().st_mtime)
                except FileNotFoundError:
                    continue  # transitioned mid-scan; next status() sees it
                if age > self.lease_ttl:
                    state = "stale"
            states.append(
                ShardState(
                    shard=shard, state=state, generation=gen,
                    worker=worker, heartbeat_age=age,
                )
            )
        return states

    def all_done(self) -> bool:
        """True when every shard has a done marker."""
        return all(
            state == "done" for state, _, _, _ in self._scan().values()
        )

    def done_map(self) -> dict[int, tuple[int, str]]:
        """``{shard: (winning generation, finishing worker)}``."""
        return {
            shard: (gen, worker)
            for shard, (state, gen, worker, _) in self._scan().items()
            if state == "done"
        }

    # -- lease protocol ------------------------------------------------------

    def _read_range(self, path: Path) -> tuple[int, int]:
        payload = json.loads(path.read_text())
        return int(payload["start"]), int(payload["stop"])

    def claim(self, worker: str) -> Lease | None:
        """Claim the lowest-numbered claimable shard, or None.

        Claimable: a ``todo`` file, or a lease whose heartbeat is older
        than ``lease_ttl`` (a reclaim — the previous owner is presumed
        dead; if it is merely slow, its next heartbeat raises
        :class:`~repro.errors.LeaseLostError` and it abandons the
        shard).  Every claim is a single atomic rename; losing a race
        just moves on to the next candidate.
        """
        if not _WORKER_RE.match(worker) or "--" in worker:
            raise ConfigurationError(
                f"worker id {worker!r} must match [A-Za-z0-9_.-]+ "
                "and not contain '--'"
            )
        now = time.time()
        for shard, (state, gen, owner, path) in sorted(self._scan().items()):
            if state == "done":
                continue
            if state == "leased":
                try:
                    age = now - path.stat().st_mtime
                except FileNotFoundError:
                    continue
                if age <= self.lease_ttl:
                    continue
            # takeover: todo g -> lease g+1, or stale lease g -> lease g+1
            new_gen = gen + 1
            target = (
                self.shards_dir
                / f"lease-{shard:04d}--g{new_gen}--{worker}.json"
            )
            try:
                # contents are immutable across renames, so read the
                # range before claiming — after a winning rename a peer
                # could already have stolen the file back out from
                # under a read.
                start, stop = self._read_range(path)
                os.rename(path, target)
            except FileNotFoundError:
                continue  # lost the race; someone else owns it now
            # the rename preserved the old mtime — refresh immediately so
            # the fresh lease does not instantly look stale to peers.
            try:
                os.utime(target)
            except FileNotFoundError:
                continue  # stale-looking lease stolen back instantly
            return Lease(
                shard=shard,
                generation=new_gen,
                worker=worker,
                path=target,
                start=start,
                stop=stop,
                reclaimed_from=(owner, gen) if state == "leased" else None,
            )
        return None

    def heartbeat(self, lease: Lease) -> None:
        """Refresh a lease's liveness; raise if it was lost.

        Raises
        ------
        LeaseLostError
            The lease file is gone — a peer judged this worker dead and
            reclaimed the shard.  The worker must stop executing the
            shard (its completed cells are already checkpointed and
            will be replayed by the new owner).
        """
        if self.faults.enabled:
            if lease.path in self._muted:
                return
            if self.faults.fire("lease.stale", lease.label) is not None:
                self._muted.add(lease.path)
                return
            if self.faults.fire("lease.steal", lease.label) is not None:
                # model losing the reclaim race: hand the shard back as
                # todo (at the current generation, so the next claim
                # bumps it) and surface the loss to the worker.
                try:
                    os.rename(
                        lease.path,
                        self.shards_dir
                        / f"todo-{lease.shard:04d}--g{lease.generation}.json",
                    )
                except FileNotFoundError:
                    pass  # genuinely stolen already
                raise LeaseLostError(
                    lease.shard, lease.worker, "injected lease steal"
                )
        try:
            os.utime(lease.path)
        except FileNotFoundError:
            raise LeaseLostError(
                lease.shard, lease.worker,
                "lease file gone (reclaimed by a peer)",
            ) from None

    def finalize(self, lease: Lease) -> Path:
        """Mark a shard done: rename the lease to its done marker.

        Raises :class:`~repro.errors.LeaseLostError` when the lease was
        reclaimed in the meantime — the worker's results stay valid in
        the cell store, but the shard belongs to the new owner.
        """
        target = self.shards_dir / (
            f"done-{lease.shard:04d}--g{lease.generation}--"
            f"{lease.worker}.json"
        )
        try:
            os.rename(lease.path, target)
        except FileNotFoundError:
            raise LeaseLostError(
                lease.shard, lease.worker,
                "lease file gone at finalize (reclaimed by a peer)",
            ) from None
        return target

    # -- merge-side helpers --------------------------------------------------

    def require_all_done(self) -> dict[int, tuple[int, str]]:
        """The done map, or a :class:`~repro.errors.ReproError` naming
        the unfinished shards."""
        done = self.done_map()
        expected = int(self.manifest()["shards"])
        missing = sorted(set(range(expected)) - set(done))
        if missing:
            raise ReproError(
                f"cannot merge {self.directory}: shard(s) "
                f"{missing} not done — run more workers or resume with "
                "'repro fabric run --resume'"
            )
        return done

    def orphan_generations(self, shard: int, winning: int) -> list[int]:
        """Generations of ``shard`` with a journal that did not win."""
        orphans = []
        pattern = re.compile(rf"^shard-{shard:04d}-g(\d+)\.jsonl$")
        if not self.journals_dir.exists():
            return orphans
        for path in self.journals_dir.iterdir():
            m = pattern.match(path.name)
            if m and int(m.group(1)) != winning:
                orphans.append(int(m.group(1)))
        return sorted(orphans)
