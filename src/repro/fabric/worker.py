"""Fabric worker: lease shards, execute cells, checkpoint, heartbeat.

:func:`run_worker` is the whole life of one worker process: rebuild the
campaign from the queue manifest, verify the plan fingerprint (version
skew between coordinator and workers must fail loudly), then loop —
claim a shard, execute its cell slice with the ordinary
:class:`~repro.run.parallel.ParallelRunner` (checkpointing every cell
into the queue's shared :class:`~repro.run.persistence.CellStore` and
heartbeating the lease after every completed cell), journal the shard
lifecycle into a per-(shard, generation) JSONL journal, and finalize
the lease.

Crash semantics: a worker that dies mid-shard (e.g. an injected
``worker.kill``) leaves its lease in place; after ``lease_ttl`` without
heartbeats any peer reclaims it at the next generation and replays the
shard — completed cells resolve instantly from the shared checkpoints,
only in-flight cells re-run, and the merge folds in just the winning
generation's journal.  A worker that merely *loses* its lease
(:class:`~repro.errors.LeaseLostError` from a heartbeat) journals
``shard-lost``, abandons the shard cleanly, and moves on.

Every lease also emits trace spans under the trace id minted from the
manifest's plan fingerprint — a shard root (``shard-NNNN-gG``,
parented on the campaign root by deterministic id), a worker span, and
the runner's cell/phase spans — into the same per-(shard, generation)
journal, so :func:`~repro.fabric.merge_queue` can assemble the
fleet-wide timeline (see :mod:`repro.obs.trace_spans`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError, LeaseLostError
from repro.faults import FaultInjector
from repro.fabric.plan import campaign_from_manifest
from repro.fabric.queue import ShardQueue
from repro.obs.journal import JsonlJournal
from repro.obs.trace_spans import (
    SpanTracer,
    TraceContext,
    mint_trace_id,
    span_id_for,
)
from repro.run.campaign import campaign_cells, plan_fingerprint
from repro.run.parallel import ParallelRunner, execute_cell
from repro.run.persistence import CellStore

__all__ = ["WorkerReport", "run_worker"]


@dataclass
class WorkerReport:
    """What one worker accomplished before its queue ran dry."""

    worker: str
    shards_done: list[int] = field(default_factory=list)
    shards_lost: list[int] = field(default_factory=list)
    cells: int = 0
    reclaims: int = 0


def run_worker(
    queue_dir: str | Path,
    worker: str,
    *,
    jobs: int = 1,
    faults: FaultInjector | None = None,
    wait: bool = True,
    poll: float = 0.2,
    max_shards: int | None = None,
    lease_ttl: float | None = None,
) -> WorkerReport:
    """Process shards from ``queue_dir`` until none are left (or lost).

    Parameters
    ----------
    queue_dir:
        A queue initialized by ``repro fabric init`` /
        :func:`repro.fabric.coordinator.init_queue`.
    worker:
        This worker's identity (embedded in lease/done filenames and
        journal events).
    jobs:
        Process count of the per-shard runner (each worker is usually
        one process of a fleet, so the default is serial).
    faults:
        Optional injector; arms the runner's worker sites, the shared
        cell store's persistence sites, the journal's truncate site,
        and the queue's lease sites.
    wait:
        When no shard is claimable but undone shards remain (peers hold
        live leases), sleep ``poll`` seconds and retry — this is how a
        fleet drains leases of crashed peers after ``lease_ttl``.
        ``False`` returns as soon as nothing is claimable.
    max_shards:
        Stop after this many finalized shards (``None``: run to
        exhaustion).
    lease_ttl:
        Override the manifest's lease TTL (tests use sub-second TTLs).
    """
    if poll <= 0:
        raise ConfigurationError(f"poll must be > 0, got {poll}")
    queue = ShardQueue(queue_dir, lease_ttl=lease_ttl, faults=faults)
    manifest = queue.manifest()
    campaign = campaign_from_manifest(manifest)
    refs = campaign_cells(campaign)
    fingerprint = plan_fingerprint(refs)
    if fingerprint != manifest["plan"]:
        raise ConfigurationError(
            f"plan fingerprint mismatch in {queue.directory}: manifest "
            f"committed {manifest['plan']} but this worker derives "
            f"{fingerprint} — coordinator/worker version skew; re-init "
            "the queue with matching code"
        )
    store = CellStore(queue.cells_dir, faults=faults)
    report = WorkerReport(worker=worker)
    trace_id = mint_trace_id(fingerprint)
    context = TraceContext(
        trace_id, parent_id=span_id_for(trace_id, "campaign")
    )

    while max_shards is None or len(report.shards_done) < max_shards:
        lease = queue.claim(worker)
        if lease is None:
            if queue.all_done() or not wait:
                break
            time.sleep(poll)
            continue
        journal = JsonlJournal(
            queue.journal_path(lease.shard, lease.generation), faults=faults
        )
        # Root at shard-NNNN-gG: span ids stay unique fleet-wide even
        # when a reclaimed shard is replayed at a later generation, and
        # the stamp lets merge_spans drop losing generations.
        tracer = SpanTracer(
            journal,
            context,
            worker=worker,
            root_kind="shard",
            root_name=lease.label,
            root_path=f"shard-{lease.shard:04d}-g{lease.generation}",
            stamp={"shard": lease.shard, "generation": lease.generation},
        )
        if faults is not None and faults.enabled:
            faults.journal = journal
            faults.tracer = tracer
        try:
            if lease.reclaimed_from is not None:
                report.reclaims += 1
                journal.record(
                    "shard-reclaimed",
                    label=lease.label,
                    worker=worker,
                    extra={
                        "generation": lease.generation,
                        "from_worker": lease.reclaimed_from[0],
                        "from_generation": lease.reclaimed_from[1],
                    },
                )
            journal.record(
                "shard-started",
                label=lease.label,
                worker=worker,
                extra={
                    "shard": lease.shard,
                    "generation": lease.generation,
                    "cells": lease.cells,
                    "start": lease.start,
                    "stop": lease.stop,
                },
            )
            runner = ParallelRunner(
                jobs,
                journal=journal,
                checkpoint=store,
                faults=faults,
                progress=lambda done, total, payload: queue.heartbeat(lease),
                batch=bool(manifest.get("batch")),
                tracer=tracer,
            )
            t0 = time.perf_counter()
            with tracer.span("worker", worker):
                runner.run_tasks(
                    execute_cell, [r.task for r in refs[lease.start:lease.stop]]
                )
            journal.record(
                "shard-finished",
                label=lease.label,
                worker=worker,
                duration=time.perf_counter() - t0,
                extra={
                    "shard": lease.shard,
                    "generation": lease.generation,
                    "cells": lease.cells,
                },
            )
            queue.finalize(lease)
            report.shards_done.append(lease.shard)
            report.cells += lease.cells
        except LeaseLostError as exc:
            journal.record(
                "shard-lost", label=lease.label, worker=worker,
                detail=str(exc),
            )
            report.shards_lost.append(lease.shard)
        finally:
            tracer.close()
            if faults is not None and faults.enabled:
                faults.journal = None
                faults.tracer = None
            journal.close()
    return report
