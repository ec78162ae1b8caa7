"""Sharded campaign fabric: many processes, one byte-stable report.

The paper's full result grid is hundreds of independent cells; one
process — even a pooled one — is still one failure domain and one
machine.  This package turns a campaign into a **file-backed shard
queue** that any number of worker processes (on any hosts sharing the
directory) drain cooperatively:

* :mod:`repro.fabric.plan` — the queue manifest that commits a
  campaign plan to a directory, and its cut into shards (the plan —
  :func:`~repro.run.campaign.campaign_cells`, ``plan_fingerprint`` and
  the result assembler ``assemble_result`` — lives in
  :mod:`repro.run.campaign` and is re-exported here);
* :mod:`repro.fabric.queue` — the lease protocol: every shard-state
  transition is one atomic ``os.rename``, heartbeats are ``utime``,
  stale leases are reclaimed at a bumped generation;
* :mod:`repro.fabric.worker` — the worker loop (claim → execute with
  :class:`~repro.run.parallel.ParallelRunner` → checkpoint into the
  shared :class:`~repro.run.persistence.CellStore` → finalize);
* :mod:`repro.fabric.coordinator` — queue init, worker launch, and the
  merge that folds shard journals and checkpoints into a report
  byte-identical to the serial ``run_campaign``, through the same
  assembler (campaign metrics are built from the merged journal).

CLI: ``repro fabric init|work|run|merge|status``.
"""

from repro.fabric.coordinator import (
    MergeInfo,
    init_queue,
    launch_workers,
    merge_queue,
)
from repro.fabric.plan import (
    campaign_from_manifest,
    manifest_for_campaign,
    shard_ranges,
)
from repro.fabric.queue import Lease, ShardQueue, ShardState
from repro.fabric.worker import WorkerReport, run_worker
from repro.run.campaign import (
    CellRef,
    assemble_result,
    campaign_cells,
    plan_fingerprint,
)

__all__ = [
    "CellRef",
    "Lease",
    "MergeInfo",
    "ShardQueue",
    "ShardState",
    "WorkerReport",
    "assemble_result",
    "campaign_cells",
    "campaign_from_manifest",
    "init_queue",
    "launch_workers",
    "manifest_for_campaign",
    "merge_queue",
    "plan_fingerprint",
    "run_worker",
    "shard_ranges",
]
