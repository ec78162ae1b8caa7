"""Fabric coordinator: init the queue, launch workers, merge shards.

The coordinator side of the shard fabric is three idempotent steps that
can run in one process (``repro fabric run``) or be driven by hand
across machines sharing a filesystem:

* :func:`init_queue` — commit a campaign to a queue directory
  (manifest + one ``todo`` marker per shard);
* :func:`launch_workers` — spawn N ``repro fabric work`` subprocesses
  against the queue;
* :func:`merge_queue` — once every shard is done, load every cell from
  the shared checkpoint store, reassemble the serial
  :class:`~repro.run.campaign.CampaignResult` (byte-identical report),
  and fold the winning-generation shard journals into one stream, from
  which the campaign metrics are built.

Exactly-once merge semantics are *structural*: a reclaimed shard has
journals at several generations, but only the generation named by the
``done`` marker is folded in — duplicated cell events from the loser
generations never reach the merged journal (they are counted as
reclaims instead), and cell *results* are deduplicated by construction
because every worker checkpoints into one content-addressed store whose
writes are byte-identical-or-raise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError, ReproError
from repro.fabric.plan import (
    campaign_from_manifest,
    manifest_for_campaign,
    shard_ranges,
)
from repro.fabric.queue import ShardQueue
from repro.obs.events import JournalEvent
from repro.obs.journal import read_journal
from repro.obs.export import journal_to_metrics
from repro.obs.trace_spans import (
    Span,
    merge_spans,
    mint_trace_id,
    span_id_for,
    spans_from_journal,
    spans_to_chrome,
)
from repro.run.campaign import (
    Campaign,
    CampaignResult,
    assemble_result,
    campaign_cells,
    plan_fingerprint,
)
from repro.run.persistence import CellStore

__all__ = ["MergeInfo", "init_queue", "launch_workers", "merge_queue"]


@dataclass
class MergeInfo:
    """Bookkeeping of one merge, for CLI reporting."""

    shards: int = 0
    cells: int = 0
    events: int = 0
    reclaims: int = 0
    orphan_journals: int = 0
    workers: list[str] = field(default_factory=list)
    spans: int = 0


def init_queue(
    directory: str | Path,
    campaign: Campaign | None = None,
    *,
    shards: int = 4,
    lease_ttl: float = 30.0,
    batch: bool = False,
    exist_ok: bool = False,
) -> ShardQueue:
    """Commit ``campaign`` to a shard queue at ``directory``.

    With ``exist_ok=True`` an existing queue is reused *iff* its plan
    fingerprint matches the requested campaign (that is the resume
    path); a mismatch raises instead of silently mixing plans.  The
    resume path keeps the existing manifest verbatim, and the trace id
    derives from the plan, so a resumed campaign's spans stay in the
    original trace.
    """
    directory = Path(directory)
    campaign = campaign or Campaign()
    manifest = manifest_for_campaign(
        campaign, shards=shards, lease_ttl=lease_ttl, batch=batch,
    )
    if (directory / "manifest.json").exists():
        if not exist_ok:
            raise ConfigurationError(
                f"{directory} already holds a shard queue "
                "(pass resume to reuse it)"
            )
        queue = ShardQueue(directory)
        if queue.manifest()["plan"] != manifest["plan"]:
            raise ConfigurationError(
                f"existing queue at {directory} commits to plan "
                f"{queue.manifest()['plan']}, not the requested "
                f"{manifest['plan']} — different campaign; use a fresh "
                "directory"
            )
        return queue
    refs = campaign_cells(campaign)
    return ShardQueue.create(
        directory, manifest, shard_ranges(len(refs), shards)
    )


def launch_workers(
    directory: str | Path,
    n: int,
    *,
    jobs: int = 1,
    fault_plan: str | Path | None = None,
) -> list[subprocess.Popen]:
    """Spawn ``n`` ``repro fabric work`` subprocesses against a queue.

    Workers inherit this process's environment (so ``PYTHONPATH``
    arrangements survive) and are named ``w1..wN``.  The caller waits
    on the returned handles; a worker that died on an injected fault
    exits non-zero and leaves its lease to be reclaimed.
    """
    if n < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n}")
    procs = []
    for i in range(n):
        cmd = [
            sys.executable, "-m", "repro", "--jobs", str(jobs),
            "fabric", "work", str(directory), "--worker", f"w{i + 1}",
        ]
        if fault_plan is not None:
            cmd += ["--fault-plan", str(fault_plan)]
        procs.append(subprocess.Popen(cmd))
    return procs


def merge_queue(
    directory: str | Path,
    *,
    journal_out: str | Path | None = None,
    metrics_out: str | Path | None = None,
    trace_out: str | Path | None = None,
) -> tuple[CampaignResult, MergeInfo]:
    """Merge a fully-done queue back into one campaign result.

    Requires every shard to carry a ``done`` marker (raises a
    :class:`~repro.errors.ReproError` naming the stragglers otherwise).
    Loads every cell of the plan from the shared store — a missing or
    corrupt checkpoint is a hard error, since a done shard vouches for
    its cells — and reassembles the exact serial result.  Optionally
    writes the merged winning-generation journal (JSONL, shard order),
    the metrics built from that journal
    (:func:`~repro.obs.export.journal_to_metrics`, JSON), and the
    unified Chrome trace (``trace_out``): the winning-generation spans
    of every shard merged under a synthesized campaign root, with lease
    reclaims, retries, and batch fallbacks rendered as flow arrows (see
    :func:`repro.obs.trace_spans.spans_to_chrome`).
    """
    queue = ShardQueue(directory)
    manifest = queue.manifest()
    campaign = campaign_from_manifest(manifest)
    refs = campaign_cells(campaign)
    if plan_fingerprint(refs) != manifest["plan"]:
        raise ConfigurationError(
            f"plan fingerprint mismatch in {directory}: the merging "
            "process derives a different cell plan than the manifest "
            "committed — version skew; merge with matching code"
        )
    done = queue.require_all_done()
    store = CellStore(queue.cells_dir)
    runs_by_key = {}
    for ref in refs:
        runs, state = store.load(ref.key)
        if state != "hit":
            raise ReproError(
                f"cell {ref.task.label} ({ref.exp}) is {state} in the "
                f"queue's cell store — its shard finalized without a "
                "verified checkpoint; re-run the fabric with --resume"
            )
        runs_by_key[ref.key] = runs
    result = assemble_result(campaign, runs_by_key)

    info = MergeInfo(shards=len(done), cells=len(refs))
    events: list[JournalEvent] = []
    workers: set[str] = set()
    for shard in sorted(done):
        gen, worker = done[shard]
        workers.add(worker)
        info.reclaims += gen - 1  # every generation past 1 is a takeover
        info.orphan_journals += len(queue.orphan_generations(shard, gen))
        journal_path = queue.journal_path(shard, gen)
        if journal_path.exists():
            events.extend(read_journal(journal_path, strict=False))
    info.events = len(events)
    info.workers = sorted(workers)

    spans = spans_from_journal(events)
    # Belt and braces: the folded journals are already winning-generation
    # only, but merge_spans re-applies the exclusion and dedups by id.
    winning = {shard: gen for shard, (gen, _w) in done.items()}
    spans = merge_spans(spans, winning=winning)
    info.spans = len(spans)
    if trace_out is not None:
        if spans:
            # The campaign root span lives in no worker journal — every
            # shard span points at it by deterministic id, so the merge
            # synthesizes it over the observed span envelope.
            trace_id = mint_trace_id(manifest["plan"])
            start = min(s.start for s in spans)
            end = max(s.end for s in spans)
            root = Span(
                trace_id=trace_id,
                span_id=span_id_for(trace_id, "campaign"),
                parent_id="",
                name="campaign",
                kind="campaign",
                start=start,
                duration=end - start,
            )
            spans = merge_spans(spans, [root])
            info.spans = len(spans)
        doc = spans_to_chrome(spans, events)
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")

    if journal_out is not None:
        with open(journal_out, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    if metrics_out is not None:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            json.dump(
                journal_to_metrics(events).to_json(), fh, indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    return result, info
