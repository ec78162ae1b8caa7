"""Deterministic decomposition of a campaign into an ordered cell list.

The fabric's unit of work is the *cell* — one (platform, instance)
configuration with its pre-committed repetition stream recipes.  Every
participant (the coordinator sharding the queue, each worker executing
its slice, the merger reassembling the report) derives the **same
ordered cell list** from the same :class:`~repro.run.campaign.Campaign`
by calling :func:`campaign_cells`; the order is exactly the serial
iteration order of :func:`~repro.run.campaign.run_campaign`, so a
merged fabric result is field-for-field the serial result.

:func:`plan_fingerprint` hashes the ordered per-cell content
fingerprints; the manifest commits it at queue-init time and every
worker re-derives and checks it before claiming work, so version skew
between coordinator and workers fails loudly instead of merging
silently divergent cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.analysis.chr import ChrRange, estimate_suitable_chr_range
from repro.analysis.loadcurve import LoadCurveConfig, LoadCurveResult, build_loadcurve
from repro.analysis.stats import StatSummary, summarize
from repro.errors import ConfigurationError
from repro.hostmodel.topology import r830_host, small_host
from repro.platforms.registry import make_platform
from repro.run.calibration import Calibration
from repro.run.campaign import (
    Campaign,
    CampaignResult,
    KNOWN_EXPERIMENTS,
    SWEEP_EXPERIMENTS,
    fig7_tasks,
    fig8_tasks,
    loadcurve_platform_order,
    loadcurve_tasks,
    sweep_spec,
)
from repro.run.parallel import CellTask, cell_tasks
from repro.run.persistence import task_fingerprint
from repro.run.results import ExperimentResult, RunResult, SweepResult

__all__ = [
    "CellRef",
    "MANIFEST_SCHEMA",
    "assemble_result",
    "campaign_cells",
    "campaign_from_manifest",
    "manifest_for_campaign",
    "plan_fingerprint",
    "shard_ranges",
]

#: Version of the queue manifest layout; bump on incompatible change.
MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class CellRef:
    """One campaign cell in plan order: task, position, and identity."""

    exp: str
    index: int
    task: CellTask
    key: str


def campaign_cells(campaign: Campaign) -> list[CellRef]:
    """Every cell of ``campaign`` in serial execution order."""
    refs: list[CellRef] = []
    for fig in KNOWN_EXPERIMENTS:
        if fig not in campaign.include:
            continue
        if fig in SWEEP_EXPERIMENTS:
            tasks, _ = cell_tasks(sweep_spec(campaign, fig))
        elif fig == "fig7":
            tasks, _ = fig7_tasks(campaign)
        elif fig == "fig8":
            tasks, _ = fig8_tasks(campaign)
        else:
            tasks, _ = loadcurve_tasks(campaign)
        for i, task in enumerate(tasks):
            key = task_fingerprint(task)
            if key is None:  # pragma: no cover - cell tasks always hash
                raise ConfigurationError(
                    f"cell {task.label} of {fig} is not fingerprintable"
                )
            refs.append(CellRef(exp=fig, index=i, task=task, key=key))
    return refs


def plan_fingerprint(refs: list[CellRef]) -> str:
    """Stable hex digest of the ordered cell identities."""
    blob = json.dumps([(r.exp, r.index, r.key) for r in refs])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def shard_ranges(n_cells: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` slices of the cell list.

    At most ``n_shards`` non-empty ranges; a queue of 10 cells asked for
    4 shards yields sizes 3/3/2/2.
    """
    if n_cells < 1:
        raise ConfigurationError(f"n_cells must be >= 1, got {n_cells}")
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_cells)
    base, extra = divmod(n_cells, n_shards)
    ranges = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def manifest_for_campaign(
    campaign: Campaign,
    *,
    shards: int,
    lease_ttl: float,
    batch: bool = False,
) -> dict:
    """The JSON manifest committing a campaign to a shard queue.

    The manifest must reconstruct the campaign *exactly* in every
    worker process, so only the stock host topologies and the default
    calibration are supported — a custom host or calibration would need
    its own serialization to round-trip faithfully, and silently
    approximating it would break the plan fingerprint's guarantee.

    The fleet's trace id is not stored: workers and the merge derive it
    from ``plan`` (:func:`repro.obs.trace_spans.mint_trace_id`), so the
    merged campaign journal yields one causal span tree.
    """
    if campaign.calib != Calibration():
        raise ConfigurationError(
            "fabric campaigns support the default calibration only "
            "(the manifest cannot round-trip custom constants yet)"
        )
    if campaign.host == r830_host():
        host_cpus = 0
    elif campaign.host == small_host(campaign.host.logical_cpus):
        host_cpus = campaign.host.logical_cpus
    else:
        raise ConfigurationError(
            "fabric campaigns support the stock hosts only "
            "(r830_host or small_host(n))"
        )
    refs = campaign_cells(campaign)
    ranges = shard_ranges(len(refs), shards)
    plan = plan_fingerprint(refs)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "reps_fast": campaign.reps_fast,
        "reps_io": campaign.reps_io,
        "seed": campaign.seed,
        "include": list(campaign.include),
        "host_cpus": host_cpus,
        "batch": bool(batch),
        "lease_ttl": float(lease_ttl),
        "cells": len(refs),
        "shards": len(ranges),
        "plan": plan,
    }
    if "loadcurve" in campaign.include:
        # The open-loop sweep's configuration is part of the plan; the
        # key is only present when the sweep is, so manifests of
        # figure-only campaigns are unchanged.
        manifest["loadcurve"] = campaign.loadcurve.to_dict()
    return manifest


def campaign_from_manifest(manifest: dict) -> Campaign:
    """Rebuild the exact campaign a queue manifest committed to."""
    try:
        if manifest["schema"] != MANIFEST_SCHEMA:
            raise ConfigurationError(
                f"queue manifest schema {manifest['schema']!r} unsupported "
                f"(expected {MANIFEST_SCHEMA})"
            )
        host_cpus = manifest["host_cpus"]
        kwargs = {}
        if "loadcurve" in manifest:
            kwargs["loadcurve"] = LoadCurveConfig.from_dict(
                manifest["loadcurve"]
            )
        return Campaign(
            reps_fast=manifest["reps_fast"],
            reps_io=manifest["reps_io"],
            host=small_host(host_cpus) if host_cpus else r830_host(),
            seed=manifest["seed"],
            include=tuple(manifest["include"]),
            **kwargs,
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"malformed queue manifest: {exc!r}"
        ) from exc


def assemble_result(
    campaign: Campaign, runs_by_key: dict[str, list[RunResult]]
) -> CampaignResult:
    """Rebuild the serial :class:`CampaignResult` from per-cell runs.

    ``runs_by_key`` maps each cell fingerprint (from
    :func:`campaign_cells`) to its measured repetitions — typically
    loaded from the queue's shared
    :class:`~repro.run.persistence.CellStore`.  The reassembly mirrors
    :func:`~repro.run.campaign.run_campaign` structure for structure
    (sweep grids, CHR bands, Fig. 7/8 summaries), and every derived
    number depends only on the measured values, so the report generated
    from the returned result is byte-identical to the serial run's.
    """

    def runs_for(ref: CellRef) -> list[RunResult]:
        try:
            return runs_by_key[ref.key]
        except KeyError:
            raise ConfigurationError(
                f"cell {ref.task.label} ({ref.exp}) has no runs under "
                f"fingerprint {ref.key}"
            ) from None

    by_exp: dict[str, list[CellRef]] = {}
    for ref in campaign_cells(campaign):
        by_exp.setdefault(ref.exp, []).append(ref)

    sweeps: dict[str, SweepResult] = {}
    for fig in SWEEP_EXPERIMENTS:
        if fig not in campaign.include:
            continue
        spec = sweep_spec(campaign, fig)
        _, platform_order = cell_tasks(spec)
        cells = {
            (
                make_platform(r.task.kind, r.task.instance, r.task.mode).label(),
                r.task.instance.name,
            ): ExperimentResult(runs_for(r))
            for r in by_exp[fig]
        }
        sweeps[fig] = SweepResult(
            workload=spec.workload.name,
            cells=cells,
            instance_order=[i.name for i in spec.instances],
            platform_order=platform_order,
        )

    chr_bands: dict[str, ChrRange] = {}
    for fig, name in (
        ("fig3", "FFmpeg"), ("fig5", "WordPress"), ("fig6", "Cassandra")
    ):
        if fig in sweeps:
            chr_bands[name] = estimate_suitable_chr_range(
                sweeps[fig], campaign.host
            )

    fig7: dict[tuple[str, str], StatSummary] = {}
    if "fig7" in campaign.include:
        _, keys = fig7_tasks(campaign)
        fig7 = {
            key: summarize([run.value for run in runs_for(r)])
            for key, r in zip(keys, by_exp["fig7"])
        }
    fig8: dict[tuple[str, str], StatSummary] = {}
    if "fig8" in campaign.include:
        _, keys = fig8_tasks(campaign)
        fig8 = {
            key: summarize([run.value for run in runs_for(r)])
            for key, r in zip(keys, by_exp["fig8"])
        }
    loadcurve: LoadCurveResult | None = None
    if "loadcurve" in campaign.include:
        _, keys = loadcurve_tasks(campaign)
        loadcurve = build_loadcurve(
            campaign.loadcurve,
            loadcurve_platform_order(campaign.loadcurve),
            zip(keys, (runs_for(r) for r in by_exp["loadcurve"])),
        )
    return CampaignResult(
        sweeps=sweeps, chr_bands=chr_bands, fig7=fig7, fig8=fig8,
        loadcurve=loadcurve,
    )
