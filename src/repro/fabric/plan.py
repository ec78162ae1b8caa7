"""Queue manifests and shards: a campaign plan committed to a directory.

The campaign plan itself — the ordered cell list
(:func:`~repro.run.campaign.campaign_cells`), its fingerprint and the
result assembler — lives in :mod:`repro.run.campaign`.  This module
commits a plan to a fabric queue: :func:`manifest_for_campaign` records
the campaign and the plan fingerprint, :func:`campaign_from_manifest`
rebuilds the exact campaign in every worker (which re-derives the plan
and checks its fingerprint before claiming work, so version skew between
coordinator and workers fails loudly instead of merging silently
divergent cells), and :func:`shard_ranges` cuts the plan into contiguous
shards.
"""

from __future__ import annotations

from repro.analysis.loadcurve import LoadCurveConfig
from repro.errors import ConfigurationError
from repro.hostmodel.topology import r830_host, small_host
from repro.run.calibration import Calibration
from repro.run.campaign import Campaign, campaign_cells, plan_fingerprint

__all__ = [
    "MANIFEST_SCHEMA",
    "campaign_from_manifest",
    "manifest_for_campaign",
    "shard_ranges",
]

#: Version of the queue manifest layout; bump on incompatible change.
MANIFEST_SCHEMA = 1


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
