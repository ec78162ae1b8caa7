"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Calibration,
    CassandraWorkload,
    FfmpegWorkload,
    MpiSearchWorkload,
    WordPressWorkload,
    instance_type,
    make_platform,
    r830_host,
)
from repro.hostmodel.topology import make_host, small_host
from repro.run.campaign import Campaign, run_campaign, sweep_spec
from repro.run.experiment import platform_sweep_spec
from repro.run.parallel import cell_tasks
from repro.run.persistence import task_fingerprint


@pytest.fixture(scope="session")
def host():
    """The paper's 112-CPU DELL R830."""
    return r830_host()


@pytest.fixture(scope="session")
def host16():
    """The 16-CPU host of the Fig. 7 CHR experiment."""
    return small_host(16)


@pytest.fixture(scope="session")
def calib():
    """Default calibration."""
    return Calibration()


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def xlarge():
    return instance_type("xLarge")


@pytest.fixture(scope="session")
def large():
    return instance_type("Large")


@pytest.fixture(scope="session")
def four_xlarge():
    return instance_type("4xLarge")


# --- the paper campaign, computed once per session ------------------------


def _paper_campaign() -> Campaign:
    return Campaign(reps_fast=1, reps_io=1)


@pytest.fixture(scope="session")
def paper_campaign():
    """The default-seed, one-repetition paper campaign (every figure)."""
    return run_campaign(_paper_campaign())


@pytest.fixture(scope="session")
def paper_sweep(paper_campaign):
    """``paper_sweep(fig, workload, instances)``: the campaign's ``fig``
    sweep, after checking it has the cells, in order, of
    ``run_platform_sweep(workload, instances, reps=1)``."""

    def cells(spec) -> list[str]:
        return [task_fingerprint(t) for t in cell_tasks(spec)]

    def sweep(fig, workload, instances):
        shared = cells(sweep_spec(_paper_campaign(), fig))
        own = cells(platform_sweep_spec(workload, instances, reps=1))
        assert shared == own, f"{fig}: shared sweep has different cells"
        return paper_campaign.sweep(fig)

    return sweep


# --- small, fast workload variants for engine-level tests -----------------


@pytest.fixture()
def tiny_ffmpeg():
    """A shrunken FFmpeg: same structure, ~100x less work."""
    return FfmpegWorkload(video_seconds=0.5, n_sync_chunks=4, jitter_sigma=0.0)


@pytest.fixture()
def tiny_wordpress():
    """A shrunken WordPress: 40 requests."""
    return WordPressWorkload(n_requests=40, jitter_sigma=0.0)


@pytest.fixture()
def tiny_cassandra():
    """A shrunken Cassandra: 60 ops on 12 threads."""
    return CassandraWorkload(
        n_operations=60, n_threads=12, jitter_sigma=0.0
    )


@pytest.fixture()
def tiny_mpi():
    """A shrunken MPI Search: 6 rounds."""
    return MpiSearchWorkload(
        total_work=2.0, n_rounds=6, comm_seconds_per_rank=0.3, jitter_sigma=0.0
    )


def make(kind: str, inst_name: str, mode: str = "vanilla"):
    """Shorthand platform builder used across tests."""
    return make_platform(kind, instance_type(inst_name), mode)


@pytest.fixture(scope="session")
def platform_factory():
    return make
