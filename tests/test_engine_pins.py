"""Bit-for-bit pins of the engine's floating-point state.

The four report-level goldens see only makespans and mean responses.
These pins hold the engine's full perf-counter set (and a digest of every
thread's finish time and every operation response) for one case of each
engine path, plus the profiler's exact overhead ledger, and require
exact equality:

* ``split30``: FFmpeg split into 30 clips on a 16-core container,
  480 threads with barriers (the single-group rate step);
* ``wordpress``: one 1,000-request WordPress cell, where disk-queue depth
  makes IO durations depend on the order threads are visited;
* ``colocated_weighted``: two instances sharing a host, one with unequal
  process weights (the multi-group, water-filled rate step);
* ``ledger_vm_pinned_ffmpeg_large``: ``OverheadLedger.from_profile`` for
  FFmpeg on a pinned Large VM (the profiler's per-step hooks).

Regen snippet (only after an intentional engine-semantics change)::

    PYTHONPATH=src python - <<'EOF'
    import json, pathlib, sys
    sys.path.insert(0, "tests")
    from test_engine_pins import CASES
    p = pathlib.Path("tests/golden/engine_counters.json")
    pins = {k: f() for k, f in CASES.items()}
    p.write_text(json.dumps(pins, indent=2) + "\n")
    EOF
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine.simulator import InstanceDeployment, Simulator
from repro.hostmodel.topology import r830_host
from repro.platforms.provisioning import instance_type
from repro.platforms.registry import make_platform
from repro.rng import RngFactory
from repro.run.calibration import Calibration
from repro.run.execution import assemble_overhead_model, prepare_run
from repro.workloads.ffmpeg import FfmpegWorkload
from repro.workloads.wordpress import WordPressWorkload

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_counters.json"


def _digest(values) -> str:
    return hashlib.sha256(
        np.asarray(values, dtype=np.float64).tobytes()
    ).hexdigest()


def _engine_pin(res) -> dict:
    return {
        "makespan": res.makespan,
        "finish_sha256": _digest(res.thread_finish_times),
        "responses_sha256": _digest(res.op_responses),
        "counters": res.counters.to_dict(),
    }


def _prepared(workload, kind, instance, mode, stream):
    platform = make_platform(kind, instance_type(instance), mode)
    rng = RngFactory().fresh_stream(stream)
    return prepare_run(workload, platform, r830_host(), rng=rng)


def split30() -> dict:
    prep = _prepared(
        FfmpegWorkload().split(30), "CN", "4xLarge", "vanilla", "perf"
    )
    return _engine_pin(prep.sim.run())


def wordpress() -> dict:
    prep = _prepared(
        WordPressWorkload(), "CN", "xLarge", "vanilla", "pin/wordpress"
    )
    return _engine_pin(prep.sim.run())


def colocated_weighted() -> dict:
    host = r830_host()
    calib = Calibration()
    rng = RngFactory().fresh_stream("pin/colocated")
    tenants = [
        (FfmpegWorkload().split(4), "CN", "xLarge", "vanilla"),
        (WordPressWorkload(n_requests=200), "VM", "xLarge", "pinned"),
    ]
    deployments = []
    for i, (wl, kind, inst, mode) in enumerate(tenants):
        platform = make_platform(kind, instance_type(inst), mode)
        processes = wl.build(platform.instance.cores, rng)
        if i == 0:
            # unequal CFS weights put the run on the water-filled path
            processes = [
                dataclasses.replace(p, weight=1.0 + (k % 3))
                for k, p in enumerate(processes)
            ]
        deployments.append(
            InstanceDeployment(
                processes=processes,
                capacity=float(platform.instance.cores),
                overhead=assemble_overhead_model(
                    host, platform, calib, wl, processes
                ),
                label=f"t{i}",
            )
        )
    sim = Simulator.colocated(
        deployments, host_capacity=6.0, storage=calib.storage
    )
    assert not sim._uniform_weights and sim.n_groups == 2
    return _engine_pin(sim.run())


def ledger_vm_pinned_ffmpeg_large() -> dict:
    from repro.analysis.ledger import OverheadLedger
    from repro.run.execution import run_once
    from repro.trace.schedprof import SchedProfiler

    profiler = SchedProfiler()
    platform = make_platform("VM", instance_type("Large"), "pinned")
    run_once(
        FfmpegWorkload(), platform, r830_host(),
        rng=RngFactory().fresh_stream("cli-perf"), profiler=profiler,
    )
    return OverheadLedger.from_profile(profiler.profile()).to_dict()


CASES = {
    "split30": split30,
    "wordpress": wordpress,
    "colocated_weighted": colocated_weighted,
    "ledger_vm_pinned_ffmpeg_large": ledger_vm_pinned_ffmpeg_large,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_pin_exact(case, golden):
    # round-trip through JSON so both sides hold the same types
    got = json.loads(json.dumps(CASES[case]()))
    want = golden[case]
    assert got == want
    # timeslice histogram insertion order is part of the contract too
    if "counters" in want:
        assert list(got["counters"]["timeslice_weight"]) == list(
            want["counters"]["timeslice_weight"]
        )
