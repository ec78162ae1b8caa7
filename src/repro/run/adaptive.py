"""Adaptive sweep execution: CI-targeted rep allocation over a grid.

:func:`run_adaptive_sweep` is the executable half of
:class:`~repro.analysis.adaptive.AdaptiveRepsPolicy` (the pure stopping
rule lives in :mod:`repro.analysis` so the analysis layer never imports
the run layer).  Round structure:

1. every cell runs ``policy.initial(reps)`` repetitions;
2. each round, cells whose CI still misses the target get
   ``policy.round_reps`` more — as *extension tasks* whose stream
   recipes continue the cell's rep sequence exactly where it stopped
   (rep ``r`` of a cell is the same :class:`~repro.rng.StreamSpec`
   whether it ran in the uniform protocol, the first adaptive round, or
   the fifth);
3. stop when every cell meets the target or hits the cap
   (``policy.max_reps`` or the sweep's uniform count).

Determinism contract: allocation decisions read only measured values,
and every measured value is a pure function of the campaign seed — so
the allocation, the per-cell rep counts, and the final
:class:`~repro.run.results.SweepResult` are a pure function of
(spec, policy).  Extension tasks are content-fingerprinted like any
cell task, so a checkpoint store resumes interrupted adaptive sweeps to
identical bytes.  The fingerprint covers each repetition's stream
recipe, so a checkpoint replays only a cell with exactly the same
repetitions, whichever sweep wrote it.

Why this is a path of its own: a uniform campaign is one up-front plan
of cells (:func:`repro.run.campaign.campaign_cells`) run in one
``run_tasks`` call, but the cells of an adaptive round depend on the
values measured in the round before, so the rounds cannot form one
plan.  :func:`~repro.run.campaign.run_campaign` runs each adaptive
sweep here first, then the rest of its plan, and hands the finished
sweeps to the same :func:`~repro.run.campaign.assemble_result`.
"""

from __future__ import annotations

import dataclasses
import time

from repro.analysis.adaptive import AdaptiveRepsPolicy
from repro.hostmodel.topology import HostTopology
from repro.platforms.provisioning import InstanceType
from repro.rng import DEFAULT_SEED, RngFactory
from repro.run.calibration import Calibration
from repro.run.experiment import platform_sweep_spec, sweep_result
from repro.run.parallel import ParallelRunner, cell_tasks, execute_cell
from repro.run.results import SweepResult
from repro.workloads.base import Workload

__all__ = ["run_adaptive_sweep"]


def run_adaptive_sweep(
    workload: Workload,
    instances: list[InstanceType],
    policy: AdaptiveRepsPolicy,
    *,
    host: HostTopology | None = None,
    reps: int = 20,
    calib: Calibration | None = None,
    seed: int = DEFAULT_SEED,
    runner: ParallelRunner | None = None,
) -> SweepResult:
    """Run the standard seven-platform sweep under a rep-allocation policy.

    Drop-in sibling of
    :func:`~repro.run.experiment.run_platform_sweep`: same grid, same
    paired stream design, but each cell's repetition count is decided by
    ``policy`` instead of being uniformly ``reps``.  ``reps`` still
    matters — it is the default per-cell cap (the budget the uniform
    protocol would have spent).  Each allocation round is journaled as a
    ``reps-allocated`` event carrying the per-cell grants in the journal
    of ``runner``, which holds every execution option (default: a
    one-job :class:`~repro.run.parallel.ParallelRunner`).
    """
    runner = runner or ParallelRunner()
    jl = runner.journal

    cap = policy.cap(reps)
    spec = platform_sweep_spec(
        workload,
        instances,
        host=host,
        reps=policy.initial(reps),
        calib=calib,
        seed=seed,
    )
    if jl.enabled:
        jl.record(
            "sweep-started", label=spec.workload.name,
            detail=f"adaptive base={spec.reps} cap={cap}",
        )
    t0 = time.perf_counter()
    tasks = cell_tasks(spec)
    runs = [list(r) for r in runner.run_tasks(execute_cell, tasks)]
    reps_done = [spec.reps] * len(tasks)

    factory = RngFactory(seed=spec.seed)
    round_no = 0
    while True:
        needy = [
            i
            for i in range(len(tasks))
            if reps_done[i] < cap
            and policy.needs_more([r.value for r in runs[i]])
        ]
        if not needy:
            break
        round_no += 1
        grants: dict[str, int] = {}
        ext_tasks = []
        for i in needy:
            span = min(policy.round_reps, cap - reps_done[i])
            stream_label = f"{spec.workload.name}/{tasks[i].instance.name}"
            streams = tuple(
                factory.stream_spec(stream_label, rep=r)
                for r in range(reps_done[i], reps_done[i] + span)
            )
            ext_tasks.append(dataclasses.replace(tasks[i], streams=streams))
            grants[tasks[i].label] = span
        if jl.enabled:
            jl.record(
                "reps-allocated",
                label=spec.workload.name,
                extra={"round": round_no, "grants": grants},
            )
        ext_runs = runner.run_tasks(execute_cell, ext_tasks)
        for i, extra in zip(needy, ext_runs):
            runs[i].extend(extra)
            reps_done[i] += len(extra)

    if jl.enabled:
        # Cells that exhausted the rep cap while the policy still wanted
        # more: surfaced for the `ci-unconverged` health rule.
        unconverged = sorted(
            tasks[i].label
            for i in range(len(tasks))
            if reps_done[i] >= cap
            and policy.needs_more([r.value for r in runs[i]])
        )
        jl.record(
            "sweep-finished", label=spec.workload.name,
            duration=time.perf_counter() - t0,
            extra={
                "rounds": round_no,
                "reps_total": sum(reps_done),
                "unconverged": unconverged,
            },
        )
    return sweep_result(spec, tasks, runs)
