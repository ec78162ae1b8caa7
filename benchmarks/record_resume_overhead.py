"""Record the cost of checkpointing and the payoff of resume.

Three timed passes over the same fig3 campaign (reps 1, serial):

* ``plain``       — no persistence at all, the baseline;
* ``checkpointed``— a :class:`~repro.run.persistence.CellStore`
  attached, so every completed cell is written atomically as it
  finishes (this is what crash-safety costs);
* ``resume``      — the same campaign re-run against the now-warm
  store, so every cell is replayed from its verified checkpoint
  instead of executed.

Writes ``benchmarks/results/resume_overhead.json`` with the three wall
times, the checkpoint overhead fraction, and the resume speedup, and
asserts the two contracts the docs advertise: checkpoint overhead stays
small and the resumed report is byte-identical to the plain one.

Usage::

    PYTHONPATH=src python benchmarks/record_resume_overhead.py
    PYTHONPATH=src python benchmarks/record_resume_overhead.py \
        --out /tmp/resume_overhead.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import Campaign, CellStore, ParallelRunner, run_campaign
from repro.analysis.report import generate_report

RESULT = Path(__file__).parent / "results" / "resume_overhead.json"


def _campaign() -> Campaign:
    return Campaign(reps_fast=1, include=("fig3",))


def _time(fn, reps: int = 3) -> tuple[float, object]:
    """Best-of-``reps`` wall clock plus the last return value."""
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv: list[str] | None = None) -> int:
    """Run the three passes and write the result file."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(RESULT), help="result path")
    parser.add_argument("--reps", type=int, default=3, help="best-of reps")
    args = parser.parse_args(argv)

    plain_s, plain = _time(lambda: run_campaign(_campaign()), args.reps)

    workdir = Path(tempfile.mkdtemp(prefix="resume-bench-"))
    try:
        # cold store each rep, so every pass pays the full write cost
        def checkpointed():
            shutil.rmtree(workdir / "cells", ignore_errors=True)
            store = CellStore(workdir / "cells")
            return run_campaign(
                _campaign(), runner=ParallelRunner(checkpoint=store)
            )

        ckpt_s, _ = _time(checkpointed, args.reps)

        warm = CellStore(workdir / "cells")
        resumer = ParallelRunner(checkpoint=warm)
        run_campaign(_campaign(), runner=resumer)  # warm the store once
        resume_s, resumed = _time(
            lambda: run_campaign(_campaign(), runner=resumer), args.reps
        )

        if generate_report(resumed) != generate_report(plain):
            print("FAIL: resumed report differs from the plain run")
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    payload = {
        "campaign": "fig3, reps_fast=1, serial",
        "cells": 28,
        "plain_s": plain_s,
        "checkpointed_s": ckpt_s,
        "resume_s": resume_s,
        "checkpoint_overhead_fraction": ckpt_s / plain_s - 1.0,
        "resume_speedup": plain_s / resume_s,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))

    # the campaign here is deliberately tiny (~0.15 s of simulation), so
    # the 28 atomic writes dominate; on real campaigns the fraction
    # shrinks with cell duration.  2x is the runaway guard.
    if ckpt_s > plain_s * 2.0:
        print("FAIL: checkpointing more than doubled the campaign")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
