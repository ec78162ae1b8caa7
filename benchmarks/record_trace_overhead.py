"""Record or check the span-tracing overhead budget.

Span tracing (``--trace``) must be close to free relative to a
journaled campaign: with tracing off the engine hot path pays one
module-global read (``active_tracer()``) per cell, and with tracing on
each compile/advance/checkpoint phase appends one pre-serialised span
event to the journal the campaign already writes.  This script times an
identical journaled campaign with tracing off and on (best-of-N each,
same seeds), verifies the rendered report is byte-identical both ways,
and either updates ``benchmarks/results/trace_overhead.json`` or checks
the current tree against the committed ratio budget.

Usage::

    # re-record the committed baseline
    PYTHONPATH=src python benchmarks/record_trace_overhead.py

    # CI gate: fail when tracing-on is > 1.05x tracing-off
    PYTHONPATH=src python benchmarks/record_trace_overhead.py \
        --check --tolerance 1.05 --out /tmp/trace_overhead.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import Campaign, ParallelRunner
from repro.analysis.report import generate_report
from repro.obs import MemoryJournal, SpanTracer, TraceContext, mint_trace_id
from repro.run.campaign import run_campaign

BASELINE = Path(__file__).parent / "results" / "trace_overhead.json"

#: (campaign factory, label) — fig8 at reps_fast=2 is the smallest
#: campaign that exercises every traced phase (compile, one advance per
#: repetition, checkpoint-free finish) across several cells, and fig3
#: adds the sweep-heavy path where per-cell tracing cost is amortised
#: over larger cells.
CASES = {
    "fig8": lambda: Campaign(reps_fast=2, include=("fig8",)),
    "fig3": lambda: Campaign(reps_fast=1, include=("fig3",)),
}


def _ctx(name: str) -> TraceContext:
    return TraceContext(mint_trace_id(f"overhead:{name}"))


def _run(campaign: Campaign, name: str | None = None):
    """One journaled campaign; a ``name`` turns span tracing on."""
    journal = MemoryJournal()
    tracer = SpanTracer(journal, _ctx(name)) if name else None
    runner = ParallelRunner(journal=journal, tracer=tracer)
    try:
        return run_campaign(campaign, runner=runner)
    finally:
        runner.tracer.close()


def _one_timing(name: str, traced: bool) -> float:
    """Wall clock of one journaled campaign, tracing off or on."""
    campaign = CASES[name]()
    t0 = time.perf_counter()
    _run(campaign, name if traced else None)
    return time.perf_counter() - t0


def time_case(name: str, reps: int = 5) -> tuple[float, float]:
    """Best-of-``reps`` (off, on) wall clock, interleaved.

    Off and on timings alternate within each repetition so slow drift
    (thermal, noisy-neighbour CPU) cancels out of the ratio instead of
    landing entirely on one side.
    """
    _one_timing(name, traced=True)  # warmup: imports, caches, allocator
    best_off = best_on = float("inf")
    for _ in range(reps):
        best_off = min(best_off, _one_timing(name, traced=False))
        best_on = min(best_on, _one_timing(name, traced=True))
    return best_off, best_on


def check_report_identity() -> None:
    """Tracing must not perturb a single rendered report byte."""
    for name in CASES:
        campaign = CASES[name]()
        plain = generate_report(_run(campaign))
        traced = generate_report(_run(campaign, name))
        assert plain == traced, f"{name}: tracing changed the rendered report"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed budget instead of recording",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=1.05,
        help="check mode: fail when on/off exceeds this ratio",
    )
    ap.add_argument(
        "--reps", type=int, default=5, help="timing repetitions per case"
    )
    ap.add_argument(
        "--out", type=Path, default=None, help="also write measured ratios here"
    )
    args = ap.parse_args()

    check_report_identity()
    print("report identity: tracing on == tracing off (byte-for-byte)")

    measured: dict[str, dict[str, float]] = {}
    for name in CASES:
        off, on = time_case(name, reps=args.reps)
        measured[name] = {
            "off_s": round(off, 4),
            "on_s": round(on, 4),
            "ratio": round(on / off, 3),
        }
        print(f"{name:10s} off {off:.4f}s  on {on:.4f}s  x{on / off:.3f}")

    if args.out:
        args.out.write_text(json.dumps(measured, indent=2, sort_keys=True))
        print(f"timings -> {args.out}")

    if args.check:
        failed = [
            name for name, m in measured.items() if m["ratio"] > args.tolerance
        ]
        if failed:
            print(
                f"FAIL: tracing overhead exceeds {args.tolerance}x for "
                f"{failed} (budget in {BASELINE})",
                file=sys.stderr,
            )
            return 1
        print(f"tracing overhead within {args.tolerance}x budget")
        return 0

    data = {
        "cases": measured,
        "budget_ratio": args.tolerance,
        "note": (
            "Journaled campaign wall clock with span tracing off vs on "
            f"(best of {args.reps}, seeds fixed). Tracing off costs one "
            "module-global read per cell; tracing on appends one span "
            "event per engine phase to the journal the campaign already "
            "writes, so the on/off ratio must stay within budget_ratio. "
            "Re-record with benchmarks/record_trace_overhead.py."
        ),
    }
    BASELINE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"baseline -> {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
