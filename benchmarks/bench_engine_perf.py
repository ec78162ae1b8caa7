"""Performance budgets that no other check holds.

Not a paper artifact.  Three timed comparisons, each printing its
numbers: serial vs pool+batch speedup (>= 2x on >= 4 CPUs), journal-on
vs journal-off (< 1.5x) and profiler-attached vs detached (< 4x).
Engine throughput itself is measured and gated by the one benchmark,
``benchmarks/bench/bench.py`` (``sim_segments_per_s`` per workload).
"""

from __future__ import annotations

import json
import os
import time

from repro import (
    FfmpegWorkload,
    ParallelRunner,
    instance_type,
    instance_types_upto,
    make_platform,
    r830_host,
    run_once,
    run_platform_sweep,
)
from repro.rng import RngFactory


def test_perf_parallel_sweep_speedup(benchmark):
    """Serial vs ``jobs=4``-batched wall clock on a Fig-3-shaped sweep.

    The parallel path runs the batched multi-cell engine (``batch=True``)
    — the configuration a fabric worker uses.  Times both paths once,
    checks they produce identical results, and prints the speedup.  The
    >= 2x assertion only applies on hosts with at least 4 CPUs — the pool
    cannot beat serial on a single core.
    """
    instances = instance_types_upto(16)
    kwargs = dict(reps=2, seed=7)

    t0 = time.perf_counter()
    serial = run_platform_sweep(FfmpegWorkload(), instances, **kwargs)
    t_serial = time.perf_counter() - t0

    def parallel_sweep():
        return run_platform_sweep(
            FfmpegWorkload(), instances,
            runner=ParallelRunner(4, batch=True), **kwargs,
        )

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
    t_parallel = time.perf_counter() - t0

    # determinism first (JSON form: NaN == NaN for response-less runs)
    assert json.dumps(parallel.to_dict(), sort_keys=True) == json.dumps(
        serial.to_dict(), sort_keys=True
    )

    speedup = t_serial / t_parallel
    cpus = os.cpu_count() or 1
    print(f"\nserial {t_serial:.2f}s  jobs=4+batch {t_parallel:.2f}s  "
          f"speedup x{speedup:.2f} on {cpus} CPUs")
    if cpus >= 4:
        assert speedup >= 2.0


def test_perf_journal_overhead(benchmark, tmp_path):
    """Telemetry cost on a Fig-3-shaped serial sweep: journal off vs a
    streaming :class:`JsonlJournal` vs the inert ``NULL_JOURNAL``.

    Prints the three wall clocks and the on/off ratio.  The null-sink
    path must stay
    within noise of journal-off (it *is* the journal-off code path);
    the full JSONL journal is given generous headroom — its cost is a
    few dozen flushed writes against seconds of simulation.
    """
    from repro.obs import JsonlJournal
    from repro.obs.journal import NULL_JOURNAL

    instances = instance_types_upto(8)
    kwargs = dict(reps=2, seed=13)

    def timed(**extra):
        t0 = time.perf_counter()
        sweep = run_platform_sweep(FfmpegWorkload(), instances, **kwargs, **extra)
        return time.perf_counter() - t0, sweep

    t_off, off = timed()
    t_null, _ = timed(runner=ParallelRunner(journal=NULL_JOURNAL))
    journal = JsonlJournal(tmp_path / "bench.jsonl")

    def journaled():
        return run_platform_sweep(
            FfmpegWorkload(), instances,
            runner=ParallelRunner(journal=journal), **kwargs,
        )

    t0 = time.perf_counter()
    on = benchmark.pedantic(journaled, rounds=1, iterations=1)
    t_on = time.perf_counter() - t0
    journal.close()

    # telemetry must not change results (JSON form: NaN == NaN)
    assert json.dumps(on.to_dict(), sort_keys=True) == json.dumps(
        off.to_dict(), sort_keys=True
    )

    print(f"\noff {t_off:.2f}s  null {t_null:.2f}s  jsonl {t_on:.2f}s  "
          f"ratio x{t_on / t_off:.3f}")
    assert t_on / t_off < 1.5  # journaling must stay cheap vs simulation


def test_perf_profiler_overhead(benchmark):
    """Scheduler-profiler cost on the acceptance case (FFmpeg on
    VM/16xLarge): profiler detached vs a full :class:`SchedProfiler`.

    An attached profiler records every state transition and rate step,
    which also forces the sequential (traced) event path, so it is the
    most expensive observability hook in the tree — the ledger's
    "measure the cost of measuring" discipline applied to itself.
    Checks byte-identity of results either way, prints the wall clocks
    and ratio, and fails if profiling ever costs more than 4x the
    untraced run.
    """
    from repro.analysis.ledger import OverheadLedger
    from repro.trace.schedprof import SchedProfiler

    def once(profiler=None):
        rng = RngFactory().fresh_stream("profiler-overhead")
        return run_once(
            FfmpegWorkload(),
            make_platform("VM", instance_type("16xLarge"), "vanilla"),
            r830_host(),
            rng=rng,
            profiler=profiler,
        )

    rounds = 5
    once()  # warm caches / JIT-free but import-heavy first call
    t0 = time.perf_counter()
    off = [once() for _ in range(rounds)]
    t_off = time.perf_counter() - t0

    profilers = [SchedProfiler() for _ in range(rounds)]

    def profiled_runs():
        return [once(profiler=p) for p in profilers]

    t0 = time.perf_counter()
    on = benchmark.pedantic(profiled_runs, rounds=1, iterations=1)
    t_on = time.perf_counter() - t0

    # profiling must not change results (byte-identity, JSON form)
    assert json.dumps(on[0].to_dict(), sort_keys=True) == json.dumps(
        off[0].to_dict(), sort_keys=True
    )
    ledger = OverheadLedger.from_profile(profilers[0].profile()).check()

    print(f"\noff {t_off / rounds * 1e3:.1f}ms  "
          f"profiled {t_on / rounds * 1e3:.1f}ms  "
          f"ratio x{t_on / t_off:.3f}  "
          f"dominant {ledger.dominant_mechanism()}")
    assert t_on / t_off < 4.0  # profiling stays within small-integer cost
