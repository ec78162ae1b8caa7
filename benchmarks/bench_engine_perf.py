"""Engine micro-benchmarks: simulation throughput itself.

Not a paper artifact — these track the performance of the simulator so
that regressions in the compiled-table event loop are caught.  Timed
with full pytest-benchmark statistics (multiple rounds), unlike the
one-shot figure benches.

The committed reference numbers for the four ``test_perf_*_run`` cases
live in ``benchmarks/results/engine_throughput.json`` (recorded via
``benchmarks/record_throughput.py``); CI's ``perf-smoke`` job fails only
when a case regresses >2x against them.
"""

from __future__ import annotations

import json
import os
import time

from repro import (
    CassandraWorkload,
    FfmpegWorkload,
    ParallelRunner,
    WordPressWorkload,
    instance_type,
    instance_types_upto,
    make_platform,
    r830_host,
    run_once,
    run_platform_sweep,
)
from repro.rng import RngFactory


def _run(wl, kind="CN", inst="xLarge", mode="vanilla"):
    rng = RngFactory().fresh_stream("perf")
    return run_once(
        wl, make_platform(kind, instance_type(inst), mode), r830_host(), rng=rng
    )


def test_perf_ffmpeg_run(benchmark):
    """One FFmpeg transcode simulation (tens of threads, barriers)."""
    result = benchmark(_run, FfmpegWorkload())
    assert result.value > 0


def test_perf_wordpress_run(benchmark):
    """One WordPress run: 1000 single-thread processes."""
    result = benchmark(_run, WordPressWorkload())
    assert result.value > 0


def test_perf_cassandra_run(benchmark):
    """One Cassandra run: 100 threads x 1000 marked operations."""
    result = benchmark(_run, CassandraWorkload())
    assert result.value > 0


def test_perf_multitask_run(benchmark):
    """The heaviest engine case: 480 threads with barriers (Fig 8)."""
    result = benchmark(_run, FfmpegWorkload().split(30), inst="4xLarge")
    assert result.value > 0


def test_perf_parallel_sweep_speedup(benchmark, results_dir):
    """Serial vs ``jobs=4``-batched wall clock on a Fig-3-shaped sweep.

    The parallel path runs the batched multi-cell engine (``batch=True``)
    — the configuration a fabric worker uses.  Times both paths once,
    checks they produce identical results, and records the speedup to
    ``results/parallel_speedup.json``.  The >= 2x assertion only applies
    on hosts with at least 4 CPUs — the pool cannot beat serial on a
    single core.
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
    record = {
        "serial_s": t_serial,
        "parallel_jobs4_s": t_parallel,
        "speedup": speedup,
        "cpus": cpus,
        "batch": True,
    }
    (results_dir / "parallel_speedup.json").write_text(
        json.dumps(record, indent=2)
    )
    print(f"\nserial {t_serial:.2f}s  jobs=4+batch {t_parallel:.2f}s  "
          f"speedup x{speedup:.2f} on {cpus} CPUs")
    if cpus >= 4:
        assert speedup >= 2.0


def test_perf_journal_overhead(benchmark, results_dir, tmp_path):
    """Telemetry cost on a Fig-3-shaped serial sweep: journal off vs a
    streaming :class:`JsonlJournal` vs the inert ``NULL_JOURNAL``.

    Records the three wall clocks and the on/off ratio to
    ``results/journal_overhead.json``.  The null-sink path must stay
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

    record = {
        "journal_off_s": t_off,
        "null_journal_s": t_null,
        "jsonl_journal_s": t_on,
        "overhead_ratio": t_on / t_off,
        "events": sum(1 for _ in open(journal.path)),
    }
    (results_dir / "journal_overhead.json").write_text(
        json.dumps(record, indent=2)
    )
    print(f"\noff {t_off:.2f}s  null {t_null:.2f}s  jsonl {t_on:.2f}s  "
          f"ratio x{record['overhead_ratio']:.3f}")
    assert t_on / t_off < 1.5  # journaling must stay cheap vs simulation


def test_perf_profiler_overhead(benchmark, results_dir):
    """Scheduler-profiler cost on the acceptance case (FFmpeg on
    VM/16xLarge): profiler detached vs a full :class:`SchedProfiler`.

    An attached profiler records every state transition and rate step,
    which also forces the sequential (traced) event path, so it is the
    most expensive observability hook in the tree — the ledger's
    "measure the cost of measuring" discipline applied to itself.
    Checks byte-identity of results either way, records the wall clocks
    and ratio to ``results/profiler_overhead.json``, and fails if
    profiling ever costs more than 4x the untraced run.
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

    record = {
        "profiler_off_s": t_off / rounds,
        "profiler_on_s": t_on / rounds,
        "overhead_ratio": t_on / t_off,
        "rounds": rounds,
        "ledger_residual": ledger.residual,
        "dominant_mechanism": ledger.dominant_mechanism(),
    }
    (results_dir / "profiler_overhead.json").write_text(
        json.dumps(record, indent=2)
    )
    print(f"\noff {t_off / rounds * 1e3:.1f}ms  "
          f"profiled {t_on / rounds * 1e3:.1f}ms  "
          f"ratio x{record['overhead_ratio']:.3f}")
    assert t_on / t_off < 4.0  # profiling stays within small-integer cost
