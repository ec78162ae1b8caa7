"""Property tests for the determinism-preserving parallel executor.

The core invariant: because every repetition's randomness is a pure
function of ``(seed, label, rep)`` carried inside the task, a sweep run
on N worker processes is field-for-field identical to the serial run —
regardless of worker count, scheduling order, injected crashes, or
retries.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import (
    FfmpegWorkload,
    SyntheticWorkload,
    instance_type,
    run_experiment,
    run_platform_sweep,
)
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.platforms.base import PlatformKind
from repro.rng import StreamSpec
from repro.run.campaign import Campaign, run_campaign
from repro.errors import AttemptFailure
from repro.run.experiment import ExperimentSpec, platform_sweep_spec
from repro.run.parallel import (
    CachedCell,
    CellTask,
    ParallelRunner,
    cell_tasks,
    default_jobs,
    execute_cell,
)
from repro.obs.journal import MemoryJournal
from repro.run.persistence import CellStore
from repro.sched.affinity import ProvisioningMode


def tiny_spec(seed=1, reps=2, instances=("Large", "xLarge")) -> ExperimentSpec:
    return ExperimentSpec(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=0.05
        ),
        instances=[instance_type(n) for n in instances],
        platform_grid=[
            (PlatformKind.BM, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.PINNED),
        ],
        reps=reps,
        seed=seed,
    )


def sweep_json(sweep) -> str:
    return json.dumps(sweep.to_dict(), sort_keys=True)


# -- crash/chaos workers (module-level: must be picklable) -----------------


def _crashing_execute_cell(payload):
    """Raise once per (sentinel, task) pair, then behave normally."""
    task, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write(task.label)
        raise RuntimeError(f"injected crash for {task.label}")
    return execute_cell(task)


def _dying_execute_cell(payload):
    """Kill the whole worker process once (breaks the pool), then work."""
    task, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write(task.label)
        os._exit(13)
    return execute_cell(task)


def _sleepy_worker(payload):
    time.sleep(payload)
    return payload


def _flaky_add_one(payload):
    value, sentinel = payload
    if value == 3 and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        raise ValueError("flaky")
    return value + 1


def _always_fails(payload):
    raise RuntimeError("permanent failure")


def _failing_batch_group(tasks):
    raise RuntimeError("batched group failed")


def runs_json(cell_runs) -> str:
    return json.dumps(
        [[r.to_dict() for r in runs] for runs in cell_runs], sort_keys=True
    )


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 0x5EED_2020])
    def test_sweep_identical_across_job_counts(self, seed):
        spec = tiny_spec(seed=seed)
        serial = run_experiment(spec)
        for jobs in (2, 4):
            parallel = run_experiment(spec, runner=ParallelRunner(jobs))
            assert sweep_json(parallel) == sweep_json(serial)

    def test_platform_sweep_jobs_param(self):
        wl = FfmpegWorkload(video_seconds=0.5, n_sync_chunks=4)
        insts = [instance_type("Large")]
        serial = run_platform_sweep(wl, insts, reps=2, seed=9)
        parallel = run_platform_sweep(
            wl, insts, reps=2, seed=9, runner=ParallelRunner(3)
        )
        assert sweep_json(parallel) == sweep_json(serial)

    def test_cell_order_matches_serial(self):
        spec = tiny_spec()
        serial = run_experiment(spec)
        parallel = run_experiment(spec, runner=ParallelRunner(2))
        assert list(parallel.cells) == list(serial.cells)
        assert parallel.platform_order == serial.platform_order
        assert parallel.instance_order == serial.instance_order

    def test_campaign_identical(self):
        campaign = Campaign(reps_fast=1, reps_io=1, include=("fig7", "fig8"))
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, runner=ParallelRunner(4))
        assert parallel.fig7 == serial.fig7
        assert parallel.fig8 == serial.fig8

    def test_campaign_sweep_byte_identical_after_json_roundtrip(self, tmp_path):
        """Acceptance: a 4-job campaign's sweeps are byte-identical to
        the serial run at the same seed, after a JSON save/load cycle."""
        from repro.run.results import SweepResult

        campaign = Campaign(reps_fast=1, reps_io=1, include=("fig3",))
        serial = run_campaign(campaign).sweep("fig3")
        parallel = run_campaign(
            campaign, runner=ParallelRunner(4)
        ).sweep("fig3")
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        serial.save(a)
        parallel.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert sweep_json(SweepResult.load(a)) == sweep_json(
            SweepResult.load(b)
        )

    def test_stream_spec_equals_factory_stream(self):
        from repro.rng import RngFactory

        factory = RngFactory(seed=123)
        spec = factory.stream_spec("x/y", rep=5)
        assert spec == StreamSpec(seed=123, label="x/y", rep=5)
        a = factory.fresh_stream("x/y", rep=5).random(8)
        b = spec.make().random(8)
        assert (a == b).all()


class TestLargeNGolden:
    def test_multitask_split30_matches_pre_refactor_engine(self):
        """480 threads with barriers on a 16-core instance — the largest
        homogeneous-wave case — pinned bit-for-bit against the output of
        the pre-compiled-tables engine (tests/golden/engine_large_n.json).

        Exact float equality on purpose: the compiled-table/calendar hot
        path guarantees IEEE-identical results, and this is the case
        that exercises the batched wave advance hardest.
        """
        from pathlib import Path

        from repro import make_platform, r830_host, run_once
        from repro.rng import RngFactory

        golden = json.loads(
            (Path(__file__).parent / "golden" / "engine_large_n.json")
            .read_text()
        )
        rng = RngFactory().fresh_stream("perf")
        rr = run_once(
            FfmpegWorkload().split(30),
            make_platform("CN", instance_type("4xLarge"), "vanilla"),
            r830_host(),
            rng=rng,
        )
        assert rr.value == golden["value"]
        assert rr.makespan == golden["makespan"]


class TestFailureInjection:
    def test_crashing_worker_retries_to_identical_output(self, tmp_path):
        """A worker that raises once is retried; the final sweep is
        byte-identical to the clean parallel run."""
        spec = tiny_spec(seed=4)
        tasks, platform_order = cell_tasks(spec)
        clean = ParallelRunner(4).run_tasks(execute_cell, tasks)

        sentinel = str(tmp_path / "crash-once")
        payloads = [(t, sentinel) for t in tasks]
        retried = ParallelRunner(4, retries=2).run_tasks(
            _crashing_execute_cell, payloads
        )
        assert os.path.exists(sentinel)  # the crash really happened
        flat = lambda runs: [r.to_dict() for cell in runs for r in cell]
        assert json.dumps(flat(retried), sort_keys=True) == json.dumps(
            flat(clean), sort_keys=True
        )

    def test_dead_worker_process_rebuilds_pool(self, tmp_path):
        """os._exit in a worker breaks the executor; the runner rebuilds
        it and still completes with correct results."""
        spec = tiny_spec(seed=5, instances=("Large",))
        tasks, _ = cell_tasks(spec)
        sentinel = str(tmp_path / "die-once")
        payloads = [(t, sentinel) for t in tasks]
        results = ParallelRunner(2, retries=2).run_tasks(
            _dying_execute_cell, payloads
        )
        clean = ParallelRunner(1).run_tasks(execute_cell, tasks)
        assert [len(r) for r in results] == [len(r) for r in clean]
        assert [
            [run.value for run in cell] for cell in results
        ] == [[run.value for run in cell] for cell in clean]

    def test_pool_break_at_submit_rebuilds_pool(self, monkeypatch):
        """A pool that breaks while tasks are still being submitted
        (``submit`` raises ``BrokenProcessPool``) is handled like a break
        at ``result``: one rebuild, the uncollected tasks resubmitted,
        and results identical to the inline run."""
        from concurrent.futures.process import BrokenProcessPool

        tasks, _ = cell_tasks(tiny_spec(seed=6, instances=("Large",)))
        built = []
        new_executor = ParallelRunner._new_executor

        def breaking_executor(runner):
            executor = new_executor(runner)
            if not built:
                submit, calls = executor.submit, []

                def submit_once_broken(*args, **kwargs):
                    calls.append(args)
                    if len(calls) == 2:
                        raise BrokenProcessPool("pool broke at submit")
                    return submit(*args, **kwargs)

                executor.submit = submit_once_broken
            built.append(executor)
            return executor

        monkeypatch.setattr(ParallelRunner, "_new_executor", breaking_executor)
        jl = MemoryJournal()
        results = ParallelRunner(2, journal=jl).run_tasks(execute_cell, tasks)
        clean = ParallelRunner(1).run_tasks(execute_cell, tasks)
        assert runs_json(results) == runs_json(clean)
        assert jl.count("pool-rebuilt") == 1
        assert len(built) == 2

    def test_batched_group_failure_carries_history(self, monkeypatch):
        """A batched group that exhausts its retries on the pool raises
        with one :class:`AttemptFailure` per attempt, like a scalar
        cell."""
        import repro.run.parallel as par

        # patched before the pool forks, to a picklable module function
        monkeypatch.setattr(par, "_execute_batch_group", _failing_batch_group)
        tasks, _ = cell_tasks(tiny_spec(seed=7, instances=("Large",)))
        runner = ParallelRunner(2, retries=1, batch=True)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(execute_cell, tasks)
        err = exc_info.value
        assert err.reason == "exception"
        assert len(err.failures) == runner.retries + 1
        assert [f.attempt for f in err.failures] == [1, 2]
        assert all("batched group failed" in f.error for f in err.failures)

    def test_retries_exhausted_raises_structured_error(self):
        runner = ParallelRunner(2, retries=1)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(_always_fails, ["a", "b"])
        err = exc_info.value
        assert err.reason == "exception"
        assert err.attempts == 2  # first try + one retry
        assert "permanent failure" in str(err)
        assert len(err.failures) == 2
        assert [f.attempt for f in err.failures] == [1, 2]
        assert all(isinstance(f, AttemptFailure) for f in err.failures)
        assert all("permanent failure" in f.error for f in err.failures)

    def test_timeout_surfaces_instead_of_hanging(self):
        runner = ParallelRunner(2, timeout=0.2, retries=0)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(_sleepy_worker, [30.0])
        assert exc_info.value.reason == "timeout"

    def test_inline_path_also_retries(self, tmp_path):
        sentinel = str(tmp_path / "flaky")
        runner = ParallelRunner(1, retries=1)
        out = runner.run_tasks(
            _flaky_add_one, [(v, sentinel) for v in range(5)]
        )
        assert out == [1, 2, 3, 4, 5]
        assert os.path.exists(sentinel)

    def test_inline_retries_exhausted(self):
        with pytest.raises(ParallelExecutionError) as exc_info:
            ParallelRunner(1, retries=1).run_tasks(_always_fails, [1])
        err = exc_info.value
        assert len(err.failures) == 2
        # the inline path runs in this process, so the worker id is known
        assert all(f.worker == f"pid-{os.getpid()}" for f in err.failures)
        assert "history" in str(err)

    def test_timeout_error_carries_failure_history(self):
        runner = ParallelRunner(2, timeout=0.2, retries=0)
        with pytest.raises(ParallelExecutionError) as exc_info:
            runner.run_tasks(_sleepy_worker, [30.0])
        err = exc_info.value
        assert len(err.failures) == 1
        assert "timeout" in err.failures[0].error


class TestRunnerConfig:
    def test_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(0)

    def test_bad_retries(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(2, retries=-1)

    def test_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(2, timeout=0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_empty_task_list(self):
        assert ParallelRunner(4).run_tasks(_always_fails, []) == []

    def test_cell_task_label(self):
        spec = tiny_spec(instances=("Large",))
        tasks, _ = cell_tasks(spec)
        assert tasks[0].label == "Synthetic/vanilla BM/Large"


class TestProgressReporting:
    @pytest.mark.parametrize(
        "jobs,batch,warm",
        [
            pytest.param(1, False, False, id="1"),
            pytest.param(3, False, False, id="3"),
            pytest.param(1, True, False, id="1-batch"),
            pytest.param(2, True, False, id="2-batch"),
            pytest.param(1, False, True, id="1-resume"),
            pytest.param(3, False, True, id="3-resume"),
            pytest.param(2, True, True, id="2-batch-resume"),
        ],
    )
    def test_progress_counts_every_task(self, jobs, batch, warm, tmp_path):
        """On every leg ``done`` runs 1..n exactly once with ``total ==
        n``; checkpoint-replayed cells (``warm``: every other cell was
        checkpointed beforehand) arrive first, as resumed
        :class:`CachedCell` payloads."""
        tasks, _ = cell_tasks(tiny_spec(seed=2))
        store = CellStore(tmp_path / "cells") if warm else None
        if warm:
            ParallelRunner(1, checkpoint=store).run_tasks(
                execute_cell, tasks[::2]
            )
        seen: list[tuple[int, int, object]] = []
        runner = ParallelRunner(
            jobs, batch=batch, checkpoint=store,
            progress=lambda d, t, payload: seen.append((d, t, payload)),
        )
        runner.run_tasks(execute_cell, tasks)
        n = len(tasks)
        assert [d for d, _, _ in seen] == list(range(1, n + 1))
        assert all(t == n for _, t, _ in seen)
        payloads = [p for _, _, p in seen]
        replayed = [p for p in payloads if isinstance(p, CachedCell)]
        assert [p.task for p in replayed] == (tasks[::2] if warm else [])
        assert payloads[: len(replayed)] == replayed
        labels = [p.label for p in payloads]
        assert sorted(labels) == sorted(t.label for t in tasks)
        if not (warm or batch):
            assert labels == [t.label for t in tasks]


class TestCacheIntegration:
    """A checkpoint store is the sweep's cache on every leg."""

    def test_parallel_run_writes_cache(self, tmp_path):
        store = CellStore(tmp_path)
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        sweep = run_platform_sweep(
            wl, insts, reps=1, seed=3,
            runner=ParallelRunner(2, checkpoint=store),
        )
        assert len(list(tmp_path.glob("cell-*.json"))) == 7
        jl = MemoryJournal()
        cached = run_platform_sweep(
            wl, insts, reps=1, seed=3,
            runner=ParallelRunner(2, checkpoint=store, journal=jl),
        )
        assert sweep_json(cached) == sweep_json(sweep)
        # a warm re-run submits nothing to the pool
        assert jl.count("cell-resumed") == 7
        assert jl.count("cell-queued") == 0

    def test_warm_cache_reports_tagged_progress(self, tmp_path):
        """The checkpoint probe happens before submission, but replayed
        cells still reach the progress callback — as :class:`CachedCell`
        payloads with an accurate (done, total) — instead of silently
        vanishing."""
        store = CellStore(tmp_path)
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        run_platform_sweep(
            wl, insts, reps=1, seed=3, runner=ParallelRunner(checkpoint=store)
        )

        events: list[tuple[int, int, object]] = []
        runner = ParallelRunner(
            2, checkpoint=store,
            progress=lambda d, t, task: events.append((d, t, task)),
        )
        run_platform_sweep(wl, insts, reps=1, seed=3, runner=runner)
        spec = platform_sweep_spec(wl, insts, reps=1, seed=3)
        tasks, _ = cell_tasks(spec)
        assert [d for d, _, _ in events] == list(range(1, len(tasks) + 1))
        assert all(t == len(tasks) for _, t, _ in events)
        assert all(isinstance(p, CachedCell) for _, _, p in events)
        assert [p.label for _, _, p in events] == [t.label for t in tasks]

    def test_serial_and_parallel_share_cache_entries(self, tmp_path):
        """Identical cell -> identical fingerprint -> one entry, whichever
        path ran first."""
        store = CellStore(tmp_path)
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        run_platform_sweep(
            wl, insts, reps=1, seed=3, runner=ParallelRunner(checkpoint=store)
        )
        jl = MemoryJournal()
        run_platform_sweep(
            wl, insts, reps=1, seed=3,
            runner=ParallelRunner(2, checkpoint=store, journal=jl),
        )
        assert len(list(tmp_path.glob("cell-*.json"))) == 7
        assert jl.count("cell-resumed") == 7
