"""Tests for the cell result store and the content fingerprints."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Calibration, SyntheticWorkload, instance_type
from repro.hostmodel.topology import r830_host, small_host
from repro.platforms.base import PlatformKind
from repro.rng import RngFactory
from repro.run.experiment import ExperimentSpec
from repro.run.parallel import CellTask
from repro.run.persistence import CellStore, task_fingerprint
from repro.sched.affinity import ProvisioningMode


def make_spec(reps=1, seed=1, work=0.05):
    return ExperimentSpec(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=work
        ),
        instances=[instance_type("Large")],
        platform_grid=[
            (PlatformKind.BM, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.PINNED),
        ],
        reps=reps,
        seed=seed,
    )


def make_task(reps=1, seed=1, work=0.05, **fields):
    """One cell task; ``fields`` replace single task fields."""
    factory = RngFactory(seed=seed)
    task = CellTask(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=work
        ),
        kind=PlatformKind.CN,
        mode=ProvisioningMode.PINNED,
        instance=instance_type("Large"),
        host=r830_host(),
        calib=Calibration(),
        streams=tuple(
            factory.stream_spec("fingerprint-cell", rep=rep)
            for rep in range(reps)
        ),
    )
    return dataclasses.replace(task, **fields)


class _RenamedSynthetic(SyntheticWorkload):
    """Same parameters as its parent, different workload identity."""


class TestFingerprint:
    def test_stable(self):
        assert task_fingerprint(make_task()) == task_fingerprint(make_task())

    def test_changes_with_seed(self):
        assert task_fingerprint(make_task(seed=1)) != task_fingerprint(
            make_task(seed=2)
        )

    def test_changes_with_reps(self):
        assert task_fingerprint(make_task(reps=1)) != task_fingerprint(
            make_task(reps=2)
        )

    def test_changes_with_workload_params(self):
        assert task_fingerprint(make_task(work=0.05)) != task_fingerprint(
            make_task(work=0.06)
        )

    def test_changes_with_calibration(self):
        assert task_fingerprint(make_task()) != task_fingerprint(
            make_task(calib=Calibration(ctx_switch_cost=1e-6))
        )

    def test_changes_with_host_topology(self):
        assert task_fingerprint(make_task()) != task_fingerprint(
            make_task(host=small_host(16))
        )

    def test_changes_with_instance(self):
        assert task_fingerprint(make_task()) != task_fingerprint(
            make_task(instance=instance_type("xLarge"))
        )

    def test_changes_with_platform(self):
        digests = {
            task_fingerprint(make_task()),
            task_fingerprint(make_task(kind=PlatformKind.VM)),
            task_fingerprint(make_task(mode=ProvisioningMode.VANILLA)),
        }
        assert len(digests) == 3

    def test_each_single_ingredient_changes_it(self):
        """Every fingerprint ingredient is live: flipping any single one
        produces a distinct digest (and no two collide)."""
        variants = {
            "base": make_task(),
            "seed": make_task(seed=99),
            "reps": make_task(reps=3),
            "workload": make_task(work=0.07),
            "workload type": make_task(
                workload=_RenamedSynthetic(
                    threads_per_process=2, phases=2, compute_per_phase=0.05
                )
            ),
            "host": make_task(host=small_host(32)),
            "calib": make_task(calib=Calibration(ctx_switch_cost=2e-6)),
        }
        digests = {k: task_fingerprint(t) for k, t in variants.items()}
        assert len(set(digests.values())) == len(digests)

    def test_stable_across_dict_orderings(self):
        """Attribute insertion order must not leak into the digest."""

        class DuckWorkload:
            def __init__(self, order: str):
                if order == "ab":
                    self.alpha = 1
                    self.beta = 2
                else:
                    self.beta = 2
                    self.alpha = 1
                self.name = "duck"

        assert task_fingerprint(
            make_task(workload=DuckWorkload("ab"))
        ) == task_fingerprint(make_task(workload=DuckWorkload("ba")))


def _sweep(spec, store, **kwargs):
    from repro.run.experiment import run_experiment
    from repro.run.parallel import ParallelRunner

    return run_experiment(
        spec, runner=ParallelRunner(checkpoint=store, **kwargs)
    )


def _sweep_json(sweep) -> str:
    import json

    # NaN-safe comparison (mean_response is NaN for makespan cells)
    return json.dumps(sweep.to_dict(), sort_keys=True)


class TestCache:
    """A checkpointed sweep is its own cache: every cell is stored as it
    finishes and a warm re-run replays all of them."""

    def test_miss_then_hit(self, tmp_path):
        store = CellStore(tmp_path)
        spec = make_spec()
        assert len(store) == 0
        sweep = _sweep(spec, store)
        assert len(store) == 2  # one entry per (platform, instance) cell
        again = _sweep(spec, store)
        assert _sweep_json(again) == _sweep_json(sweep)
        assert len(store) == 2

    def test_hit_skips_runner(self, tmp_path):
        """A warm re-run submits nothing: the worker is never called."""
        from repro.run.parallel import ParallelRunner, cell_tasks

        store = CellStore(tmp_path)
        spec = make_spec()
        _sweep(spec, store)
        calls = []

        def exploding_worker(task):
            calls.append(task)
            raise AssertionError("should not run")

        tasks = cell_tasks(spec)
        runs = ParallelRunner(checkpoint=store).run_tasks(
            exploding_worker, tasks
        )
        assert calls == []
        assert [len(r) for r in runs] == [spec.reps] * len(tasks)

    def test_different_specs_different_entries(self, tmp_path):
        store = CellStore(tmp_path)
        _sweep(make_spec(seed=1), store)
        _sweep(make_spec(seed=2), store)
        assert len(list(tmp_path.glob("cell-*.json"))) == 4

    def test_contains_probe(self, tmp_path):
        from repro.run.parallel import cell_tasks

        store = CellStore(tmp_path)
        spec = make_spec()
        keys = [task_fingerprint(t) for t in cell_tasks(spec)]
        assert [store.load(k)[1] for k in keys] == ["miss", "miss"]
        _sweep(spec, store)
        assert [store.load(k)[1] for k in keys] == ["hit", "hit"]
        other = [task_fingerprint(t) for t in cell_tasks(make_spec(seed=42))]
        assert [store.load(k)[1] for k in other] == ["miss", "miss"]


class TestAtomicWrites:
    """Regression: store writes can never leave a truncated entry."""

    def test_no_tmp_file_after_put(self, tmp_path):
        _sweep(make_spec(), CellStore(tmp_path))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_leaves_old_entry_intact(self, tmp_path):
        from repro.run.persistence import atomic_write_json

        path = tmp_path / "entry.json"
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": object()})
        import json

        assert json.loads(path.read_text()) == {"v": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_disk_full_fault_leaves_no_partial_entry(self, tmp_path):
        from repro.errors import InjectedFault
        from repro.faults import FaultInjector, FaultPlan, FaultSpec
        from repro.run.parallel import execute_cell

        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="disk.full", at=1),), seed=0)
        )
        store = CellStore(tmp_path, faults=inj)
        task = make_task(reps=2, seed=7)
        key = task_fingerprint(task)
        runs = execute_cell(task)
        with pytest.raises(InjectedFault):
            store.put(key, runs)
        assert not store.path_for(key).exists()
        assert list(tmp_path.glob("*.tmp")) == []
        # the fault fires once; the retried write succeeds atomically
        store.put(key, runs)
        assert store.load(key)[1] == "hit"


class TestCorruptEntries:
    """Regression for the non-atomic write bug: damaged entries are
    detected and re-run, never crashes."""

    def test_corrupt_entry_as_miss_then_overwritten(self, tmp_path):
        from repro.obs.journal import MemoryJournal

        store = CellStore(tmp_path)
        spec = make_spec()
        sweep = _sweep(spec, store)
        torn = sorted(tmp_path.glob("cell-*.json"))[0]
        torn.write_text('{"truncated": ')
        jl = MemoryJournal()
        again = _sweep(spec, store, journal=jl)
        assert _sweep_json(again) == _sweep_json(sweep)
        assert jl.count("checkpoint-corrupt") == 1
        assert jl.count("cell-resumed") == 1
        assert jl.count("cell-finished") == 1  # only the torn cell re-ran
        # the re-run overwrote the torn entry with an intact one
        assert all(
            store.load(f.name[len("cell-"):-len(".json")])[1] == "hit"
            for f in tmp_path.glob("cell-*.json")
        )


class TestCellStore:
    def test_miss_hit_and_len(self, tmp_path):
        from repro.run.parallel import execute_cell
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path / "cells")
        task = make_task(reps=2, seed=7)
        key = task_fingerprint(task)
        assert key is not None
        assert store.load(key) == (None, "miss")
        assert len(store) == 0
        runs = execute_cell(task)
        store.put(key, runs, label=task.label)
        got, state = store.load(key)
        assert state == "hit"
        assert len(store) == 1
        import json

        # NaN-safe comparison (mean_response is NaN for makespan cells)
        assert json.dumps([r.to_dict() for r in got]) == json.dumps(
            [r.to_dict() for r in runs]
        )
        # replayed runs never carry perf counters
        assert all(r.counters is None for r in got)

    def test_resumed_runs_keep_dist_byte_identical(self, tmp_path):
        import json

        from repro.run.parallel import CachedCell, ParallelRunner, execute_cell
        from repro.run.persistence import CellStore
        from repro.run.results import RunResult

        def canon(runs):
            return json.dumps([r.to_dict() for r in runs])

        store = CellStore(tmp_path / "cells")
        tasks = [make_task(reps=2, seed=7)]
        [fresh] = ParallelRunner(1, checkpoint=store).run_tasks(
            execute_cell, tasks
        )
        seen = []
        [replayed] = ParallelRunner(
            1, checkpoint=store, progress=lambda d, t, p: seen.append(p)
        ).run_tasks(execute_cell, tasks)
        assert seen == [CachedCell(tasks[0])]
        assert all(r.dist["cell"].count == 1 for r in replayed)
        assert canon(replayed) == canon(fresh)
        round_trip = [RunResult.from_dict(r.to_dict()) for r in replayed]
        assert canon(round_trip) == canon(replayed)

    def test_undecodable_entry_is_corrupt(self, tmp_path):
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path)
        key = task_fingerprint(make_task(reps=2, seed=7))
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_text("not json")
        assert store.load(key) == (None, "corrupt")

    def test_fingerprint_mismatch_is_corrupt(self, tmp_path):
        import shutil

        from repro.run.parallel import execute_cell
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path)
        task = make_task(reps=2, seed=7)
        key = task_fingerprint(task)
        store.put(key, execute_cell(task), label=task.label)
        other = task_fingerprint(make_task(reps=2, seed=8))
        assert other != key
        # an entry copied under the wrong key fails verification
        shutil.copy(store.path_for(key), store.path_for(other))
        assert store.load(other) == (None, "corrupt")

    def test_key_for_non_cell_payload_is_none(self):
        # only cell tasks have a store key
        assert task_fingerprint(3.5) is None
        assert task_fingerprint(object()) is None
