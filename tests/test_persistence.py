"""Tests for the sweep cache."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import Calibration, SyntheticWorkload, instance_type
from repro.hostmodel.topology import small_host
from repro.platforms.base import PlatformKind
from repro.run.experiment import ExperimentSpec
from repro.run.persistence import SweepCache, spec_fingerprint
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


class TestFingerprint:
    def test_stable(self):
        assert spec_fingerprint(make_spec()) == spec_fingerprint(make_spec())

    def test_changes_with_seed(self):
        assert spec_fingerprint(make_spec(seed=1)) != spec_fingerprint(
            make_spec(seed=2)
        )

    def test_changes_with_reps(self):
        assert spec_fingerprint(make_spec(reps=1)) != spec_fingerprint(
            make_spec(reps=2)
        )

    def test_changes_with_workload_params(self):
        assert spec_fingerprint(make_spec(work=0.05)) != spec_fingerprint(
            make_spec(work=0.06)
        )

    def test_changes_with_calibration(self):
        a = make_spec()
        b = make_spec()
        b.calib = Calibration(ctx_switch_cost=1e-6)
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_changes_with_host_topology(self):
        a = make_spec()
        b = make_spec()
        b.host = small_host(16)
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_changes_with_instance_list(self):
        a = make_spec()
        b = make_spec()
        b.instances = [instance_type("xLarge")]
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_changes_with_platform_grid(self):
        a = make_spec()
        b = make_spec()
        b.platform_grid = [(PlatformKind.BM, ProvisioningMode.VANILLA)]
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_each_single_ingredient_changes_it(self):
        """Every fingerprint ingredient is live: flipping any single one
        produces a distinct digest (and no two collide)."""
        variants = {
            "base": make_spec(),
            "seed": make_spec(seed=99),
            "reps": make_spec(reps=3),
            "workload": make_spec(work=0.07),
        }
        host_variant = make_spec()
        host_variant.host = small_host(32)
        variants["host"] = host_variant
        calib_variant = make_spec()
        calib_variant.calib = Calibration(ctx_switch_cost=2e-6)
        variants["calib"] = calib_variant
        digests = {k: spec_fingerprint(s) for k, s in variants.items()}
        assert len(set(digests.values())) == len(digests)

    def test_stable_across_processes(self):
        """The digest must not depend on per-process hash salt — a cache
        written by one campaign process must hit in the next."""
        code = (
            "from repro import SyntheticWorkload, instance_type\n"
            "from repro.platforms.base import PlatformKind\n"
            "from repro.run.experiment import ExperimentSpec\n"
            "from repro.run.persistence import spec_fingerprint\n"
            "from repro.sched.affinity import ProvisioningMode\n"
            "spec = ExperimentSpec(\n"
            "    workload=SyntheticWorkload(threads_per_process=2, phases=2,\n"
            "                               compute_per_phase=0.05),\n"
            "    instances=[instance_type('Large')],\n"
            "    platform_grid=[(PlatformKind.BM, ProvisioningMode.VANILLA),\n"
            "                   (PlatformKind.CN, ProvisioningMode.PINNED)],\n"
            "    reps=1, seed=1)\n"
            "print(spec_fingerprint(spec))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == spec_fingerprint(make_spec())

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

        def spec_with(wl):
            s = make_spec()
            s.workload = wl
            return s

        assert spec_fingerprint(
            spec_with(DuckWorkload("ab"))
        ) == spec_fingerprint(spec_with(DuckWorkload("ba")))


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = make_spec()
        assert cache.get(spec) is None
        sweep = cache.get_or_run(spec)
        assert cache.path_for(spec).exists()
        again = cache.get(spec)
        assert again is not None
        assert again.cell("Vanilla BM", "Large").mean == pytest.approx(
            sweep.cell("Vanilla BM", "Large").mean
        )

    def test_hit_skips_runner(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = make_spec()
        cache.get_or_run(spec)
        calls = []

        def exploding_runner(s):
            calls.append(s)
            raise AssertionError("should not run")

        cache.get_or_run(spec, runner=exploding_runner)
        assert calls == []

    def test_different_specs_different_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get_or_run(make_spec(seed=1))
        cache.get_or_run(make_spec(seed=2))
        assert len(list(tmp_path.glob("sweep-*.json"))) == 2

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get_or_run(make_spec())
        assert cache.clear() == 1
        assert cache.get(make_spec()) is None

    def test_clear_missing_dir(self, tmp_path):
        cache = SweepCache(tmp_path / "nope")
        assert cache.clear() == 0

    def test_contains_probe(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = make_spec()
        assert not cache.contains(spec)
        cache.get_or_run(spec)
        assert cache.contains(spec)
        assert not cache.contains(make_spec(seed=42))


def _cell_task(seed=7):
    from repro.rng import RngFactory
    from repro.run.parallel import CellTask

    factory = RngFactory(seed=seed)
    return CellTask(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=0.05
        ),
        kind=PlatformKind.CN,
        mode=ProvisioningMode.PINNED,
        instance=instance_type("Large"),
        host=small_host(16),
        calib=Calibration(),
        streams=tuple(
            factory.stream_spec("persist-cell", rep=rep) for rep in range(2)
        ),
    )


class TestAtomicWrites:
    """Regression: cache writes can never leave a truncated entry."""

    def test_no_tmp_file_after_put(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.get_or_run(make_spec())
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

        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="disk.full", at=1),), seed=0)
        )
        cache = SweepCache(tmp_path, faults=inj)
        spec = make_spec()
        from repro.run.experiment import run_experiment

        sweep = run_experiment(spec)
        with pytest.raises(InjectedFault):
            cache.put(spec, sweep)
        assert not cache.path_for(spec).exists()
        assert list(tmp_path.glob("*.tmp")) == []
        # the fault fires once; the retried write succeeds atomically
        cache.put(spec, sweep)
        assert cache.get(spec) is not None


class TestCorruptEntries:
    """Regression for the non-atomic write bug: damaged entries are
    detected and (on the resume path) treated as misses, never crashes."""

    def test_corrupt_entry_raises_by_default(self, tmp_path):
        from repro.errors import ConfigurationError

        cache = SweepCache(tmp_path)
        spec = make_spec()
        cache.get_or_run(spec)
        cache.path_for(spec).write_text('{"truncated": ')
        with pytest.raises(ConfigurationError, match="corrupt cache entry"):
            cache.get(spec)

    def test_corrupt_entry_as_miss_then_overwritten(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = make_spec()
        sweep = cache.get_or_run(spec)
        cache.path_for(spec).write_text('{"truncated": ')
        assert cache.get(spec, on_corrupt="miss") is None
        # contains() still sees the damaged file; the resume path pairs
        # it with get(on_corrupt="miss") and re-runs
        assert cache.contains(spec)
        cache.put(spec, sweep)
        assert cache.get(spec) is not None

    def test_bad_on_corrupt_value_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        cache = SweepCache(tmp_path)
        with pytest.raises(ConfigurationError, match="on_corrupt"):
            cache.get(make_spec(), on_corrupt="explode")


class TestCellStore:
    def test_miss_hit_and_len(self, tmp_path):
        from repro.run.parallel import execute_cell
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path / "cells")
        task = _cell_task()
        key = store.key_for(task)
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
        tasks = [_cell_task()]
        [fresh] = ParallelRunner(1, checkpoint=store).run_tasks(
            execute_cell, tasks
        )
        seen = []
        [replayed] = ParallelRunner(
            1, checkpoint=store, progress=lambda d, t, p: seen.append(p)
        ).run_tasks(execute_cell, tasks)
        assert seen == [CachedCell(tasks[0], resumed=True)]
        assert all(r.dist["cell"].count == 1 for r in replayed)
        assert canon(replayed) == canon(fresh)
        round_trip = [RunResult.from_dict(r.to_dict()) for r in replayed]
        assert canon(round_trip) == canon(replayed)

    def test_undecodable_entry_is_corrupt(self, tmp_path):
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path)
        key = store.key_for(_cell_task())
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_text("not json")
        assert store.load(key) == (None, "corrupt")

    def test_fingerprint_mismatch_is_corrupt(self, tmp_path):
        import shutil

        from repro.run.parallel import execute_cell
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path)
        task = _cell_task(seed=7)
        key = store.key_for(task)
        store.put(key, execute_cell(task), label=task.label)
        other = store.key_for(_cell_task(seed=8))
        assert other != key
        # an entry copied under the wrong key fails verification
        shutil.copy(store.path_for(key), store.path_for(other))
        assert store.load(other) == (None, "corrupt")

    def test_key_for_non_cell_payload_is_none(self, tmp_path):
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path)
        assert store.key_for(3.5) is None
        assert store.key_for(object()) is None

    def test_clear(self, tmp_path):
        from repro.run.parallel import execute_cell
        from repro.run.persistence import CellStore

        store = CellStore(tmp_path)
        task = _cell_task()
        store.put(store.key_for(task), execute_cell(task))
        assert store.clear() == 1
        assert len(store) == 0
        assert CellStore(tmp_path / "never-created").clear() == 0
