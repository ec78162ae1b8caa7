"""Property-based tests of the simulation engine's invariants.

These pin down the physics of the simulator with hypothesis-generated
workload populations:

* conservation: a run is never faster than work / capacity;
* monotonicity: more capacity never slows a workload down, more work
  never speeds it up;
* determinism: identical inputs give bit-identical outputs;
* sanity of counters and response times;
* the paper's headline orderings (pinning never hurts at small CHR,
  virtualization is never free for non-IO workloads) and executor-level
  determinism across job counts and checkpoint/resume boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import EngineConfig, Simulator
from repro.hostmodel.topology import make_host, r830_host
from repro.platforms.provisioning import InstanceType
from repro.platforms.registry import make_platform
from repro.run.calibration import Calibration
from repro.sched.accounting import OverheadModel
from repro.units import GIB
from repro.workloads.base import OpMark, ProcessSpec, ThreadSpec
from repro.workloads.segments import ComputeSegment, IoSegment

# a permissive host so any core count fits
_HOST = make_host(128, name="prop-host", memory_gib=512)
_CALIB = Calibration().without_migration_penalty()


def _overhead(cores: int) -> OverheadModel:
    inst = InstanceType(name=f"c{cores}", cores=cores, memory_bytes=64 * GIB)
    return OverheadModel(_HOST, make_platform("BM", inst), _CALIB)


def _run(works: list[float], cores: int, ios: list[float] | None = None):
    threads = []
    ios = ios or [0.0] * len(works)
    for w, io in zip(works, ios):
        program = [ComputeSegment(work=w, mem_intensity=0.0)]
        if io > 0:
            program.append(IoSegment(device_time=io, irqs=1))
        threads.append(ThreadSpec(program=program))
    procs = [ProcessSpec(threads=threads, name="p")]
    cfg = EngineConfig(capacity=float(cores), overhead=_overhead(cores))
    return Simulator(procs, cfg).run()


works_strategy = st.lists(
    st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=24
)
cores_strategy = st.integers(min_value=1, max_value=64)


class TestConservation:
    @given(works=works_strategy, cores=cores_strategy)
    @settings(max_examples=40, deadline=None)
    def test_never_faster_than_capacity(self, works, cores):
        res = _run(works, cores)
        lower_bound = sum(works) / cores
        assert res.makespan >= lower_bound * 0.999

    @given(works=works_strategy, cores=cores_strategy)
    @settings(max_examples=40, deadline=None)
    def test_never_faster_than_longest_thread(self, works, cores):
        res = _run(works, cores)
        assert res.makespan >= max(works) * 0.999

    @given(works=works_strategy, cores=cores_strategy)
    @settings(max_examples=40, deadline=None)
    def test_overhead_bounded(self, works, cores):
        """With near-free overheads the makespan stays within 2x of the
        ideal processor-sharing bound."""
        res = _run(works, cores)
        ideal = max(sum(works) / cores, max(works))
        assert res.makespan <= 2.0 * ideal

    @given(works=works_strategy, cores=cores_strategy)
    @settings(max_examples=40, deadline=None)
    def test_busy_time_accounts_for_work(self, works, cores):
        res = _run(works, cores)
        assert res.counters.busy_core_seconds >= sum(works) * 0.999
        assert res.counters.useful_core_seconds <= (
            res.counters.busy_core_seconds + 1e-9
        )


class TestMonotonicity:
    @given(works=works_strategy, cores=st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_more_cores_never_slower(self, works, cores):
        slow = _run(works, cores).makespan
        fast = _run(works, cores * 2).makespan
        assert fast <= slow * 1.001

    @given(
        works=works_strategy,
        cores=cores_strategy,
        extra=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_more_work_never_faster(self, works, cores, extra):
        base = _run(works, cores).makespan
        more = _run(works + [extra], cores).makespan
        assert more >= base * 0.999


class TestDeterminism:
    @given(works=works_strategy, cores=cores_strategy)
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_reruns(self, works, cores):
        a = _run(works, cores)
        b = _run(works, cores)
        assert a.makespan == b.makespan
        assert np.array_equal(a.thread_finish_times, b.thread_finish_times)


class TestResponseTimes:
    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=0.5), min_size=1, max_size=12
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_responses_positive_and_ordered(self, works):
        threads = [
            ThreadSpec(
                program=[ComputeSegment(work=w, mem_intensity=0.0)],
                op_marks=[OpMark(seg_index=0, submitted_at=0.0)],
            )
            for w in works
        ]
        procs = [ProcessSpec(threads=threads)]
        cfg = EngineConfig(capacity=4.0, overhead=_overhead(4))
        res = Simulator(procs, cfg).run()
        assert res.op_responses.shape == (len(works),)
        assert np.all(res.op_responses > 0)
        assert res.mean_response <= res.makespan + 1e-9

    @given(
        io_times=st.lists(
            st.floats(min_value=0.001, max_value=0.2), min_size=1, max_size=10
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_io_only_threads_finish_after_device_time(self, io_times):
        threads = [
            ThreadSpec(program=[IoSegment(device_time=io, irqs=1)])
            for io in io_times
        ]
        procs = [ProcessSpec(threads=threads)]
        cfg = EngineConfig(capacity=4.0, overhead=_overhead(4))
        res = Simulator(procs, cfg).run()
        assert res.makespan >= max(io_times) * 0.999


class TestPaperInvariants:
    """Hypothesis-driven checks of the paper's headline orderings."""

    @given(
        inst=st.sampled_from(["Large", "xLarge", "2xLarge"]),
        rep=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_pinning_never_hurts_at_small_chr(self, inst, rep):
        """Fig. 3 ordering: at CHR << 1 a pinned vanilla-size CN is
        never slower than the vanilla CN (same stream, paired)."""
        from repro import FfmpegWorkload, instance_type, run_once
        from repro.rng import RngFactory

        host = r830_host()
        wl = FfmpegWorkload(video_seconds=0.5, n_sync_chunks=4)
        factory = RngFactory(seed=101)
        it = instance_type(inst)
        stream = f"prop-pin/{inst}"
        vanilla = run_once(
            wl, make_platform("CN", it, "vanilla"), host,
            rng=factory.fresh_stream(stream, rep=rep),
        ).value
        pinned = run_once(
            wl, make_platform("CN", it, "pinned"), host,
            rng=factory.fresh_stream(stream, rep=rep),
        ).value
        assert pinned <= vanilla * 1.005

    @given(
        platform=st.sampled_from(["VM", "CN", "VMCN"]),
        inst=st.sampled_from(["xLarge", "4xLarge"]),
        rep=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_virtualization_never_free_for_compute(self, platform, inst, rep):
        """Overhead ratio vs bare-metal is >= 1 for non-IO workloads."""
        from repro import MpiSearchWorkload, instance_type, run_once
        from repro.rng import RngFactory

        host = r830_host()
        wl = MpiSearchWorkload()
        factory = RngFactory(seed=202)
        it = instance_type(inst)
        stream = f"prop-virt/{platform}/{inst}"
        bm = run_once(
            wl, make_platform("BM", it, "vanilla"), host,
            rng=factory.fresh_stream(stream, rep=rep),
        ).value
        virt = run_once(
            wl, make_platform(platform, it, "vanilla"), host,
            rng=factory.fresh_stream(stream, rep=rep),
        ).value
        assert virt >= bm * 0.999


def _tiny_sweep_spec(seed: int):
    from repro import SyntheticWorkload, instance_type
    from repro.platforms.base import PlatformKind
    from repro.run.experiment import ExperimentSpec
    from repro.sched.affinity import ProvisioningMode

    return ExperimentSpec(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=0.05
        ),
        instances=[instance_type("Large")],
        platform_grid=[
            (PlatformKind.BM, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.PINNED),
        ],
        reps=2,
        seed=seed,
    )


class TestExecutorDeterminism:
    """The executor adds nothing: any job count, any resume boundary."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jobs=st.sampled_from([2, 4]),
    )
    @settings(max_examples=6, deadline=None)
    def test_identical_across_job_counts(self, seed, jobs):
        import json

        from repro import ParallelRunner, run_experiment

        spec = _tiny_sweep_spec(seed)
        serial = json.dumps(run_experiment(spec).to_dict(), sort_keys=True)
        pooled = json.dumps(
            run_experiment(spec, runner=ParallelRunner(jobs)).to_dict(),
            sort_keys=True,
        )
        assert pooled == serial

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_identical_across_resume_boundary(self, seed):
        import json
        import tempfile
        from pathlib import Path

        from repro import CellStore, run_experiment
        from repro.obs.journal import MemoryJournal
        from repro.run.parallel import ParallelRunner

        spec = _tiny_sweep_spec(seed)
        base = json.dumps(run_experiment(spec).to_dict(), sort_keys=True)
        store = CellStore(Path(tempfile.mkdtemp()) / "cells")
        first = run_experiment(spec, runner=ParallelRunner(1, checkpoint=store))
        assert json.dumps(first.to_dict(), sort_keys=True) == base
        jl = MemoryJournal()
        second = run_experiment(
            spec, runner=ParallelRunner(1, checkpoint=store, journal=jl)
        )
        assert json.dumps(second.to_dict(), sort_keys=True) == base
        # every cell (3 platforms x 1 instance) was replayed from the
        # checkpoint, none re-executed
        assert jl.count("cell-resumed") == 3
        assert jl.count("cell-started") == 0


class TestColocationProperties:
    @given(
        works_a=st.lists(
            st.floats(min_value=0.05, max_value=0.5), min_size=1, max_size=8
        ),
        works_b=st.lists(
            st.floats(min_value=0.05, max_value=0.5), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_colocated_never_faster_than_isolated(self, works_a, works_b):
        from repro.engine.simulator import InstanceDeployment

        def dep(works, label):
            threads = [
                ThreadSpec(program=[ComputeSegment(work=w, mem_intensity=0.0)])
                for w in works
            ]
            return InstanceDeployment(
                processes=[ProcessSpec(threads=threads)],
                capacity=4.0,
                overhead=_overhead(4),
                label=label,
            )

        a, b = dep(works_a, "a"), dep(works_b, "b")
        colo = Simulator.colocated([a, b], host_capacity=4.0).run()
        solo = Simulator.colocated([dep(works_a, "a")], host_capacity=4.0).run()
        assert colo.group("a").makespan >= solo.group("a").makespan * 0.999
