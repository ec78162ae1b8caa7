"""Unit tests for the simulation engine."""

from __future__ import annotations

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.engine.calendar import EventCalendar, RunnableIndex
from repro.engine.events import EventKind
from repro.engine.simulator import (
    EngineConfig,
    InstanceDeployment,
    Simulator,
    _waterfill,
)
from repro.engine.tracing import ListTraceSink, NullTraceSink
from repro.errors import SimulationError
from repro.hostmodel.irq import IrqKind
from repro.hostmodel.storage import StorageModel
from repro.hostmodel.topology import r830_host
from repro.platforms.provisioning import instance_type
from repro.platforms.registry import make_platform
from repro.run.calibration import Calibration
from repro.sched.accounting import OverheadModel
from repro.workloads.base import OpMark, ProcessSpec, ThreadSpec
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    IoSegment,
)


def bm_overhead(cores=4):
    """An essentially overhead-free deployment for engine semantics tests."""
    calib = Calibration().without_migration_penalty()
    return OverheadModel(
        r830_host(),
        make_platform("BM", instance_type({2: "Large", 4: "xLarge", 8: "2xLarge"}[cores])),
        calib,
    )


def run(processes, cores=4, **kw):
    cfg = EngineConfig(capacity=float(cores), overhead=bm_overhead(cores), **kw)
    return Simulator(processes, cfg).run()


def proc(*threads, name="p"):
    return ProcessSpec(threads=list(threads), name=name)


def compute_thread(work, arrival=0.0, marks=None):
    return ThreadSpec(
        program=[ComputeSegment(work=work, mem_intensity=0.0)],
        arrival_time=arrival,
        op_marks=marks or [],
    )


class TestBasicSemantics:
    def test_single_thread_duration(self):
        res = run([proc(compute_thread(2.0))])
        # near-free overheads: ~2 s of work on an idle core
        assert res.makespan == pytest.approx(2.0, rel=0.02)

    def test_parallel_threads_share_capacity(self):
        threads = [compute_thread(1.0) for _ in range(8)]
        res = run([proc(*threads)], cores=4)
        # 8 core-seconds on 4 cores
        assert res.makespan == pytest.approx(2.0, rel=0.05)

    def test_fewer_threads_than_cores_no_sharing(self):
        res = run([proc(compute_thread(1.0), compute_thread(1.0))], cores=4)
        assert res.makespan == pytest.approx(1.0, rel=0.02)

    def test_arrival_delays_start(self):
        res = run([proc(compute_thread(1.0, arrival=5.0))])
        assert res.makespan == pytest.approx(6.0, rel=0.02)

    def test_empty_processes_raise(self):
        with pytest.raises(SimulationError):
            Simulator([], EngineConfig(capacity=1.0, overhead=bm_overhead()))

    def test_finish_times_recorded(self):
        res = run([proc(compute_thread(1.0), compute_thread(2.0))])
        assert res.thread_finish_times.shape == (2,)
        assert res.thread_finish_times[1] > res.thread_finish_times[0]


class TestIoSemantics:
    def test_io_blocks_for_device_time(self):
        t = ThreadSpec(
            program=[IoSegment(device_time=0.5, irqs=1, kind=IrqKind.NET)]
        )
        res = run([proc(t)])
        assert res.makespan == pytest.approx(0.5, rel=0.05)

    def test_io_overlaps_with_compute(self):
        io_thread = ThreadSpec(program=[IoSegment(device_time=1.0, irqs=1)])
        cpu_thread = compute_thread(1.0)
        res = run([proc(io_thread, cpu_thread)], cores=4)
        assert res.makespan == pytest.approx(1.0, rel=0.1)

    def test_disk_contention_stretches_io(self):
        threads = [
            ThreadSpec(program=[IoSegment(device_time=0.1, irqs=1)])
            for _ in range(8)
        ]
        storage = StorageModel(effective_concurrency=2)
        res = run([proc(*threads)], storage=storage)
        # later issues see up to 8 outstanding on concurrency 2
        assert res.makespan > 0.2

    def test_net_io_ignores_disk_contention(self):
        threads = [
            ThreadSpec(
                program=[IoSegment(device_time=0.1, irqs=1, kind=IrqKind.NET)]
            )
            for _ in range(8)
        ]
        storage = StorageModel(effective_concurrency=2)
        res = run([proc(*threads)], storage=storage)
        assert res.makespan == pytest.approx(0.1, rel=0.1)

    def test_irq_count_recorded(self):
        t = ThreadSpec(program=[IoSegment(device_time=0.1, irqs=3)])
        res = run([proc(t)])
        assert res.counters.irqs == 3

    def test_thrash_factor_stretches_io(self):
        t = ThreadSpec(program=[IoSegment(device_time=0.5, irqs=1)])
        res = run([proc(t)], thrash_factor=3.0)
        assert res.makespan == pytest.approx(1.5, rel=0.05)

    def test_thrash_factor_slows_compute(self):
        res = run([proc(compute_thread(1.0))], thrash_factor=2.0)
        assert res.makespan == pytest.approx(2.0, rel=0.05)


class TestCommAndBarriers:
    def test_comm_latency(self):
        t = ThreadSpec(
            program=[CommSegment(base_latency=0.25)]
        )
        res = run([proc(t)])
        assert res.makespan == pytest.approx(0.25, rel=0.05)

    def test_barrier_waits_for_all(self):
        fast = ThreadSpec(
            program=[
                ComputeSegment(0.1, mem_intensity=0.0),
                BarrierSegment(0),
                ComputeSegment(0.1, mem_intensity=0.0),
            ]
        )
        slow = ThreadSpec(
            program=[
                ComputeSegment(1.0, mem_intensity=0.0),
                BarrierSegment(0),
                ComputeSegment(0.1, mem_intensity=0.0),
            ]
        )
        res = run([proc(fast, slow)], cores=4)
        # the fast thread must wait ~0.9 s at the barrier
        assert res.makespan == pytest.approx(1.1, rel=0.05)
        assert res.counters.barrier_blocked_seconds == pytest.approx(0.9, rel=0.1)

    def test_barrier_in_separate_processes_independent(self):
        t1 = ThreadSpec(
            program=[ComputeSegment(0.1, mem_intensity=0.0), BarrierSegment(0)]
        )
        t2 = ThreadSpec(
            program=[ComputeSegment(5.0, mem_intensity=0.0), BarrierSegment(0)]
        )
        # same barrier id but different processes: no rendezvous
        res = run([proc(t1, name="a"), proc(t2, name="b")], cores=4)
        assert res.thread_finish_times[0] == pytest.approx(0.1, rel=0.1)

    def test_single_participant_barrier_is_instant(self):
        # barrier participants are counted from the specs, so a barrier
        # only one thread carries releases immediately (no deadlock is
        # constructible from valid specs)
        t = ThreadSpec(
            program=[BarrierSegment(0), ComputeSegment(0.1, mem_intensity=0.0)]
        )
        res = run([proc(t)])
        assert res.makespan == pytest.approx(0.1, rel=0.05)


class TestOpMarks:
    def test_response_times_recorded(self):
        t = ThreadSpec(
            program=[ComputeSegment(1.0, mem_intensity=0.0)],
            op_marks=[OpMark(seg_index=0, submitted_at=0.0)],
        )
        res = run([proc(t)])
        assert res.op_responses.shape == (1,)
        assert res.op_responses[0] == pytest.approx(1.0, rel=0.02)
        assert res.mean_response == pytest.approx(1.0, rel=0.02)

    def test_response_measured_from_submission(self):
        t = ThreadSpec(
            program=[ComputeSegment(1.0, mem_intensity=0.0)],
            arrival_time=2.0,
            op_marks=[OpMark(seg_index=0, submitted_at=0.5)],
        )
        res = run([proc(t)])
        # completes at ~3.0, submitted at 0.5
        assert res.op_responses[0] == pytest.approx(2.5, rel=0.02)

    def test_no_marks_nan_mean(self):
        res = run([proc(compute_thread(0.5))])
        assert np.isnan(res.mean_response)

    def test_multiple_marks_per_thread(self):
        t = ThreadSpec(
            program=[
                ComputeSegment(1.0, mem_intensity=0.0),
                ComputeSegment(1.0, mem_intensity=0.0),
            ],
            op_marks=[
                OpMark(seg_index=0, submitted_at=0.0),
                OpMark(seg_index=1, submitted_at=0.0),
            ],
        )
        res = run([proc(t)])
        assert res.op_responses.shape == (2,)
        assert res.op_responses[1] > res.op_responses[0]


class TestTracing:
    def test_events_emitted(self):
        sink = ListTraceSink()
        t = ThreadSpec(
            program=[
                ComputeSegment(0.1, mem_intensity=0.0),
                IoSegment(device_time=0.1, irqs=1),
            ]
        )
        cfg = EngineConfig(capacity=4.0, overhead=bm_overhead(), trace=sink)
        Simulator([proc(t)], cfg).run()
        assert sink.count(EventKind.ARRIVAL) == 1
        assert sink.count(EventKind.COMPUTE_DONE) == 1
        assert sink.count(EventKind.IO_ISSUE) == 1
        assert sink.count(EventKind.IO_WAKE) == 1
        assert sink.count(EventKind.THREAD_DONE) == 1

    def test_filtered_sink(self):
        sink = ListTraceSink(kinds={EventKind.THREAD_DONE})
        cfg = EngineConfig(capacity=4.0, overhead=bm_overhead(), trace=sink)
        Simulator([proc(compute_thread(0.1))], cfg).run()
        assert len(sink.events) == 1

    def test_null_sink_noop(self):
        NullTraceSink().emit(None)  # type: ignore[arg-type]


class TestCounters:
    def test_busy_core_seconds_tracks_work(self):
        res = run([proc(compute_thread(3.0))])
        assert res.counters.busy_core_seconds == pytest.approx(3.0, rel=0.05)

    def test_useful_at_most_busy(self):
        res = run([proc(*[compute_thread(0.5) for _ in range(16)])], cores=4)
        c = res.counters
        assert c.useful_core_seconds <= c.busy_core_seconds
        assert 0.0 <= c.overhead_fraction < 1.0

    def test_sched_events_positive(self):
        res = run([proc(compute_thread(1.0))])
        assert res.counters.sched_events > 0

    def test_timeslice_histogram_populated(self):
        res = run([proc(compute_thread(1.0))])
        assert res.counters.timeslice_weight


class TestWaterfill:
    def test_proportional_when_uncapped(self):
        shares = _waterfill(np.array([1.0, 3.0]), 0.8)
        assert shares == pytest.approx([0.2, 0.6])

    def test_cap_redistributes_excess(self):
        # the heavy thread saturates one core; the rest of the capacity
        # is split proportionally among the remaining weights
        shares = _waterfill(np.array([100.0, 1.0, 1.0]), 2.0)
        assert shares[0] == 1.0
        assert shares[1] == pytest.approx(0.5)
        assert shares[2] == pytest.approx(0.5)

    def test_capacity_exceeding_thread_count(self):
        shares = _waterfill(np.array([2.0, 1.0, 5.0]), 10.0)
        assert shares == pytest.approx([1.0, 1.0, 1.0])

    def test_zero_weights_get_nothing(self):
        shares = _waterfill(np.zeros(3), 4.0)
        assert shares == pytest.approx([0.0, 0.0, 0.0])

    def test_zero_weight_among_positive(self):
        shares = _waterfill(np.array([0.0, 1.0, 1.0]), 1.0)
        assert shares[0] == 0.0
        assert shares[1] == pytest.approx(0.5)
        assert shares[2] == pytest.approx(0.5)

    def test_conservation_under_cap(self):
        weights = np.array([5.0, 2.0, 1.0, 1.0, 1.0])
        capacity = 3.0
        shares = _waterfill(weights, capacity)
        assert float(shares.sum()) == pytest.approx(capacity)
        assert (shares <= 1.0 + 1e-12).all()


class TestColocatedAccounting:
    def _deployment(self, threads, label, capacity=4.0):
        return InstanceDeployment(
            processes=[proc(*threads)],
            capacity=capacity,
            overhead=bm_overhead(4),
            label=label,
        )

    def _mixed_threads(self, n, mark=False):
        return [
            ThreadSpec(
                program=[
                    ComputeSegment(work=0.2, mem_intensity=0.3),
                    IoSegment(device_time=0.01, irqs=1),
                    ComputeSegment(work=0.1, mem_intensity=0.1),
                ],
                op_marks=[OpMark(seg_index=2, submitted_at=0.0)] if mark else [],
            )
            for _ in range(n)
        ]

    def test_two_identical_instances_double_the_counters(self):
        """On an uncontended host, counters accumulate per group: two
        identical instances cost exactly twice one isolated instance."""
        single = Simulator.colocated(
            [self._deployment(self._mixed_threads(6), "a")],
            host_capacity=16.0,
        ).run()
        double = Simulator.colocated(
            [
                self._deployment(self._mixed_threads(6), "a"),
                self._deployment(self._mixed_threads(6), "b"),
            ],
            host_capacity=16.0,
        ).run()
        assert double.makespan == pytest.approx(single.makespan, rel=1e-9)
        for field in (
            "busy_core_seconds",
            "useful_core_seconds",
            "sched_events",
            "io_blocked_seconds",
            "irqs",
            "cgroup_time",
            "migration_time",
            "background_time",
        ):
            got = getattr(double.counters, field)
            ref = getattr(single.counters, field)
            assert got == pytest.approx(2.0 * ref, rel=1e-9), field

    def test_busy_core_seconds_bounded_by_host(self):
        res = Simulator.colocated(
            [
                self._deployment(self._mixed_threads(8), "a", capacity=2.0),
                self._deployment(self._mixed_threads(8), "b", capacity=2.0),
            ],
            host_capacity=2.0,
        ).run()
        c = res.counters
        assert c.busy_core_seconds <= 2.0 * res.makespan + 1e-9
        assert c.useful_core_seconds <= c.busy_core_seconds

    def test_op_responses_split_by_group(self):
        res = Simulator.colocated(
            [
                self._deployment(self._mixed_threads(4, mark=True), "marked"),
                self._deployment(self._mixed_threads(4), "plain"),
            ],
            host_capacity=16.0,
        ).run()
        assert res.group("marked").op_responses.size == 4
        assert res.group("plain").op_responses.size == 0
        assert res.op_responses.size == 4

    def test_groups_get_distinct_empty_response_arrays(self):
        """No marked ops anywhere: each group must own its empty array
        (a shared object would alias mutations across groups)."""
        res = Simulator.colocated(
            [
                self._deployment([compute_thread(0.1)], "a"),
                self._deployment([compute_thread(0.1)], "b"),
            ],
            host_capacity=16.0,
        ).run()
        a, b = res.group("a").op_responses, res.group("b").op_responses
        assert a.size == 0 and b.size == 0
        assert a is not b
        assert a is not res.op_responses


class TestAuthoringObjectsReleased:
    """A prepared simulator keeps only its compiled tables: the segment
    objects it was built from are freed with the caller's last
    reference, and the caller's deployments are never changed."""

    def test_segments_released_after_compile(self):
        seg = ComputeSegment(work=0.5, mem_intensity=0.2)
        ref = weakref.ref(seg)
        processes = [
            proc(
                ThreadSpec(
                    program=[seg, IoSegment(device_time=0.01, irqs=1)],
                    op_marks=[OpMark(seg_index=0, submitted_at=0.0)],
                ),
                compute_thread(0.3),
            )
        ]
        sim = Simulator(
            processes, EngineConfig(capacity=4.0, overhead=bm_overhead(4))
        )
        del processes, seg
        gc.collect()
        assert ref() is None
        res = sim.run()
        assert res.op_responses.size == 1
        assert res.makespan > 0.5

    def test_colocated_twice_from_same_deployments(self):
        helper = TestColocatedAccounting()
        deps = [
            helper._deployment(helper._mixed_threads(4, mark=True), "a"),
            helper._deployment(helper._mixed_threads(6), "b", capacity=2.0),
        ]
        processes = [d.processes for d in deps]
        before = copy.deepcopy(processes)

        def once():
            res = Simulator.colocated(deps, host_capacity=4.0).run()
            return (
                res.makespan,
                res.thread_finish_times.tolist(),
                res.op_responses.tolist(),
                res.counters.to_dict(),
                [(g.label, g.makespan, g.op_responses.tolist())
                 for g in res.groups],
            )

        first = once()
        assert once() == first
        for dep, procs, snapshot in zip(deps, processes, before):
            assert dep.processes is procs
            assert dep.processes == snapshot


class TestWaveScalarEquivalence:
    def test_homogeneous_wave_matches_traced_scalar_path(self):
        """64 identical threads finishing together in one step must
        produce bit-identical results with and without a trace sink
        (traced runs emit per-thread events as they advance)."""

        def build():
            return [
                proc(
                    *[
                        ThreadSpec(
                            program=[
                                ComputeSegment(work=0.3, mem_intensity=0.4),
                                IoSegment(device_time=0.02, irqs=2),
                                ComputeSegment(work=0.1, mem_intensity=0.2),
                            ],
                            op_marks=[OpMark(seg_index=2, submitted_at=0.0)],
                        )
                        for _ in range(64)
                    ]
                )
            ]

        plain = run(build(), cores=4)
        traced = run(build(), cores=4, trace=ListTraceSink())
        assert np.array_equal(
            plain.thread_finish_times, traced.thread_finish_times
        )
        assert np.array_equal(plain.op_responses, traced.op_responses)
        assert plain.makespan == traced.makespan
        assert plain.counters.to_dict() == traced.counters.to_dict()


class TestEventCalendar:
    def test_stale_entries_are_skipped(self):
        wake = np.array([1.0, 2.0, 3.0])
        cal = EventCalendar(wake)
        for tid in range(3):
            cal.schedule(tid, wake[tid])
        wake[0] = np.inf  # invalidate without touching the heap
        assert cal.next_time() == 2.0
        assert cal.pop_due(2.5) == [1]

    def test_pop_due_sorted_and_deduped(self):
        wake = np.array([5.0, 5.0, 5.0])
        cal = EventCalendar(wake)
        cal.schedule(2, 5.0)
        cal.schedule(0, 5.0)
        cal.schedule(1, 5.0)
        cal.schedule(2, 5.0)  # duplicate valid entry for one tid
        assert cal.pop_due(5.0) == [0, 1, 2]
        assert cal.next_time() == np.inf

    def test_reschedule_invalidates_old_entry(self):
        wake = np.array([1.0])
        cal = EventCalendar(wake)
        cal.schedule(0, 1.0)
        wake[0] = 4.0
        cal.schedule(0, 4.0)
        assert cal.pop_due(2.0) == []
        assert cal.next_time() == 4.0


class TestRunnableIndex:
    @staticmethod
    def _members(idx):
        return sorted(idx.tids[: idx.count].tolist())

    def test_incremental_counts_and_indices(self):
        idx = RunnableIndex(4, 2)
        idx.add(2, 1, 0.5, 1.5, 0.1)
        idx.add(0, 0, 0.25, 1.25, 0.2)
        assert idx.count == 2
        assert idx.tids[:2].tolist() == [2, 0]  # insertion order
        assert idx.pos == [1, -1, 0, -1]
        assert self._members(idx) == [0, 2]
        idx.remove(0, 0)
        assert self._members(idx) == [2]
        assert idx.pos == [-1, -1, 0, -1]
        assert idx.group_counts.tolist() == [0, 1]

    def test_removal_moves_last_slot_and_updates_group_counts(self):
        group_of = [0, 1, 0, 1]
        idx = RunnableIndex(4, 2)
        for tid in range(4):
            idx.add(tid, group_of[tid], 10.0 + tid, 2.0 + tid, 0.5 * tid)
        idx.remove(1, 1)  # tid 3 moves from the last slot into slot 1
        assert idx.tids[:3].tolist() == [0, 3, 2]
        assert (idx.rem[1], idx.pp[1], idx.gm[1]) == (13.0, 5.0, 1.5)
        assert idx.pos == [0, -1, 2, 1]
        idx.remove(2, 0)  # the last slot itself: nothing moves
        assert idx.count == 2
        assert idx.group_counts.tolist() == [1, 1]
        assert self._members(idx) == [0, 3]

    def test_key_tracks_multiset_not_membership(self):
        idx = RunnableIndex(2, 1)
        idx.add(0, 0, 1.0, 1.0, 0.0)
        k1 = idx.key()
        idx.remove(0, 0)
        idx.add(1, 0, 2.0, 1.0, 0.0)  # different member, same multiset
        assert idx.key() == k1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_remove_keeps_slots_consistent(self, seed):
        """Seeded random add/remove sequence against a dict model: the
        packed slots hold exactly the members, ``pos`` inverts ``tids``,
        each slot's state travels with its tid, and the per-group counts
        are right."""
        rng = np.random.default_rng(seed)
        n, n_groups = 40, 3
        group_of = rng.integers(0, n_groups, size=n).tolist()
        idx = RunnableIndex(n, n_groups)
        model: dict[int, tuple[float, float, float]] = {}
        for _ in range(2000):
            tid = int(rng.integers(0, n))
            if tid in model:
                idx.remove(tid, group_of[tid])
                del model[tid]
            else:
                state = tuple(float(v) for v in rng.random(3))
                idx.add(tid, group_of[tid], *state)
                model[tid] = state
            k = idx.count
            assert k == len(model)
            tids = idx.tids[:k].tolist()
            assert set(tids) == set(model)
            for slot, t in enumerate(tids):
                assert idx.pos[t] == slot
                assert (idx.rem[slot], idx.pp[slot], idx.gm[slot]) == model[t]
            assert sum(p >= 0 for p in idx.pos) == k
            want = [0] * n_groups
            for t in model:
                want[group_of[t]] += 1
            assert idx.group_counts.tolist() == want


class TestGuards:
    def test_max_time_guard(self):
        cfg = EngineConfig(
            capacity=4.0, overhead=bm_overhead(), max_time=0.5
        )
        with pytest.raises(SimulationError):
            Simulator([proc(compute_thread(100.0))], cfg).run()

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            EngineConfig(capacity=0.0, overhead=bm_overhead())

    def test_invalid_thrash(self):
        with pytest.raises(SimulationError):
            EngineConfig(capacity=1.0, overhead=bm_overhead(), thrash_factor=0.5)
