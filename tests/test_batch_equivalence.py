"""Differential tests: the batched engine is bit-identical to scalar.

The batched engine (:mod:`repro.engine.batch`) advances shape-compatible
cells in lock-step vectorized waves; its one correctness contract is
that every cell's results are **byte-for-byte** what the scalar engine
produces for that cell alone.  This module checks the contract three
ways:

* a hypothesis-generated corpus of random campaigns (mixed workload
  shapes, IO fractions, jitter — including cells that diverge mid-wave
  and must eject to the scalar fallback);
* a pinned golden campaign report (``tests/golden/batch_campaign.json``,
  written by the scalar engine) that the batched and parallel+batched
  paths must reproduce exactly;
* fault-injected crash/resume runs where the resumed batched campaign
  must still rebuild the scalar golden report.

It also pins the *silent-partition hazard*: a cell the batch partition
cannot place must raise (or run scalar, journaled) — never be dropped.

Regen snippet for the golden (only after an intentional
engine-semantics change)::

    PYTHONPATH=src python - <<'EOF'
    import json, pathlib
    from repro import Campaign, run_campaign
    from repro.analysis.report import generate_report
    p = pathlib.Path("tests/golden/batch_campaign.json")
    d = json.loads(p.read_text())
    d["report"] = generate_report(run_campaign(Campaign(reps_fast=1, include=("fig3",))))
    p.write_text(json.dumps(d, indent=2) + "\n")
    EOF
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Campaign, SyntheticWorkload, instance_type, run_campaign
from repro.analysis.report import generate_report
from repro.engine.batch import (
    BatchSimulator,
    batch_eligible,
    partition_sims,
    run_batched,
    sim_shape_key,
)
from repro.engine.tracing import ListTraceSink
from repro.errors import BatchPartitionError, InjectedFault, ParallelExecutionError
from repro.faults import FaultInjector, FaultPlan
from repro.hostmodel.topology import r830_host
from repro.obs.journal import MemoryJournal
from repro.platforms.base import PlatformKind
from repro.platforms.registry import make_platform
from repro.rng import RngFactory
from repro.run.calibration import Calibration
from repro.run.execution import finish_run, prepare_run
from repro.run.parallel import CellTask, ParallelRunner, execute_cell
from repro.run.persistence import CellStore
from repro.sched.affinity import ProvisioningMode
from repro.workloads.openloop import OpenLoopCassandra, OpenLoopWordPress

GOLDEN_PATH = Path(__file__).parent / "golden" / "batch_campaign.json"

HOST = r830_host()
CALIB = Calibration()

# Platform/mode combos cycled over generated cells; the instance is
# shared so same-parameter workloads compile to one batchable shape.
COMBOS = (("BM", "vanilla"), ("CN", "pinned"), ("VM", "vanilla"))


def _camp() -> Campaign:
    return Campaign(reps_fast=1, include=("fig3",))


def _golden_report() -> str:
    return json.loads(GOLDEN_PATH.read_text())["report"]


def _mk_tasks(workloads, *, instance="Large", reps=2, seed=7):
    """One CellTask per workload over the cycled platform combos."""
    factory = RngFactory(seed)
    inst = instance_type(instance)
    tasks = []
    for i, wl in enumerate(workloads):
        kind, mode = COMBOS[i % len(COMBOS)]
        streams = tuple(
            factory.stream_spec(f"beq/{i}", rep=k) for k in range(reps)
        )
        tasks.append(
            CellTask(
                workload=wl, kind=PlatformKind(kind),
                mode=ProvisioningMode(mode), instance=inst,
                host=HOST, calib=CALIB, streams=streams,
            )
        )
    return tasks


def _runs_json(cells):
    """Canonical per-run serialization (counters included, NaN-safe)."""
    return [
        [
            json.dumps(
                {**rr.to_dict(), "counters": rr.counters.to_dict()},
                sort_keys=True,
            )
            for rr in runs
        ]
        for runs in cells
    ]


def _prep(wl, seed, name, *, instance="Large"):
    platform = make_platform("CN", instance_type(instance), "vanilla")
    rng = RngFactory(seed).fresh_stream(name)
    return prepare_run(wl, platform, HOST, CALIB, rng=rng)


def _rr_json(rr):
    return json.dumps(
        {**rr.to_dict(), "counters": rr.counters.to_dict()}, sort_keys=True
    )


# -- hypothesis corpus -----------------------------------------------------


WL_PARAMS = st.fixed_dictionaries(
    {
        "n_processes": st.integers(1, 2),
        "threads_per_process": st.integers(1, 4),
        "phases": st.integers(1, 4),
        "io_fraction": st.sampled_from([0.0, 0.3]),
        "jitter_sigma": st.sampled_from([0.0, 0.05, 0.3]),
    }
)


class TestRandomCampaignCorpus:
    """Random mixed-shape campaigns: batched == scalar, byte for byte.

    Same-parameter workloads batch together; different-shape cells fall
    back to the scalar leg; same-shape cells with different jitter can
    diverge mid-wave and eject.  Every path must land on the scalar
    bytes.
    """

    @settings(max_examples=10, deadline=None)
    @given(st.lists(WL_PARAMS, min_size=2, max_size=4), st.integers(0, 2**16))
    def test_batched_matches_scalar(self, params, seed):
        workloads = [SyntheticWorkload(**p) for p in params]
        tasks = _mk_tasks(workloads, seed=seed % 1000)
        scalar = ParallelRunner(1).run_tasks(execute_cell, tasks)
        batched = ParallelRunner(1, batch=True).run_tasks(execute_cell, tasks)
        assert _runs_json(batched) == _runs_json(scalar)

    def test_divergent_cell_ejects_and_stays_bit_identical(self):
        """Two deterministic cells + one jittered same-shape cell: the
        jittered cell diverges from the wave, ejects to the scalar
        fallback, and still produces the scalar bytes."""
        workloads = [
            SyntheticWorkload(threads_per_process=4, phases=6, jitter_sigma=0.0),
            SyntheticWorkload(threads_per_process=4, phases=6, jitter_sigma=0.0),
            SyntheticWorkload(threads_per_process=4, phases=6, jitter_sigma=0.3),
        ]
        scalar = []
        for i, wl in enumerate(workloads):
            p = _prep(wl, 3, f"ej/{i}")
            scalar.append(_rr_json(finish_run(p, p.sim.run())))
        preps = [_prep(wl, 3, f"ej/{i}") for i, wl in enumerate(workloads)]
        bs = BatchSimulator([p.sim for p in preps])
        results = bs.run()
        assert bs.ejected == [2]
        batched = [
            _rr_json(finish_run(p, r)) for p, r in zip(preps, results)
        ]
        assert batched == scalar


# -- golden campaign report ------------------------------------------------


class TestBatchCampaignGolden:
    """The pinned multi-shape campaign report gates every engine path."""

    def test_scalar_engine_matches_golden(self):
        assert generate_report(run_campaign(_camp())) == _golden_report()

    def test_batched_matches_golden(self):
        result = run_campaign(_camp(), runner=ParallelRunner(batch=True))
        assert generate_report(result) == _golden_report()

    def test_parallel_batched_matches_golden(self):
        result = run_campaign(_camp(), runner=ParallelRunner(2, batch=True))
        assert generate_report(result) == _golden_report()


# -- crash / resume --------------------------------------------------------


class TestBatchedResume:
    """Batched + ``resume`` rebuilds the scalar golden after a crash."""

    @pytest.mark.parametrize("seed", [1, 5])
    def test_batched_resume_matches_scalar_golden(self, seed, tmp_path):
        store = CellStore(tmp_path / "cells")
        inj = FaultInjector(FaultPlan.random(seed, abort=True))
        try:
            run_campaign(
                _camp(),
                runner=ParallelRunner(checkpoint=store, faults=inj, batch=True),
            )
        except (InjectedFault, ParallelExecutionError):
            pass  # the scheduled crash
        result = run_campaign(
            _camp(), runner=ParallelRunner(checkpoint=store, batch=True)
        )
        assert generate_report(result) == _golden_report()


# -- partition hazards -----------------------------------------------------


class TestPartitionHazards:
    """A cell the partition cannot place must raise or run scalar —
    never disappear from the results."""

    def _three_preps(self, seed=11):
        wl = SyntheticWorkload(threads_per_process=2, phases=3)
        return [_prep(wl, seed, f"pz/{i}") for i in range(3)]

    def test_partition_covers_every_index(self):
        preps = self._three_preps()
        odd = _prep(SyntheticWorkload(threads_per_process=3, phases=3), 11, "pz/odd")
        traced = _prep(SyntheticWorkload(threads_per_process=2, phases=3), 11, "pz/tr")
        traced.sim.trace = ListTraceSink()
        sims = [p.sim for p in preps] + [odd.sim, traced.sim]
        batches, scalar = partition_sims(sims)
        covered = sorted(i for b in batches for i in b) + scalar
        assert sorted(covered) == list(range(len(sims)))
        assert batches == [[0, 1, 2]]  # the three shape-identical cells
        assert scalar == [3, 4]  # unique shape + traced, explicitly scalar

    def test_traced_sim_is_ineligible(self):
        prep = _prep(SyntheticWorkload(threads_per_process=2, phases=3), 1, "el")
        assert batch_eligible(prep.sim)
        prep.sim.trace = ListTraceSink()
        assert not batch_eligible(prep.sim)
        assert sim_shape_key(prep.sim) is None

    def test_stale_sim_rejected(self):
        preps = self._three_preps()
        preps[0].sim.run()
        with pytest.raises(BatchPartitionError):
            BatchSimulator([p.sim for p in preps])

    def test_mixed_shape_rejected(self):
        a = _prep(SyntheticWorkload(threads_per_process=2, phases=3), 1, "mx/a")
        b = _prep(SyntheticWorkload(threads_per_process=3, phases=3), 1, "mx/b")
        with pytest.raises(BatchPartitionError):
            BatchSimulator([a.sim, b.sim])

    def test_lost_cell_raises_not_skips(self, monkeypatch):
        """If batched execution loses a result, run_batched must raise
        BatchPartitionError instead of returning a short list."""
        import repro.engine.batch as batch_mod

        preps = self._three_preps()
        orig = batch_mod.BatchSimulator.run
        monkeypatch.setattr(
            batch_mod.BatchSimulator, "run", lambda self: orig(self)[:-1]
        )
        with pytest.raises(BatchPartitionError):
            run_batched([p.sim for p in preps])

    def test_incompatible_cell_runs_scalar_exactly_once(self):
        """A shape-incompatible cell in a batched sweep lands in the
        report exactly once, with the partition journaled."""
        wl = SyntheticWorkload(threads_per_process=2, phases=3)
        odd = SyntheticWorkload(threads_per_process=3, phases=3)
        tasks = _mk_tasks([wl, wl, odd], seed=5)
        scalar = ParallelRunner(1).run_tasks(execute_cell, tasks)
        jl = MemoryJournal()
        batched = ParallelRunner(1, batch=True, journal=jl).run_tasks(
            execute_cell, tasks
        )
        assert len(batched) == len(tasks)
        assert all(runs is not None for runs in batched)
        assert _runs_json(batched) == _runs_json(scalar)
        assert jl.count("batch-partition") == 1
        # every cell finished exactly once
        finished = [e for e in jl.events if e.kind == "cell-finished"]
        assert sorted(e.label for e in finished) == sorted(
            t.label for t in tasks
        )

    def test_group_failure_falls_back_to_scalar(self, monkeypatch):
        """A group that fails as a unit is journaled ``batch-fallback``
        and re-run per cell on the scalar engine."""
        import repro.run.parallel as par

        wl = SyntheticWorkload(threads_per_process=2, phases=3)
        tasks = _mk_tasks([wl, wl, wl], seed=9)
        scalar = ParallelRunner(1).run_tasks(execute_cell, tasks)

        def boom(group):
            raise BatchPartitionError("injected group failure")

        monkeypatch.setattr(par, "_execute_batch_group", boom)
        jl = MemoryJournal()
        batched = ParallelRunner(1, batch=True, journal=jl).run_tasks(
            execute_cell, tasks
        )
        assert _runs_json(batched) == _runs_json(scalar)
        assert jl.count("batch-fallback") == 1


# -- open-loop request-per-arrival cells -----------------------------------


OL_PARAMS = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(["wordpress", "cassandra"]),
        "arrivals": st.sampled_from(["poisson", "bursty", "diurnal"]),
        "rate": st.sampled_from([60.0, 240.0]),
        "n_requests": st.integers(4, 20),
    }
)


def _mk_open_loop(p):
    cls = OpenLoopWordPress if p["workload"] == "wordpress" else OpenLoopCassandra
    return cls(rate=p["rate"], n_requests=p["n_requests"], arrivals=p["arrivals"])


def _dist_payloads(journal):
    """``label -> canonical cell-dist streams`` of one journaled run."""
    return {
        e.label: json.dumps(e.extra["streams"], sort_keys=True)
        for e in journal.events
        if e.kind == "cell-dist"
    }


class TestOpenLoopEquivalence:
    """Open-loop cells are bit-identical across every engine leg.

    Every cell records latency sketches, so ``_runs_json`` — which
    serializes ``RunResult.dist`` — covers the sketch payloads too; the
    journal check below additionally pins the ``cell-dist`` event bytes
    that ``repro obs dist`` consumes.
    """

    @settings(max_examples=8, deadline=None)
    @given(st.lists(OL_PARAMS, min_size=2, max_size=4), st.integers(0, 2**16))
    def test_engines_bit_identical(self, params, seed):
        workloads = [_mk_open_loop(p) for p in params]
        tasks = _mk_tasks(workloads, instance="xLarge", seed=seed % 1000)
        scalar = ParallelRunner(1).run_tasks(execute_cell, tasks)
        assert all(
            "op" in rr.dist for runs in scalar for rr in runs
        ), "open-loop cells must record per-request latency sketches"
        batched = ParallelRunner(1, batch=True).run_tasks(execute_cell, tasks)
        assert _runs_json(batched) == _runs_json(scalar)
        pool = ParallelRunner(2).run_tasks(execute_cell, tasks)
        assert _runs_json(pool) == _runs_json(scalar)

    def test_cell_dist_payloads_identical_across_legs(self):
        workloads = [
            OpenLoopWordPress(rate=120.0, n_requests=12),
            OpenLoopWordPress(rate=120.0, n_requests=12),
            OpenLoopCassandra(rate=90.0, n_requests=10, arrivals="bursty"),
        ]
        payloads = []
        for kwargs in ({}, {"batch": True}, {"jobs": 2}):
            jl = MemoryJournal()
            jobs = kwargs.pop("jobs", 1)
            tasks = _mk_tasks(workloads, instance="xLarge", seed=17)
            ParallelRunner(jobs, journal=jl, **kwargs).run_tasks(
                execute_cell, tasks
            )
            payloads.append(_dist_payloads(jl))
        assert len(payloads[0]) == len(workloads)
        assert payloads[0] == payloads[1] == payloads[2]

    def test_mixed_open_and_closed_corpus(self):
        """Arrival-process cells ride in a campaign next to closed-loop
        synthetic cells without perturbing either leg's bytes."""
        workloads = [
            SyntheticWorkload(threads_per_process=2, phases=3),
            OpenLoopWordPress(rate=150.0, n_requests=10, arrivals="diurnal"),
            SyntheticWorkload(threads_per_process=2, phases=3),
            OpenLoopCassandra(rate=80.0, n_requests=8),
        ]
        tasks = _mk_tasks(workloads, seed=23)
        scalar = ParallelRunner(1).run_tasks(execute_cell, tasks)
        batched = ParallelRunner(1, batch=True).run_tasks(execute_cell, tasks)
        pool = ParallelRunner(2).run_tasks(execute_cell, tasks)
        # closed-loop cells carry sketches too, so every leg's bytes
        # cover them
        assert all(
            rr.dist["cell"].count == 1 for runs in scalar for rr in runs
        )
        assert "op" in scalar[1][0].dist
        assert _runs_json(batched) == _runs_json(scalar)
        assert _runs_json(pool) == _runs_json(scalar)


# -- shared compiled columns -----------------------------------------------


class TestSharedColumns:
    """A batched load-curve ladder holds one read-only copy of each
    distinct compiled column.  Common random numbers give rep k the same
    draws at every rate and on every platform, so its ``work`` column is
    one object across the whole ladder."""

    @pytest.fixture(scope="class")
    def entry(self, tmp_path_factory):
        """The ladder's sims as ``run_batched`` receives them, with each
        sim's rep, platform and rate, and the live traced bytes then."""
        import gc
        import tracemalloc

        import repro.run.parallel as par
        from repro.cli import main

        out = tmp_path_factory.mktemp("ladder")
        real_prepare, real_batched = par.prepare_run, par.run_batched
        preps, seen = [], {}

        def prepare(workload, platform, *args, **kwargs):
            prep = real_prepare(workload, platform, *args, **kwargs)
            preps.append((prep.sim, prep.rep, platform.label, workload.rate))
            return prep

        def batched(sims):
            gc.collect()
            seen["live"] = tracemalloc.get_traced_memory()[0] - base
            ids = {id(s) for s in sims}
            seen["cells"] = [
                (rep, label, rate, sim._compiled)
                for sim, rep, label, rate in preps
                if id(sim) in ids
            ]
            assert len(seen["cells"]) == len(sims)
            return real_batched(sims)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(par, "prepare_run", prepare)
            mp.setattr(par, "run_batched", batched)
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            try:
                assert main([
                    "loadcurve", "--rates", "80,160,240", "--requests", "100",
                    "--reps", "2", "--batch", "--out", str(out / "r.md"),
                ]) == 0
            finally:
                if not was_tracing:
                    tracemalloc.stop()
        preps.clear()
        return seen

    def test_one_work_column_per_rep(self, entry):
        cells = entry["cells"]
        assert len(cells) == 3 * 5 * 2
        by_rep: dict[int, list] = {}
        for rep, label, rate, compiled in cells:
            by_rep.setdefault(rep, []).append((label, rate, compiled))
        assert sorted(by_rep) == [0, 1]
        for rep_cells in by_rep.values():
            # every platform at every rate
            assert len({(label, rate) for label, rate, _ in rep_cells}) == 15
            tables = [c for *_, c in rep_cells]
            assert all(c.work is tables[0].work for c in tables)
            assert all(c.work_l is tables[0].work_l for c in tables)
        assert by_rep[0][0][2].work is not by_rep[1][0][2].work
        # the rep-independent layout is one object for the whole ladder
        assert all(c.kind is cells[0][3].kind for *_, c in cells)

    def test_shared_columns_are_read_only(self, entry):
        compiled = entry["cells"][0][3]
        for name in ("seg_base", "kind", "work", "pp", "io_net_dur",
                     "mark_submit"):
            col = getattr(compiled, name)
            assert col.flags.writeable is False, name
            with pytest.raises(ValueError):
                col[0] = col[0]
        assert isinstance(compiled.work_l, tuple)

    def test_live_bytes_per_segment_row(self, entry):
        rows = sum(c.n_segments for *_, c in entry["cells"])
        assert entry["live"] / rows <= 400
