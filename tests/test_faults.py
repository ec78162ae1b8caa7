"""Chaos tests: deterministic fault injection and crash-safe resume.

The contract under test, from strongest to weakest:

* **byte-identity** — for every seeded fault plan, a campaign that
  crashes at the injected site and is then resumed produces a report
  byte-identical to the fault-free golden run;
* **zero cost when off** — attaching no plan leaves results
  byte-identical to a build without the fault machinery;
* **site coverage** — every built-in fault site actually fires when
  scheduled (asserted via the injector's firing record);
* **determinism** — the same plan seed fires the same faults at the
  same places, every time, at any job count.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    Campaign,
    CellStore,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    run_campaign,
)
from repro.analysis.report import generate_report
from repro.errors import (
    ConfigurationError,
    InjectedCrash,
    InjectedFault,
    ParallelExecutionError,
)
from repro.faults import (
    FABRIC_SITES,
    FAULT_SITES,
    PARENT_SITES,
    WORKER_SITES,
    NULL_INJECTOR,
)
from repro.obs.journal import JsonlJournal, MemoryJournal, read_journal
from repro.run.parallel import ParallelRunner


def _camp() -> Campaign:
    return Campaign(reps_fast=1, include=("fig3",))


@pytest.fixture(scope="module")
def golden_report() -> str:
    """The fault-free fig3 campaign report every chaos run must match."""
    return generate_report(run_campaign(_camp()))


# -- plan data model -------------------------------------------------------


class TestFaultSpec:
    def test_roundtrip(self):
        spec = FaultSpec(
            site="worker.kill", match="fig3", at=2, attempts=(1, 2), delay=0.5
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="worker.explode")

    @pytest.mark.parametrize(
        "kwargs",
        [{"at": 0}, {"attempts": ()}, {"attempts": (0,)}, {"delay": -1.0}],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="task.error", **kwargs)

    def test_match_is_substring(self):
        spec = FaultSpec(site="task.error", match="Large")
        assert spec.matches_label("ffmpeg/vanilla CN/xLarge")
        assert not spec.matches_label("ffmpeg/vanilla CN/Small")

    def test_malformed_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"at": "sometimes"})


class TestFaultPlan:
    def test_roundtrip_and_save_load(self, tmp_path):
        plan = FaultPlan.random(7, n_faults=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_same_seed_same_plan(self):
        assert FaultPlan.random(42) == FaultPlan.random(42)
        assert FaultPlan.random(42) != FaultPlan.random(43)

    def test_seed_rotation_covers_every_site(self):
        sites = set()
        for seed in range(len(FAULT_SITES)):
            sites.add(FaultPlan.random(seed).specs[0].site)
        assert sites == set(FAULT_SITES)

    def test_abort_plans_exhaust_retries(self):
        plan = FaultPlan.random(5, abort=True)
        for spec in plan.specs:
            assert spec.attempts == (1, 2)

    def test_worker_fault_is_pure(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="task.error", match="xLarge"),)
        )
        assert plan.worker_fault("fig3/xLarge", 1) is not None
        assert plan.worker_fault("fig3/xLarge", 2) is None  # attempt healed
        assert plan.worker_fault("fig3/Large", 1) is None  # label mismatch
        # parent sites never match as worker faults
        p2 = FaultPlan(specs=(FaultSpec(site="disk.full"),))
        assert p2.worker_fault("anything", 1) is None

    def test_parent_fault_counts_occurrences(self):
        plan = FaultPlan(specs=(FaultSpec(site="disk.full", at=3),))
        assert plan.parent_fault("disk.full", "x", 1) is None
        assert plan.parent_fault("disk.full", "x", 3) is not None

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.load(bad)
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"no": "specs"})

    def test_sites_partition(self):
        assert WORKER_SITES | PARENT_SITES == set(FAULT_SITES)
        assert not WORKER_SITES & PARENT_SITES


# -- injector --------------------------------------------------------------


class TestFaultInjector:
    def test_null_injector_disabled_and_inert(self):
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.fire("disk.full", "x") is None
        assert NULL_INJECTOR.worker_fault("x", 1) is None
        NULL_INJECTOR.maybe_disk_full("x")  # never raises
        assert NULL_INJECTOR.fired == []

    def test_disk_full_raises_at_scheduled_occurrence(self):
        inj = FaultInjector(FaultPlan(specs=(FaultSpec(site="disk.full", at=2),)))
        inj.maybe_disk_full("entry")  # occurrence 1: clean
        with pytest.raises(InjectedFault) as err:
            inj.maybe_disk_full("entry")
        assert err.value.site == "disk.full"
        assert inj.fired_sites() == {"disk.full"}

    def test_corrupt_truncates_file(self, tmp_path):
        inj = FaultInjector(FaultPlan(specs=(FaultSpec(site="cache.corrupt"),)))
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"k": "v" * 50}))
        before = path.read_bytes()
        assert inj.maybe_corrupt(path, "entry")
        assert len(path.read_bytes()) < len(before)
        # second occurrence is not scheduled
        assert not inj.maybe_corrupt(path, "entry")

    def test_fired_faults_are_journaled(self):
        inj = FaultInjector(FaultPlan(specs=(FaultSpec(site="disk.full"),)))
        jl = MemoryJournal()
        inj.journal = jl
        with pytest.raises(InjectedFault):
            inj.maybe_disk_full("entry")
        assert jl.count("fault-injected") == 1


# -- worker sites through the runner ---------------------------------------


class _Task:
    """Tiny picklable payload with a label."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.label = f"task-{n}"


def _double(task: _Task) -> list:
    return [task.n * 2]


class TestWorkerFaultsInline:
    def test_task_error_heals_via_retry(self):
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="task.error", match="task-1"),))
        )
        jl = MemoryJournal()
        runner = ParallelRunner(1, retries=1, journal=jl, faults=inj)
        assert runner.run_tasks(_double, [_Task(0), _Task(1)]) == [[0], [2]]
        assert inj.fired_sites() == {"task.error"}
        assert jl.count("cell-retried") == 1

    def test_task_error_abort_exhausts_retries(self):
        inj = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(site="task.error", attempts=(1, 2)),)
            )
        )
        runner = ParallelRunner(1, retries=1, faults=inj)
        with pytest.raises(ParallelExecutionError) as err:
            runner.run_tasks(_double, [_Task(0)])
        assert err.value.reason == "exception"

    @pytest.mark.parametrize("site", ["worker.kill", "task.timeout"])
    def test_kill_and_timeout_abort_inline(self, site):
        inj = FaultInjector(FaultPlan(specs=(FaultSpec(site=site),)))
        runner = ParallelRunner(1, retries=5, faults=inj)
        with pytest.raises(InjectedCrash):  # never retried, despite retries=5
            runner.run_tasks(_double, [_Task(0)])
        assert inj.fired_sites() == {site}

    def test_no_plan_is_zero_cost(self):
        plain = ParallelRunner(1).run_tasks(_double, [_Task(i) for i in range(4)])
        armed = ParallelRunner(
            1, faults=FaultInjector(None)
        ).run_tasks(_double, [_Task(i) for i in range(4)])
        assert plain == armed == [[0], [2], [4], [6]]


class TestWorkerFaultsPool:
    def test_worker_kill_breaks_pool_then_retry_heals(self):
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", match="task-2"),))
        )
        jl = MemoryJournal()
        runner = ParallelRunner(2, retries=1, journal=jl, faults=inj)
        results = runner.run_tasks(_double, [_Task(i) for i in range(4)])
        assert results == [[0], [2], [4], [6]]
        assert jl.count("pool-rebuilt") >= 1

    def test_task_timeout_fires_structured_error(self):
        inj = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="task.timeout", match="task-0",
                        attempts=(1, 2), delay=30.0,
                    ),
                )
            )
        )
        runner = ParallelRunner(2, timeout=0.5, retries=0, faults=inj)
        with pytest.raises(ParallelExecutionError) as err:
            runner.run_tasks(_double, [_Task(0)])
        assert err.value.reason == "timeout"

    def test_task_error_transient_in_pool(self):
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="task.error", match="task-1"),))
        )
        runner = ParallelRunner(2, retries=1, faults=inj)
        assert runner.run_tasks(_double, [_Task(0), _Task(1)]) == [[0], [2]]


# -- journal truncation ----------------------------------------------------


class TestJournalTruncate:
    def test_truncate_tears_line_and_crashes(self, tmp_path):
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="journal.truncate", at=3),))
        )
        jl = JsonlJournal(tmp_path / "j.jsonl", faults=inj)
        jl.record("run-started", label="a")
        jl.record("run-started", label="b")
        with pytest.raises(InjectedCrash):
            jl.record("run-started", label="c")
        jl.close()
        data = (tmp_path / "j.jsonl").read_bytes()
        assert not data.endswith(b"\n")  # torn mid-line
        with pytest.raises(ConfigurationError):
            read_journal(tmp_path / "j.jsonl", strict=True)
        with pytest.warns(UserWarning, match="partial trailing journal line"):
            assert (
                len(read_journal(tmp_path / "j.jsonl", strict=False)) == 2
            )

    def test_append_mode_trims_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="journal.truncate", at=2),))
        )
        jl = JsonlJournal(path, faults=inj)
        jl.record("run-started", label="a")
        with pytest.raises(InjectedCrash):
            jl.record("run-started", label="b")
        jl.close()
        resumed = JsonlJournal(path, append=True)
        resumed.record("run-finished", label="c")
        resumed.close()
        events = read_journal(path, strict=True)  # strict parse passes again
        assert [e.label for e in events] == ["a", "c"]


    def test_nothing_lands_after_a_torn_append(self, tmp_path):
        """Events emitted while the simulated crash unwinds (a closing
        span) stay off the file, so the torn line is the tail a resume
        trims and the journal parses strictly again."""
        path = tmp_path / "j.jsonl"
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="journal.truncate", at=2),))
        )
        jl = JsonlJournal(path, faults=inj)
        jl.record("run-started", label="a")
        with pytest.raises(InjectedCrash):
            jl.record("run-started", label="b")
        jl.record("span", label="unwound")
        jl.close()
        resumed = JsonlJournal(path, append=True)
        resumed.record("run-finished", label="c")
        resumed.close()
        events = read_journal(path, strict=True)
        assert [e.label for e in events] == ["a", "c"]


# -- seeded chaos campaigns ------------------------------------------------


class TestSeededChaosCampaigns:
    """The tentpole property: crash anywhere, resume to the same bytes.

    50 seeded plans; ``abort=True`` makes worker faults permanent, so
    most runs die at the injected site.  The resume run must rebuild the
    exact golden report from the cell checkpoints, and the appended
    journal must parse strictly afterwards.
    """

    @pytest.mark.parametrize("seed", range(50))
    def test_resume_matches_golden_report(self, seed, golden_report, tmp_path):
        store = CellStore(tmp_path / "cells")
        inj = FaultInjector(FaultPlan.random(seed, abort=True))
        jl = JsonlJournal(tmp_path / "run.jsonl")
        try:
            run_campaign(
                _camp(),
                runner=ParallelRunner(checkpoint=store, journal=jl, faults=inj),
            )
        except (InjectedFault, ParallelExecutionError):
            pass  # the scheduled crash
        finally:
            jl.close()
        jl2 = JsonlJournal(tmp_path / "run.jsonl", append=True)
        try:
            result = run_campaign(
                _camp(), runner=ParallelRunner(checkpoint=store, journal=jl2)
            )
        finally:
            jl2.close()
        assert generate_report(result) == golden_report
        events = read_journal(tmp_path / "run.jsonl", strict=True)
        assert any(e.kind == "campaign-finished" for e in events)

    @pytest.mark.parametrize("site", sorted(FAULT_SITES))
    def test_every_site_fires_when_scheduled(self, site, tmp_path):
        """Site coverage: each built-in site is reachable and recorded."""
        # journal events come thick; schedule mid-stream.  parent sites
        # fire on their first occurrence.
        at = 5 if site == "journal.truncate" else 1
        attempts = (1, 2) if site in WORKER_SITES else (1,)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site=site, at=at, attempts=attempts),))
        )
        if site in FABRIC_SITES:
            # lease sites only exist on the shard-queue heartbeat path
            from repro.fabric import init_queue, run_worker

            init_queue(tmp_path / "queue", _camp(), shards=2)
            run_worker(tmp_path / "queue", "w1", faults=inj, wait=False)
            assert site in inj.fired_sites()
            return
        store = CellStore(tmp_path / "cells")
        jl = JsonlJournal(tmp_path / "run.jsonl")
        try:
            run_campaign(
                _camp(),
                runner=ParallelRunner(checkpoint=store, journal=jl, faults=inj),
            )
        except (InjectedFault, ParallelExecutionError):
            pass
        finally:
            jl.close()
        assert site in inj.fired_sites()

    def test_cache_corrupt_detected_and_rerun(self, golden_report, tmp_path):
        """A torn checkpoint is flagged ``checkpoint-corrupt`` and re-run."""
        store = CellStore(tmp_path / "cells")
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="cache.corrupt", at=1),))
        )
        run_campaign(_camp(), runner=ParallelRunner(checkpoint=store, faults=inj))
        assert inj.fired_sites() == {"cache.corrupt"}
        # the campaign completed despite the torn entry; the re-run
        # replays the intact checkpoints and re-runs the torn one.
        jl = JsonlJournal(tmp_path / "run.jsonl")
        try:
            result = run_campaign(
                _camp(), runner=ParallelRunner(checkpoint=store, journal=jl)
            )
        finally:
            jl.close()
        assert generate_report(result) == golden_report
        kinds = [e.kind for e in read_journal(tmp_path / "run.jsonl")]
        assert "checkpoint-corrupt" in kinds
        assert "cell-resumed" in kinds


class TestZeroCostWhenOff:
    def test_campaign_byte_identical_without_plan(self, golden_report, tmp_path):
        """Checkpointing + unarmed injector must not perturb results."""
        store = CellStore(tmp_path / "cells")
        result = run_campaign(
            _camp(),
            runner=ParallelRunner(checkpoint=store, faults=FaultInjector(None)),
        )
        assert generate_report(result) == golden_report
        assert len(store) > 0  # write-through checkpoints really happened

    def test_resumed_campaign_identical_across_jobs(self, golden_report, tmp_path):
        """Resume is deterministic at any worker count."""
        store = CellStore(tmp_path / "cells")
        inj = FaultInjector(FaultPlan.random(1, abort=True))
        try:
            run_campaign(
                _camp(), runner=ParallelRunner(checkpoint=store, faults=inj)
            )
        except (InjectedFault, ParallelExecutionError):
            pass
        for jobs in (1, 2):
            result = run_campaign(
                _camp(), runner=ParallelRunner(checkpoint=store, jobs=jobs)
            )
            assert generate_report(result) == golden_report
