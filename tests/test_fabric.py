"""Sharded campaign fabric: lease protocol, workers, merge, adaptive reps.

The contract under test, from strongest to weakest:

* **byte-identity** — a campaign drained by any number of fabric
  workers (cleanly, or through crashes, lease steals and reclamations)
  merges into a report byte-identical to the serial ``run_campaign``;
* **single-winner leasing** — every shard-state transition is one
  atomic rename, so two workers can never both own a shard generation,
  and a reclaimed shard's loser journals never reach the merge;
* **shared-store safety** — racing writers on one checkpoint cell
  either produce byte-identical entries (deduplicated) or raise
  :class:`~repro.errors.PersistenceConflictError`;
* **adaptive allocation** — CI-driven repetition grants are
  seed-deterministic and reach the uniform run's max CI half-width on
  a fraction of the repetitions.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import Campaign, CellStore, FaultInjector, FaultPlan, FaultSpec
from repro.analysis.adaptive import AdaptiveRepsPolicy
from repro.analysis.report import generate_report
from repro.analysis.stats import needs_more_samples, summarize
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    InjectedCrash,
    LeaseLostError,
    PersistenceConflictError,
    ReproError,
)
from repro.fabric import (
    ShardQueue,
    campaign_cells,
    init_queue,
    manifest_for_campaign,
    merge_queue,
    plan_fingerprint,
    run_worker,
    shard_ranges,
)
from repro.hostmodel.topology import HostTopology, small_host
from repro.obs import SCHEMA_VERSION, journal_to_metrics, summarize_journal
from repro.obs.journal import MemoryJournal, read_journal
from repro.run.calibration import Calibration
from repro.run.campaign import run_campaign
from repro.run.parallel import ParallelRunner, execute_cell


def _camp() -> Campaign:
    return Campaign(reps_fast=1, include=("fig8",))


@pytest.fixture(scope="module")
def golden_report() -> str:
    """The serial report every fabric merge must reproduce exactly."""
    return generate_report(run_campaign(_camp()))


# -- plan ------------------------------------------------------------------


class TestPlan:
    def test_shard_ranges_near_equal(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_shard_ranges_clamped_to_cells(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_shard_ranges_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            shard_ranges(0, 4)
        with pytest.raises(ConfigurationError):
            shard_ranges(4, 0)

    def test_cells_cover_plan_in_order(self):
        refs = campaign_cells(_camp())
        assert [r.index for r in refs] == list(range(len(refs)))
        assert len({r.key for r in refs}) == len(refs)

    def test_fingerprint_tracks_campaign(self):
        a = plan_fingerprint(campaign_cells(_camp()))
        b = plan_fingerprint(campaign_cells(Campaign(reps_fast=2, include=("fig8",))))
        assert a != b

    def test_manifest_roundtrip(self):
        from repro.fabric import campaign_from_manifest

        camp = Campaign(reps_fast=2, reps_io=1, seed=9, include=("fig8", "fig3"))
        manifest = manifest_for_campaign(camp, shards=3, lease_ttl=5.0)
        rebuilt = campaign_from_manifest(
            json.loads(json.dumps(manifest))  # through-JSON, as on disk
        )
        assert rebuilt == camp
        assert plan_fingerprint(campaign_cells(rebuilt)) == manifest["plan"]

    def test_manifest_roundtrip_small_host(self):
        from repro.fabric import campaign_from_manifest

        camp = Campaign(reps_fast=1, include=("fig8",), host=small_host(16))
        manifest = manifest_for_campaign(camp, shards=2, lease_ttl=5.0)
        assert campaign_from_manifest(manifest) == camp

    def test_manifest_rejects_custom_host(self):
        host = HostTopology(
            name="exotic", sockets=3, cores_per_socket=5, threads_per_core=1
        )
        with pytest.raises(ConfigurationError, match="stock hosts"):
            manifest_for_campaign(
                Campaign(include=("fig8",), host=host), shards=2, lease_ttl=5.0
            )

    def test_manifest_rejects_custom_calibration(self):
        camp = Campaign(
            include=("fig8",),
            calib=dataclasses.replace(Calibration(), vm_mem_penalty=0.5),
        )
        with pytest.raises(ConfigurationError, match="calibration"):
            manifest_for_campaign(camp, shards=2, lease_ttl=5.0)


# -- lease protocol --------------------------------------------------------


class TestLeaseProtocol:
    def test_claim_is_single_winner(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        q1 = ShardQueue(tmp_path / "q")
        q2 = ShardQueue(tmp_path / "q")
        a = q1.claim("w1")
        b = q2.claim("w2")
        assert a is not None and b is not None and a.shard != b.shard
        assert q1.claim("w1") is None  # nothing left to lease

    def test_fresh_lease_not_reclaimable(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=1, lease_ttl=60.0)
        q = ShardQueue(tmp_path / "q")
        assert q.claim("w1") is not None
        assert q.claim("w2") is None

    def test_stale_lease_reclaimed_at_next_generation(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=1, lease_ttl=0.05)
        q = ShardQueue(tmp_path / "q")
        first = q.claim("w1")
        time.sleep(0.1)
        second = q.claim("w2")
        assert second is not None
        assert second.generation == first.generation + 1
        assert second.reclaimed_from == ("w1", first.generation)

    def test_heartbeat_after_steal_raises(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=1, lease_ttl=0.05)
        q = ShardQueue(tmp_path / "q")
        lease = q.claim("w1")
        time.sleep(0.1)
        assert q.claim("w2") is not None
        with pytest.raises(LeaseLostError):
            q.heartbeat(lease)

    def test_finalize_after_steal_raises(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=1, lease_ttl=0.05)
        q = ShardQueue(tmp_path / "q")
        lease = q.claim("w1")
        time.sleep(0.1)
        assert q.claim("w2") is not None
        with pytest.raises(LeaseLostError):
            q.finalize(lease)

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=1, lease_ttl=0.2)
        q = ShardQueue(tmp_path / "q")
        lease = q.claim("w1")
        for _ in range(3):
            time.sleep(0.1)
            q.heartbeat(lease)
        assert q.claim("w2") is None  # heartbeats kept it fresh

    def test_worker_id_validated(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=1, lease_ttl=60.0)
        q = ShardQueue(tmp_path / "q")
        for bad in ("", "a b", "x--y", "a/b"):
            with pytest.raises(ConfigurationError):
                q.claim(bad)

    def test_status_and_done_map(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        q = ShardQueue(tmp_path / "q")
        assert {s.state for s in q.status()} == {"todo"}
        lease = q.claim("w1")
        states = {s.shard: s.state for s in q.status()}
        assert states[lease.shard] == "leased"
        q.finalize(lease)
        states = {s.shard: s.state for s in q.status()}
        assert states[lease.shard] == "done"
        assert q.done_map()[lease.shard] == (lease.generation, "w1")
        assert not q.all_done()

    def test_require_all_done_names_stragglers(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        q = ShardQueue(tmp_path / "q")
        with pytest.raises(ReproError, match="shard"):
            q.require_all_done()

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "q").mkdir()
        with pytest.raises(ConfigurationError):
            ShardQueue(tmp_path / "q").manifest()

    def test_init_twice_rejected_without_resume(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2)
        with pytest.raises(ConfigurationError, match="already"):
            init_queue(tmp_path / "q", _camp(), shards=2)

    def test_resume_reuses_matching_plan_only(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2)
        init_queue(tmp_path / "q", _camp(), shards=2, exist_ok=True)
        other = Campaign(reps_fast=2, include=("fig8",))
        with pytest.raises(ConfigurationError, match="plan"):
            init_queue(tmp_path / "q", other, shards=2, exist_ok=True)


# -- worker / merge byte-identity ------------------------------------------


class TestFabricEquivalence:
    def test_one_worker_matches_serial(self, golden_report, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=3, lease_ttl=60.0)
        report = run_worker(tmp_path / "q", "w1", wait=False)
        assert sorted(report.shards_done) == [0, 1, 2]
        result, info = merge_queue(tmp_path / "q")
        assert generate_report(result) == golden_report
        assert info.reclaims == 0 and info.orphan_journals == 0
        assert info.workers == ["w1"]

    def test_interleaved_workers_match_serial(self, golden_report, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=4, lease_ttl=60.0)
        # alternate two workers one shard at a time
        for worker in ("w1", "w2", "w1", "w2"):
            run_worker(
                tmp_path / "q", worker, wait=False, max_shards=1
            )
        result, info = merge_queue(tmp_path / "q")
        assert generate_report(result) == golden_report
        assert info.workers == ["w1", "w2"]

    def test_merge_refuses_undone_queue(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        with pytest.raises(ReproError, match="shard"):
            merge_queue(tmp_path / "q")

    def test_worker_rejects_plan_skew(self, tmp_path):
        queue = init_queue(tmp_path / "q", _camp(), shards=2)
        manifest = json.loads(queue.manifest_path.read_text())
        manifest["plan"] = "0" * 24
        queue.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="skew"):
            run_worker(tmp_path / "q", "w1", wait=False)
        with pytest.raises(ConfigurationError, match="skew"):
            merge_queue(tmp_path / "q")

    def test_legacy_dist_manifest_key_ignored(self, golden_report, tmp_path):
        """A queue committed with the retired ``dist`` manifest key
        resumes and merges as usual; every cell journals its sketches."""
        queue = init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        manifest = json.loads(queue.manifest_path.read_text())
        assert "dist" not in manifest
        manifest["dist"] = False
        queue.manifest_path.write_text(json.dumps(manifest))
        init_queue(tmp_path / "q", _camp(), shards=2, exist_ok=True)
        run_worker(tmp_path / "q", "w1", wait=False)
        jpath = tmp_path / "merged.jsonl"
        result, info = merge_queue(tmp_path / "q", journal_out=jpath)
        assert generate_report(result) == golden_report
        kinds = [e.kind for e in read_journal(jpath, strict=True)]
        assert kinds.count("cell-dist") == kinds.count("cell-finished")
        assert kinds.count("cell-dist") == info.cells

    def test_merged_journal_and_metrics_outputs(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        run_worker(tmp_path / "q", "w1", wait=False)
        jpath = tmp_path / "merged.jsonl"
        mpath = tmp_path / "metrics.json"
        _, info = merge_queue(
            tmp_path / "q", journal_out=jpath, metrics_out=mpath
        )
        events = read_journal(jpath, strict=True)
        assert len(events) == info.events
        kinds = {e.kind for e in events}
        assert {"shard-started", "shard-finished", "cell-finished"} <= kinds
        metrics = json.loads(mpath.read_text())
        assert metrics["repro_cells_completed_total"]["value"] == info.cells
        assert metrics == json.loads(
            json.dumps(journal_to_metrics(events).to_json())
        )
        reps = sum(len(r.task.streams) for r in campaign_cells(_camp()))
        assert metrics["repro_sim_runs_total"]["value"] == reps

    def test_two_worker_summary_matches_serial(self, tmp_path):
        """Fig. 7's six cells share three labels; the merged fabric
        journal and the serial journal summarize to the same cells."""
        camp = Campaign(reps_fast=1, include=("fig7",))
        serial = MemoryJournal()
        run_campaign(camp, runner=ParallelRunner(journal=serial))
        init_queue(tmp_path / "q", camp, shards=2, lease_ttl=60.0)
        run_worker(tmp_path / "q", "w1", wait=False, max_shards=1)
        run_worker(tmp_path / "q", "w2", wait=False)
        jpath = tmp_path / "merged.jsonl"
        _, info = merge_queue(tmp_path / "q", journal_out=jpath)
        assert info.workers == ["w1", "w2"]

        def view(summary):
            return (
                summary.n_cells, summary.n_executed, summary.n_resumed,
                summary.sched_events_total,
                {k: (c.migrations, c.runs) for k, c in summary.cells.items()},
            )

        merged = summarize_journal(read_journal(jpath, strict=True))
        assert view(merged) == view(summarize_journal(serial.events))
        assert merged.n_cells == 6


# -- crash / chaos ---------------------------------------------------------


class TestFabricChaos:
    def test_killed_worker_reclaimed_and_merge_identical(
        self, golden_report, tmp_path
    ):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=0.1)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", attempts=(1, 2)),))
        )
        with pytest.raises(InjectedCrash):
            run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        time.sleep(0.15)
        report = run_worker(tmp_path / "q", "w2", wait=False)
        assert report.reclaims == 1
        result, info = merge_queue(tmp_path / "q")
        assert generate_report(result) == golden_report
        assert info.reclaims == 1 and info.orphan_journals == 1

    def test_lease_steal_heals_in_one_worker(self, golden_report, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="lease.steal", at=1),))
        )
        report = run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        assert report.shards_lost and "lease.steal" in inj.fired_sites()
        result, _ = merge_queue(tmp_path / "q")
        assert generate_report(result) == golden_report

    def test_lease_stale_mutes_heartbeats(self, golden_report, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="lease.stale", at=1),))
        )
        run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        assert "lease.stale" in inj.fired_sites()
        result, _ = merge_queue(tmp_path / "q")
        assert generate_report(result) == golden_report


# -- journal-merge edge cases ----------------------------------------------


class TestJournalMergeEdgeCases:
    def _drained_queue(self, tmp_path) -> ShardQueue:
        queue = init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        run_worker(tmp_path / "q", "w1", wait=False)
        return queue

    def test_orphan_generation_journal_excluded(
        self, golden_report, tmp_path
    ):
        """Exactly-once: a reclaimed lease's loser journal is not merged."""
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=0.1)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", attempts=(1, 2)),))
        )
        with pytest.raises(InjectedCrash):
            run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        time.sleep(0.15)
        run_worker(tmp_path / "q", "w2", wait=False)
        result, info = merge_queue(
            tmp_path / "q", journal_out=tmp_path / "merged.jsonl"
        )
        assert generate_report(result) == golden_report
        events = read_journal(tmp_path / "merged.jsonl", strict=True)
        # every cell appears exactly once despite the replayed generation
        from collections import Counter

        done = Counter(
            e.label
            for e in events
            if e.kind in ("cell-finished", "cell-resumed")
        )
        plan = Counter(r.task.label for r in campaign_cells(_camp()))
        assert done == plan

    def test_unknown_event_kinds_survive_merge(self, tmp_path):
        queue = self._drained_queue(tmp_path)
        gen, _ = queue.done_map()[0]
        path = queue.journal_path(0, gen)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "ts": 0.0, "kind": "from-the-future",
                        "schema": SCHEMA_VERSION,
                    }
                )
                + "\n"
            )
        _, info = merge_queue(tmp_path / "q")
        assert info.events > 0  # merge tolerated the unknown kind

    def test_empty_shard_journal_tolerated(self, tmp_path):
        queue = self._drained_queue(tmp_path)
        gen, _ = queue.done_map()[0]
        queue.journal_path(0, gen).write_text("")
        result, info = merge_queue(tmp_path / "q")
        assert info.cells == len(campaign_cells(_camp()))

    def test_missing_shard_journal_tolerated(self, tmp_path):
        queue = self._drained_queue(tmp_path)
        gen, _ = queue.done_map()[0]
        queue.journal_path(0, gen).unlink()
        result, info = merge_queue(tmp_path / "q")
        assert info.cells == len(campaign_cells(_camp()))

    def test_torn_journal_tail_skipped(self, tmp_path):
        queue = self._drained_queue(tmp_path)
        gen, _ = queue.done_map()[0]
        path = queue.journal_path(0, gen)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ts": 1.0, "kind": "cell-fini')  # torn mid-write
        with pytest.warns(UserWarning, match="skipping"):
            _, info = merge_queue(tmp_path / "q")
        assert info.events > 0

    def test_missing_checkpoint_is_hard_error(self, tmp_path):
        queue = self._drained_queue(tmp_path)
        for entry in queue.cells_dir.iterdir():
            entry.unlink()
        with pytest.raises(ReproError, match="cell store"):
            merge_queue(tmp_path / "q")


# -- shared-store write safety (the double-write fix) ----------------------


class TestSharedStoreConflicts:
    def _runs(self):
        ref = campaign_cells(_camp())[0]
        return ref.key, ref.task.label, list(execute_cell(ref.task))

    def test_identical_rewrite_is_deduplicated(self, tmp_path):
        key, label, runs = self._runs()
        store = CellStore(tmp_path / "cells")
        path = store.put(key, runs, label=label)
        before = path.read_bytes()
        # a racing worker computing the same cell writes identical bytes
        CellStore(tmp_path / "cells").put(key, runs, label=label)
        assert path.read_bytes() == before
        loaded, state = store.load(key)
        assert state == "hit" and len(loaded) == len(runs)

    def test_divergent_rewrite_raises(self, tmp_path):
        key, label, runs = self._runs()
        store = CellStore(tmp_path / "cells")
        store.put(key, runs, label=label)
        skewed = [dataclasses.replace(runs[0], value=runs[0].value + 1.0)]
        with pytest.raises(PersistenceConflictError, match="divergent"):
            CellStore(tmp_path / "cells").put(key, skewed, label=label)

    def test_corrupt_entry_overwritten(self, tmp_path):
        key, label, runs = self._runs()
        store = CellStore(tmp_path / "cells")
        path = store.put(key, runs, label=label)
        path.write_text("{torn")
        store.put(key, runs, label=label)
        _, state = store.load(key)
        assert state == "hit"

    def test_cross_process_identical_writes_agree(self, tmp_path):
        """Two real processes writing one cell converge on one entry."""
        key, label, _ = self._runs()
        script = (
            "from repro import Campaign, CellStore\n"
            "from repro.fabric import campaign_cells\n"
            "from repro.run.parallel import execute_cell\n"
            "ref = campaign_cells(Campaign(reps_fast=1, include=('fig8',)))[0]\n"
            f"store = CellStore({str(tmp_path / 'cells')!r})\n"
            "store.put(ref.key, list(execute_cell(ref.task)), "
            "label=ref.task.label)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], cwd=Path.cwd()
            )
            for _ in range(2)
        ]
        assert [p.wait() for p in procs] == [0, 0]
        runs, state = CellStore(tmp_path / "cells").load(key)
        assert state == "hit" and runs


# -- CLI: subprocess fleet -------------------------------------------------


class TestFabricCli:
    def test_three_worker_fleet_matches_serial_report(
        self, golden_report, tmp_path
    ):
        from repro.cli import main

        assert (
            main(
                [
                    "fabric", "run", str(tmp_path / "q"),
                    "--workers", "3", "--only", "fig8",
                    "--reps-fast", "1", "--reps-io", "2",
                    "--out", str(tmp_path / "fabric.md"),
                ]
            )
            == 0
        )
        assert (tmp_path / "fabric.md").read_text() == golden_report

    def test_status_renders(self, tmp_path, capsys):
        from repro.cli import main

        init_queue(tmp_path / "q", _camp(), shards=2)
        assert main(["fabric", "status", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "2 todo" in out


# -- adaptive repetition allocation ----------------------------------------


class TestAdaptiveReps:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveRepsPolicy(base_reps=1)
        with pytest.raises(ConfigurationError):
            AdaptiveRepsPolicy(max_reps=2, base_reps=3)
        with pytest.raises(ConfigurationError):
            AdaptiveRepsPolicy(round_reps=0)
        with pytest.raises(ConfigurationError):
            AdaptiveRepsPolicy(target_rel_ci=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveRepsPolicy(target_half_width=-1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveRepsPolicy(confidence=1.0)

    def test_needs_more_samples(self):
        tight = [10.0, 10.001, 9.999, 10.0]
        noisy = [5.0, 15.0, 2.0, 20.0]
        assert not needs_more_samples(tight, target_rel_ci=0.05)
        assert needs_more_samples(noisy, target_rel_ci=0.05)
        assert not needs_more_samples(noisy, target_half_width=1e6)
        with pytest.raises(AnalysisError):
            needs_more_samples(tight)

    def test_allocation_deterministic(self):
        camp = Campaign(reps_fast=8, include=("fig3",))
        policy = AdaptiveRepsPolicy(base_reps=3, target_rel_ci=0.004)
        a = run_campaign(camp, reps_policy=policy)
        b = run_campaign(camp, reps_policy=policy)
        assert generate_report(a) == generate_report(b)
        per_a = [len(c.runs) for c in a.sweeps["fig3"].cells.values()]
        per_b = [len(c.runs) for c in b.sweeps["fig3"].cells.values()]
        assert per_a == per_b and max(per_a) > min(per_a)

    def test_reaches_uniform_ci_with_fewer_reps(self):
        camp = Campaign(reps_fast=12, include=("fig3",))
        uniform = run_campaign(camp)
        cells_u = uniform.sweeps["fig3"].cells
        target = max(
            summarize([r.value for r in c.runs]).ci_half_width
            for c in cells_u.values()
        )
        policy = AdaptiveRepsPolicy(
            base_reps=3, target_half_width=target, round_reps=2
        )
        adaptive = run_campaign(camp, reps_policy=policy)
        cells_a = adaptive.sweeps["fig3"].cells
        worst = max(
            summarize([r.value for r in c.runs]).ci_half_width
            for c in cells_a.values()
        )
        total = sum(len(c.runs) for c in cells_a.values())
        budget = sum(len(c.runs) for c in cells_u.values())
        assert worst <= target
        assert total <= 0.6 * budget

    def test_extension_reps_continue_stream_sequence(self):
        """Rep r of a cell draws the same stream whether granted late or
        up front — the unbiasedness contract of adaptive allocation."""
        from repro.analysis.loadcurve import LoadCurveConfig

        # fig3 runs adaptively, the load ladder as the rest of the plan;
        # one assembler builds both
        camp = Campaign(
            reps_fast=6, include=("fig3", "loadcurve"),
            loadcurve=LoadCurveConfig(rates=(50.0, 100.0), n_requests=8, reps=1),
        )
        # force every cell to the cap: adaptive == uniform, grown in rounds
        policy = AdaptiveRepsPolicy(base_reps=2, target_rel_ci=1e-9, round_reps=2)
        adaptive = run_campaign(camp, reps_policy=policy)
        uniform = run_campaign(camp)
        assert generate_report(adaptive) == generate_report(uniform)

    def test_journal_records_allocation(self, tmp_path):
        from repro.obs.journal import JsonlJournal

        camp = Campaign(reps_fast=8, include=("fig3",))
        policy = AdaptiveRepsPolicy(base_reps=3, target_rel_ci=0.004)
        jl = JsonlJournal(tmp_path / "run.jsonl")
        try:
            run_campaign(
                camp, reps_policy=policy, runner=ParallelRunner(journal=jl)
            )
        finally:
            jl.close()
        events = read_journal(tmp_path / "run.jsonl", strict=True)
        grants = [e for e in events if e.kind == "reps-allocated"]
        assert grants and all(e.extra["grants"] for e in grants)


# -- open-loop load sweeps over the fabric ---------------------------------


class TestFabricLoadCurve:
    """A sharded offered-load sweep merges to the serial bytes.

    The load-curve cells carry latency sketches (serialized through the
    queue's checkpoint store), so this also pins sketch round-tripping
    across worker processes.
    """

    def _camp(self) -> Campaign:
        from repro.analysis.loadcurve import LoadCurveConfig

        return Campaign(
            include=("loadcurve",),
            loadcurve=LoadCurveConfig(
                rates=(60.0, 120.0, 180.0), n_requests=16, reps=1
            ),
        )

    def test_three_workers_match_serial(self, tmp_path):
        serial = generate_report(run_campaign(self._camp()))
        init_queue(tmp_path / "q", self._camp(), shards=5, lease_ttl=60.0)
        for worker in ("w1", "w2", "w3", "w1", "w2"):
            run_worker(tmp_path / "q", worker, wait=False, max_shards=1)
        result, info = merge_queue(tmp_path / "q")
        assert generate_report(result) == serial
        assert info.workers == ["w1", "w2", "w3"]
        # the merged result carries the full sketch grid
        lc = result.loadcurve
        assert lc is not None
        for platform in lc.platform_order:
            for pt in lc.curves[platform]:
                assert pt.n_ops == 16

    def test_manifest_roundtrips_loadcurve_config(self, tmp_path):
        camp = self._camp()
        manifest = manifest_for_campaign(camp, shards=2, lease_ttl=30.0)
        assert manifest["loadcurve"]["rates"] == [60.0, 120.0, 180.0]
        from repro.fabric import campaign_from_manifest

        rebuilt = campaign_from_manifest(manifest)
        assert rebuilt.loadcurve == camp.loadcurve
        assert plan_fingerprint(campaign_cells(rebuilt)) == manifest["plan"]

    def test_figure_only_manifest_has_no_loadcurve_key(self):
        manifest = manifest_for_campaign(_camp(), shards=2, lease_ttl=30.0)
        assert "loadcurve" not in manifest
