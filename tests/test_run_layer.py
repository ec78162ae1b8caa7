"""Tests for :mod:`repro.run` (execution, experiment, results, calibration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.hostmodel.topology import r830_host
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import instance_type
from repro.platforms.registry import make_platform
from repro.run.calibration import Calibration
from repro.run.execution import run_once
from repro.run.experiment import ExperimentSpec, run_experiment
from repro.run.results import ExperimentResult, RunResult, SweepResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads.synthetic import SyntheticWorkload


def tiny_workload():
    return SyntheticWorkload(
        threads_per_process=2, phases=3, compute_per_phase=0.05, jitter_sigma=0.05
    )


class TestCalibration:
    def test_defaults_valid(self):
        Calibration()

    def test_ablated_replaces_field(self):
        c = Calibration().ablated(vm_mem_penalty=0.0)
        assert c.vm_mem_penalty == 0.0
        assert Calibration().vm_mem_penalty > 0

    def test_without_cgroup_accounting(self):
        c = Calibration().without_cgroup_accounting()
        assert c.cpuacct.tick_cost_per_cpu == 0.0

    def test_without_migration_penalty(self):
        c = Calibration().without_migration_penalty()
        assert c.migration.spread_coeff == 0.0

    def test_without_hypervisor_comm_mediation(self):
        c = Calibration().without_hypervisor_comm_mediation()
        # the small-guest comm penalty no longer decays within real sizes
        vm64 = make_platform("VM", instance_type("16xLarge"))
        assert vm64.comm_factor(c) > 1.5

    def test_without_multitask_inflation(self):
        c = Calibration().without_multitask_inflation()
        assert c.cfs.timeslice(100.0) == c.cfs.target_latency
        assert c.cache_contention_gamma == 0.0

    def test_invalid_field(self):
        with pytest.raises(ConfigurationError):
            Calibration(vm_mem_penalty=-1.0)

    def test_invalid_io_gain(self):
        with pytest.raises(ConfigurationError):
            Calibration(io_affinity_gain=1.5)


class TestRunOnce:
    def test_returns_result(self):
        r = run_once(
            tiny_workload(),
            make_platform("BM", instance_type("Large")),
            r830_host(),
        )
        assert r.value > 0
        assert r.metric_name == "makespan"
        assert r.platform_label == "Vanilla BM"
        assert r.instance_name == "Large"
        assert not r.thrashed

    def test_deterministic_given_rng(self):
        host = r830_host()
        p = make_platform("CN", instance_type("Large"))
        a = run_once(tiny_workload(), p, host, rng=np.random.default_rng(5))
        b = run_once(tiny_workload(), p, host, rng=np.random.default_rng(5))
        assert a.value == b.value

    def test_different_seeds_differ(self):
        host = r830_host()
        p = make_platform("CN", instance_type("Large"))
        a = run_once(tiny_workload(), p, host, rng=np.random.default_rng(5))
        b = run_once(tiny_workload(), p, host, rng=np.random.default_rng(6))
        assert a.value != b.value

    def test_counters_attached(self):
        r = run_once(
            tiny_workload(),
            make_platform("CN", instance_type("Large")),
            r830_host(),
        )
        assert r.counters is not None
        assert r.counters.busy_core_seconds > 0

    def test_mean_response_metric(self):
        from repro.workloads.wordpress import WordPressWorkload

        wl = WordPressWorkload(n_requests=20, jitter_sigma=0.0)
        r = run_once(
            wl, make_platform("BM", instance_type("xLarge")), r830_host()
        )
        assert r.metric_name == "mean_response"
        assert r.value == r.mean_response
        assert r.value > 0


class TestExperiment:
    def _spec(self, reps=2):
        return ExperimentSpec(
            workload=tiny_workload(),
            instances=[instance_type("Large"), instance_type("xLarge")],
            platform_grid=[
                (PlatformKind.BM, ProvisioningMode.VANILLA),
                (PlatformKind.CN, ProvisioningMode.VANILLA),
                (PlatformKind.CN, ProvisioningMode.PINNED),
            ],
            reps=reps,
        )

    def test_sweep_shape(self):
        sweep = run_experiment(self._spec())
        assert sweep.instance_order == ["Large", "xLarge"]
        assert sweep.platform_order == ["Vanilla BM", "Vanilla CN", "Pinned CN"]
        assert len(sweep.cells) == 6

    def test_reps_recorded(self):
        sweep = run_experiment(self._spec(reps=3))
        assert sweep.cell("Vanilla BM", "Large").n_reps == 3

    def test_paired_streams_across_platforms(self):
        """Same rep uses the same workload realization on every platform."""
        sweep = run_experiment(self._spec(reps=1))
        # the workload build is identical; only platform overheads differ,
        # so pinned CN must not be slower than vanilla CN
        v = sweep.cell("Vanilla CN", "Large").mean
        p = sweep.cell("Pinned CN", "Large").mean
        assert p <= v

    def test_reproducible_with_seed(self):
        a = run_experiment(self._spec())
        b = run_experiment(self._spec())
        assert a.cell("Vanilla BM", "Large").mean == pytest.approx(
            b.cell("Vanilla BM", "Large").mean
        )

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                workload=tiny_workload(),
                instances=[],
                platform_grid=[(PlatformKind.BM, ProvisioningMode.VANILLA)],
            )
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                workload=tiny_workload(),
                instances=[instance_type("Large")],
                platform_grid=[],
            )


class TestResultContainers:
    def _run(self, value, rep=0, platform="Vanilla CN"):
        return RunResult(
            workload="w",
            platform_label=platform,
            instance_name="Large",
            host_name="h",
            metric_name="makespan",
            value=value,
            makespan=value,
            mean_response=float("nan"),
            thrashed=False,
            rep=rep,
        )

    def test_experiment_result_stats(self):
        er = ExperimentResult([self._run(1.0), self._run(3.0, rep=1)])
        assert er.mean == pytest.approx(2.0)
        assert er.n_reps == 2
        assert list(er.values) == [1.0, 3.0]

    def test_experiment_result_rejects_mixed(self):
        with pytest.raises(AnalysisError):
            ExperimentResult(
                [self._run(1.0), self._run(2.0, platform="Vanilla BM")]
            )

    def test_experiment_result_rejects_empty(self):
        with pytest.raises(AnalysisError):
            ExperimentResult([])

    def test_run_result_roundtrip(self):
        r = self._run(1.5)
        assert RunResult.from_dict(r.to_dict()) == r

    def test_sweep_roundtrip(self, tmp_path):
        sweep = SweepResult(
            workload="w",
            cells={
                ("Vanilla CN", "Large"): ExperimentResult(
                    [self._run(1.0), self._run(2.0, rep=1)]
                )
            },
            instance_order=["Large"],
            platform_order=["Vanilla CN"],
        )
        path = tmp_path / "sweep.json"
        sweep.save(path)
        loaded = SweepResult.load(path)
        assert loaded.workload == "w"
        assert loaded.cell("Vanilla CN", "Large").mean == pytest.approx(1.5)

    def test_sweep_missing_cell(self):
        sweep = SweepResult(
            workload="w",
            cells={},
            instance_order=["Large"],
            platform_order=["Vanilla CN"],
        )
        with pytest.raises(AnalysisError):
            sweep.cell("Vanilla CN", "Large")

    def test_sweep_means_series(self):
        sweep = SweepResult(
            workload="w",
            cells={
                ("Vanilla CN", "Large"): ExperimentResult([self._run(2.0)])
            },
            instance_order=["Large"],
            platform_order=["Vanilla CN"],
        )
        assert sweep.means("Vanilla CN")[0] == pytest.approx(2.0)


class TestRunnerReuse:
    def test_campaigns_leave_the_runner_as_built(self, tmp_path):
        """A runner reused across campaigns keeps every option it was
        built with, and each result matches a fresh runner's."""
        from repro.analysis.report import generate_report
        from repro.faults import FaultInjector, FaultPlan
        from repro.obs import (
            JsonlJournal, SpanTracer, TraceContext, mint_trace_id, read_journal,
        )
        from repro.run.campaign import Campaign, run_campaign
        from repro.run.parallel import ParallelRunner
        from repro.run.persistence import CellStore

        camp = Campaign(reps_fast=1, include=("fig3",))
        journal = JsonlJournal(tmp_path / "run.jsonl")
        store = CellStore(tmp_path / "cells")
        tracer = SpanTracer(journal, TraceContext(mint_trace_id("reuse")))
        faults = FaultInjector(FaultPlan())
        runner = ParallelRunner(
            batch=True, checkpoint=store, journal=journal, tracer=tracer,
            faults=faults,
        )
        fresh = generate_report(run_campaign(camp, runner=ParallelRunner()))
        reports = [
            generate_report(run_campaign(camp, runner=runner))
            for _ in range(2)
        ]
        assert reports == [fresh, fresh]
        assert runner.batch is True
        assert runner.checkpoint is store
        assert runner.journal is journal
        assert runner.tracer is tracer
        assert runner.faults is faults
        assert not store.faults.enabled and not journal.faults.enabled
        tracer.close()
        journal.close()
        events = read_journal(tmp_path / "run.jsonl", strict=True)
        assert sum(e.kind == "campaign-finished" for e in events) == 2
        # one plan per campaign: the cold run partitions its cells once,
        # the warm one replays every cell and partitions nothing
        assert sum(e.kind == "batch-partition" for e in events) == 1
