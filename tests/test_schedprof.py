"""Tests for the scheduler profiler and the overhead ledger.

Covers the two contracts the tentpole rests on: attaching a
:class:`~repro.trace.schedprof.SchedProfiler` never changes results
(byte-identity), and the :class:`~repro.analysis.ledger.OverheadLedger`
is an *additive* decomposition — components are non-negative and sum to
the measured total core-seconds within 1e-9 relative tolerance, across
randomized workload/platform/instance configurations and regardless of
serial vs parallel campaign execution.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    FfmpegWorkload,
    MpiSearchWorkload,
    SyntheticWorkload,
    instance_type,
    make_platform,
    r830_host,
    run_once,
)
from repro.analysis.ledger import (
    COMPONENTS,
    MECHANISM_OF,
    MECHANISMS,
    OverheadLedger,
)
from repro.engine.tracing import ListTraceSink
from repro.errors import AnalysisError, ConservationError, SimulationError
from repro.obs import (
    MemoryJournal,
    ledger_to_folded,
    schedprof_to_chrome,
    schedprof_to_folded,
)
from repro.platforms.base import PlatformKind
from repro.rng import RngFactory
from repro.run.experiment import ExperimentSpec, run_experiment
from repro.run.parallel import ParallelRunner
from repro.sched.affinity import ProvisioningMode
from repro.trace.schedprof import SchedProfile, SchedProfiler
from repro.viz.occupancy import render_occupancy_svg

REL_TOL = 1e-9


def _profiled(wl, kind="VM", inst="16xLarge", mode="vanilla", seed=None):
    prof = SchedProfiler()
    rng = RngFactory(seed=seed).fresh_stream("schedprof-test")
    result = run_once(
        wl,
        make_platform(kind, instance_type(inst), mode),
        r830_host(),
        rng=rng,
        profiler=prof,
    )
    return result, prof.profile()


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestConservation:
    def test_ffmpeg_vm_16xlarge_conserves(self):
        """The acceptance case: exact additive decomposition."""
        _, profile = _profiled(FfmpegWorkload())
        ledger = OverheadLedger.from_profile(profile).check(rel_tol=REL_TOL)
        assert ledger.total_core_seconds > 0
        scale = max(abs(ledger.total_core_seconds), 1.0)
        assert abs(ledger.residual) <= REL_TOL * scale
        for name in COMPONENTS:
            assert ledger.components[name] >= 0.0

    def test_total_matches_thread_lifetimes(self):
        _, profile = _profiled(FfmpegWorkload())
        ledger = OverheadLedger.from_profile(profile)
        lifetime = sum(h.lifetime for h in profile.thread_hist())
        assert ledger.total_core_seconds == pytest.approx(lifetime, rel=1e-12)

    def test_mechanisms_partition_components(self):
        _, profile = _profiled(MpiSearchWorkload(), kind="CN", inst="Large")
        ledger = OverheadLedger.from_profile(profile).check()
        assert set(MECHANISM_OF) == set(COMPONENTS)
        assert set(MECHANISM_OF.values()) == set(MECHANISMS)
        by_mech = ledger.mechanisms()
        assert sum(by_mech.values()) == pytest.approx(
            sum(ledger.components.values()), rel=1e-12
        )

    def test_check_raises_on_tampered_ledger(self):
        _, profile = _profiled(MpiSearchWorkload(), kind="BM", inst="Large")
        good = OverheadLedger.from_profile(profile)
        broken = OverheadLedger(
            total_core_seconds=good.total_core_seconds * 2.0,
            components=good.components,
            source=good.source,
        )
        with pytest.raises(ConservationError):
            broken.check()
        negative = OverheadLedger(
            total_core_seconds=good.total_core_seconds,
            components={**good.components, "useful_work": -1.0},
            source=good.source,
        )
        with pytest.raises(ConservationError):
            negative.check()

    def test_from_counters_conserves(self):
        result, _ = _profiled(FfmpegWorkload())
        ledger = OverheadLedger.from_counters(result.counters).check()
        assert ledger.source == "counters"
        assert ledger.total_core_seconds > 0

    def test_property_randomized_configs(self):
        """Property test: over randomized configs, every component is
        non-negative and the decomposition conserves the total."""
        rnd = random.Random(20260805)
        kinds = ["BM", "VM", "CN", "VMCN", "SG"]
        modes = ["vanilla", "pinned"]
        insts = ["Large", "xLarge", "2xLarge"]
        for trial in range(8):
            wl = SyntheticWorkload(
                n_processes=rnd.randint(1, 3),
                threads_per_process=rnd.randint(1, 6),
                phases=rnd.randint(1, 4),
                compute_per_phase=rnd.uniform(0.02, 0.3),
                io_fraction=rnd.choice([0.0, 0.2, 0.6]),
                mem_intensity=rnd.uniform(0.0, 1.0),
            )
            kind = rnd.choice(kinds)
            mode = rnd.choice(modes)
            inst = rnd.choice(insts)
            result, profile = _profiled(
                wl, kind=kind, inst=inst, mode=mode, seed=trial
            )
            for ledger in (
                OverheadLedger.from_profile(profile),
                OverheadLedger.from_counters(result.counters),
            ):
                ledger.check(rel_tol=REL_TOL)
                scale = max(abs(ledger.total_core_seconds), 1.0)
                assert abs(ledger.residual) <= REL_TOL * scale, (
                    f"{kind}/{mode}/{inst} trial {trial}: "
                    f"residual {ledger.residual}"
                )
                assert min(ledger.components.values()) >= 0.0


class TestDetachedByteIdentity:
    @pytest.mark.parametrize(
        "kind,mode", [("VM", "vanilla"), ("CN", "pinned")]
    )
    def test_results_identical_with_and_without_profiler(self, kind, mode):
        wl = FfmpegWorkload()
        platform = make_platform(kind, instance_type("16xLarge"), mode)

        def once(profiler=None):
            rng = RngFactory().fresh_stream("byte-identity")
            return run_once(
                wl, platform, r830_host(), rng=rng, profiler=profiler
            )

        plain = once()
        profiled = once(profiler=SchedProfiler())
        assert _canon(profiled) == _canon(plain)

    def test_profiler_tees_with_user_trace_sink(self):
        """A user trace sink and the profiler coexist; the sink sees the
        same events it would alone."""
        wl = MpiSearchWorkload()
        platform = make_platform("CN", instance_type("Large"), "vanilla")

        def once(profiler=None):
            sink = ListTraceSink()
            rng = RngFactory().fresh_stream("tee")
            result = run_once(
                wl, platform, r830_host(), rng=rng, trace=sink,
                profiler=profiler,
            )
            return result, sink.events

        prof = SchedProfiler()
        plain_result, plain_events = once()
        prof_result, prof_events = once(profiler=prof)
        assert _canon(prof_result) == _canon(plain_result)
        assert prof_events == plain_events
        OverheadLedger.from_profile(prof.profile()).check()


class TestSerialParallelAgreement:
    def test_cell_ledgers_identical_across_job_counts(self):
        """The per-cell ledger journal payloads are bit-identical between
        serial and worker-pool execution (determinism contract)."""
        spec = ExperimentSpec(
            workload=SyntheticWorkload(
                threads_per_process=2, phases=2, compute_per_phase=0.05
            ),
            instances=[instance_type("Large"), instance_type("xLarge")],
            platform_grid=[
                (PlatformKind.BM, ProvisioningMode.VANILLA),
                (PlatformKind.CN, ProvisioningMode.PINNED),
            ],
            reps=2,
            seed=11,
        )

        def ledgers(jobs):
            journal = MemoryJournal()
            if jobs == 1:
                run_experiment(spec, runner=ParallelRunner(journal=journal))
            else:
                run_experiment(
                    spec, runner=ParallelRunner(jobs, journal=journal)
                )
            return [
                (e.label, e.extra)
                for e in journal.events
                if e.kind == "cell-ledger"
            ]

        serial = ledgers(1)
        assert serial, "expected cell-ledger events in the journal"
        for label, extra in serial:
            assert extra["residual"] == pytest.approx(0.0, abs=1e-9)
            assert extra["dominant"] in MECHANISMS
        assert ledgers(2) == serial


class TestProfileViews:
    def test_thread_hist_and_renderers(self):
        _, profile = _profiled(MpiSearchWorkload(), kind="CN", inst="Large")
        hist = profile.thread_hist()
        assert len(hist) == profile.n_threads
        for h in hist:
            assert h.lifetime == pytest.approx(h.finish - h.arrival)
        text = profile.timehist(max_rows=10)
        assert "state" in text and "thread" in text
        cmap = profile.core_map(width=48)
        assert f"core {0:>3d} |" in cmap
        d = profile.to_dict(max_intervals=5)
        assert d["n_threads"] == profile.n_threads
        assert len(d["intervals"]) <= 5

    def test_occupancy_bins_integrate_to_busy_time(self):
        _, profile = _profiled(MpiSearchWorkload(), kind="CN", inst="Large")
        occ = profile.occupancy(bins=37)
        bin_width = profile.t_end / 37
        busy_integral = sum(dt * busy for _, dt, busy in profile.steps)
        assert sum(occ) * bin_width == pytest.approx(busy_integral, rel=1e-9)

    def test_profile_before_run_raises(self):
        with pytest.raises(SimulationError):
            SchedProfiler().profile()

    def test_render_and_dominant_mechanism(self):
        _, profile = _profiled(FfmpegWorkload())
        ledger = OverheadLedger.from_profile(profile).check()
        text = ledger.render()
        assert "conservation" in text or "residual" in text
        for name in COMPONENTS:
            assert name in text
        assert ledger.dominant_mechanism() in MECHANISMS
        assert ledger.dominant_mechanism() != "useful-work"
        d = ledger.to_dict()
        assert d["total_core_seconds"] == ledger.total_core_seconds
        assert set(d["components"]) == set(COMPONENTS)


class TestExports:
    def test_chrome_trace_export(self):
        _, profile = _profiled(MpiSearchWorkload(), kind="CN", inst="Large")
        trace = schedprof_to_chrome(profile)
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "C" for e in events)
        json.dumps(trace)  # must be serializable

    def test_folded_exports(self):
        _, profile = _profiled(FfmpegWorkload())
        lines = schedprof_to_folded(profile)
        assert lines and all(" " in ln for ln in lines)
        assert any(ln.startswith("sched;") for ln in lines)
        ledger = OverheadLedger.from_profile(profile)
        folded = ledger_to_folded(ledger, root="run")
        assert any("useful" in ln for ln in folded)

    def test_occupancy_svg(self):
        _, profile = _profiled(MpiSearchWorkload(), kind="CN", inst="Large")
        svg = render_occupancy_svg(profile, bins=24)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "core 0" in svg

    def test_occupancy_svg_empty_profile_raises(self):
        empty = SchedProfile(
            n_threads=0, n_groups=0, t_end=0.0, group_of=(),
            arrival=(), finish=(), granted=(), run_wait=(),
            io_blocked=(), comm_blocked=(), barrier_blocked=(),
            intervals=[], steps=[], ledger={},
        )
        with pytest.raises(AnalysisError):
            render_occupancy_svg(empty)
