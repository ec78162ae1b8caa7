"""Tests for :mod:`repro.analysis` (stats, overhead, chr, tables, figures)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.analysis.adaptive import AdaptiveRepsPolicy
from repro.analysis.chr import ChrRange, chr_of, estimate_suitable_chr_range
from repro.analysis.figures import figure_from_sweep, render_figure
from repro.analysis.overhead import (
    OverheadClass,
    classify_overhead,
    overhead_ratio,
    overhead_ratios,
)
from repro.analysis.stats import (
    _T95,
    _t_critical,
    bootstrap_ci,
    confidence_interval,
    summarize,
)
from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.errors import AnalysisError
from repro.hostmodel.topology import r830_host
from repro.platforms.provisioning import instance_type
from repro.run.results import ExperimentResult, RunResult, SweepResult


def make_sweep(bm, cn, instances=("Large", "xLarge")):
    """Build a synthetic two-platform sweep from mean values."""
    cells = {}
    for inst, b, c in zip(instances, bm, cn):
        for label, v in (("Vanilla BM", b), ("Vanilla CN", c)):
            runs = [
                RunResult(
                    workload="w",
                    platform_label=label,
                    instance_name=inst,
                    host_name="h",
                    metric_name="makespan",
                    value=v * (1 + 0.01 * r),
                    makespan=v,
                    mean_response=float("nan"),
                    thrashed=False,
                    rep=r,
                )
                for r in range(3)
            ]
            cells[(label, inst)] = ExperimentResult(runs)
    return SweepResult(
        workload="w",
        cells=cells,
        instance_order=list(instances),
        platform_order=["Vanilla BM", "Vanilla CN"],
    )


class TestStats:
    def test_summary_of_constant(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.mean == 2.0
        assert s.ci_low == s.ci_high == 2.0

    def test_ci_contains_mean(self):
        lo, hi = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert lo < 2.5 < hi

    def test_ci_single_sample_degenerate(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(10, 1, size=5))
        big = summarize(rng.normal(10, 1, size=100))
        assert big.ci_half_width < small.ci_half_width

    def test_bootstrap_reasonable(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10, 1, size=50)
        lo, hi = bootstrap_ci(data)
        assert lo < data.mean() < hi
        assert hi - lo < 1.5

    def test_bootstrap_single_sample(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0)

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            summarize([])

    def test_nonfinite_raises(self):
        with pytest.raises(AnalysisError):
            summarize([1.0, float("nan")])

    def test_invalid_confidence(self):
        with pytest.raises(AnalysisError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_relative_ci(self):
        s = summarize([9.0, 10.0, 11.0])
        assert s.relative_ci > 0

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_ci_brackets_mean(self, data):
        lo, hi = confidence_interval(data)
        m = float(np.mean(data))
        assert lo <= m <= hi


def _scipy_ci(samples, confidence):
    """The Student-t interval computed straight from scipy."""
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    t = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return (mean - t * sem, mean + t * sem)


class TestTQuantile:
    """The pinned 95% table and the scipy fallback are bit-identical to
    the scipy expression they replace."""

    @pytest.mark.parametrize("df", range(1, 101))
    def test_table_entry_matches_scipy(self, df):
        expected = float(scipy_stats.t.ppf(0.5 + 0.95 / 2.0, df=df))
        assert _T95[df - 1] == expected
        assert _t_critical(0.95, df) == expected

    def test_table_covers_df_1_to_100(self):
        assert len(_T95) == 100

    @pytest.mark.parametrize("n", [2, 4, 20, 101])
    def test_table_ci_matches_scipy(self, n):
        data = np.random.default_rng(n).normal(10.0, 2.0, size=n)
        assert confidence_interval(data) == _scipy_ci(data, 0.95)

    @pytest.mark.parametrize(
        ("n", "confidence"), [(102, 0.95), (5, 0.90), (5, 0.99), (102, 0.99)]
    )
    def test_fallback_ci_matches_scipy(self, n, confidence):
        data = np.random.default_rng(n).normal(10.0, 2.0, size=n)
        assert confidence_interval(data, confidence) == _scipy_ci(
            data, confidence
        )

    @pytest.mark.parametrize(
        "values",
        [[10.0, 10.4, 9.7], [10.0, 10.1, 9.9, 10.05], [1.0, 1.3, 0.8, 1.1, 0.9]],
    )
    def test_adaptive_policy_at_99_matches_scipy(self, values):
        policy = AdaptiveRepsPolicy(confidence=0.99, target_rel_ci=0.05)
        lo, hi = _scipy_ci(values, 0.99)
        rel = (hi - lo) / 2.0 / abs(float(np.mean(values)))
        assert policy.needs_more(values) == (rel > 0.05)

    def test_adaptive_policy_level_changes_verdict(self):
        """A sample set whose 95% CI meets a 5% target but whose 99% CI
        does not: the fallback is really consulted."""
        values = [10.0, 10.15, 9.85]
        assert not AdaptiveRepsPolicy(target_rel_ci=0.05).needs_more(values)
        assert AdaptiveRepsPolicy(
            confidence=0.99, target_rel_ci=0.05
        ).needs_more(values)


class TestOverheadRatios:
    def test_basic_ratio(self):
        assert overhead_ratio(20.0, 10.0) == 2.0

    def test_zero_baseline_raises(self):
        with pytest.raises(AnalysisError):
            overhead_ratio(1.0, 0.0)

    def test_series_from_sweep(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        ratios = overhead_ratios(sweep, "Vanilla CN")
        assert ratios[0] == pytest.approx(2.0, rel=0.02)
        assert ratios[1] == pytest.approx(1.2, rel=0.02)

    def test_classify_pto(self):
        c = classify_overhead([2.1, 2.0, 2.05, 2.0])
        assert c.kind is OverheadClass.PTO
        assert c.mean_ratio == pytest.approx(2.04, abs=0.02)

    def test_classify_pso(self):
        c = classify_overhead([2.0, 1.6, 1.2, 1.05])
        assert c.kind is OverheadClass.PSO
        assert c.decay == pytest.approx(0.95)

    def test_classify_negligible(self):
        c = classify_overhead([1.05, 1.02, 1.01])
        assert c.kind is OverheadClass.NEGLIGIBLE

    def test_classify_empty_raises(self):
        with pytest.raises(AnalysisError):
            classify_overhead([])

    def test_classify_invalid_values(self):
        with pytest.raises(AnalysisError):
            classify_overhead([1.0, -2.0])


class TestChr:
    def test_chr_of_instance(self):
        assert chr_of(instance_type("4xLarge"), r830_host()) == pytest.approx(
            16 / 112
        )

    def test_chr_of_raw_cores(self):
        assert chr_of(56, r830_host()) == pytest.approx(0.5)

    def test_chr_too_many_cores(self):
        with pytest.raises(AnalysisError):
            chr_of(200, r830_host())

    def test_range_contains(self):
        r = ChrRange(0.07, 0.14, "4xLarge")
        assert r.contains(0.1)
        assert not r.contains(0.2)
        assert not r.contains(0.07)

    def test_estimate_range_simple(self):
        # PSO vanishes at xLarge (ratio 1.1 < 1.15)
        sweep = make_sweep(bm=[10, 10], cn=[20, 11])
        band = estimate_suitable_chr_range(sweep, r830_host())
        assert band.low == pytest.approx(2 / 112)
        assert band.high == pytest.approx(4 / 112)
        assert band.vanish_instance == "xLarge"

    def test_estimate_range_first_size_ok(self):
        sweep = make_sweep(bm=[10, 10], cn=[10.5, 10.2])
        band = estimate_suitable_chr_range(sweep, r830_host())
        assert band.low == 0.0

    def test_estimate_range_never_vanishes(self):
        sweep = make_sweep(bm=[10, 10], cn=[30, 25])
        with pytest.raises(AnalysisError):
            estimate_suitable_chr_range(sweep, r830_host())

    def test_invalid_threshold(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 11])
        with pytest.raises(AnalysisError):
            estimate_suitable_chr_range(sweep, r830_host(), vanish_ratio=0.9)


class TestTables:
    def test_table1_rows(self):
        t = render_table1()
        for name in ("FFmpeg", "MPI Search", "WordPress", "Cassandra"):
            assert name in t
        assert "3.4.6" in t and "2.2" in t

    def test_table2_matches_paper(self):
        t = render_table2()
        assert "Large" in t and "16xLarge" in t
        assert "64" in t and "256" in t

    def test_table3_platforms(self):
        t = render_table3()
        for abbr in ("BM", "VM", "CN", "VMCN"):
            assert abbr in t
        assert "Docker 19.03.6" in t
        assert "Qemu 2.11.1" in t


class TestFigures:
    def test_figure_from_sweep(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        series = figure_from_sweep(sweep)
        assert [s.label for s in series] == ["Vanilla BM", "Vanilla CN"]
        assert series[1].means()[0] == pytest.approx(20.2, rel=0.02)

    def test_render_contains_labels(self):
        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        out = render_figure(figure_from_sweep(sweep), title="Fig X")
        assert "Fig X" in out
        assert "Vanilla CN" in out
        assert "Large" in out

    def test_render_empty_raises(self):
        with pytest.raises(AnalysisError):
            render_figure([], title="x")

    def test_thrashed_flagged(self):
        sweep = make_sweep(bm=[10], cn=[20], instances=("Large",))
        for r in sweep.cell("Vanilla CN", "Large").runs:
            r.thrashed = True
        out = render_figure(figure_from_sweep(sweep), title="Fig")
        assert "out of range" in out


class TestFigureCsv:
    def test_csv_rows(self):
        from repro.analysis.figures import figure_to_csv

        sweep = make_sweep(bm=[10, 10], cn=[20, 12])
        csv = figure_to_csv(figure_from_sweep(sweep))
        lines = csv.splitlines()
        assert lines[0].startswith("platform,instance")
        assert len(lines) == 1 + 2 * 2  # 2 platforms x 2 instances

    def test_csv_empty_rejected(self):
        from repro.analysis.figures import figure_to_csv

        with pytest.raises(AnalysisError):
            figure_to_csv([])
