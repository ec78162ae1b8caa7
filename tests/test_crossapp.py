"""Tests for the Section-IV cross-application analyzer."""

from __future__ import annotations

import pytest

from repro import (
    CassandraWorkload,
    FfmpegWorkload,
    WordPressWorkload,
    r830_host,
)
from repro.analysis.crossapp import CrossApplicationAnalysis
from repro.analysis.overhead import OverheadClass
from repro.errors import AnalysisError
from repro.platforms.provisioning import instance_type, instance_types_upto

_BIG = [
    instance_type(n)
    for n in ("xLarge", "2xLarge", "4xLarge", "8xLarge", "16xLarge")
]


@pytest.fixture(scope="module")
def analysis(paper_sweep):
    workloads = {
        "FFmpeg": ("fig3", FfmpegWorkload(), instance_types_upto(16)),
        "WordPress": ("fig5", WordPressWorkload(), _BIG),
        "Cassandra": ("fig6", CassandraWorkload(), _BIG),
    }
    sweeps = {
        name: paper_sweep(fig, wl, insts)
        for name, (fig, wl, insts) in workloads.items()
    }
    io = {
        name: wl.profile().io_intensity
        for name, (_, wl, _) in workloads.items()
    }
    return CrossApplicationAnalysis(sweeps, io, r830_host())


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            CrossApplicationAnalysis({}, {})

    def test_missing_io_intensity_rejected(self, analysis):
        with pytest.raises(AnalysisError):
            CrossApplicationAnalysis(analysis.sweeps, {})

    def test_unknown_app(self, analysis):
        with pytest.raises(AnalysisError):
            analysis.pso_magnitude("Redis")


class TestClassificationTable:
    def test_paper_taxonomy(self, analysis):
        table = analysis.classification_table()
        assert table[("FFmpeg", "Vanilla VM")].kind is OverheadClass.PTO
        assert table[("FFmpeg", "Vanilla CN")].kind is OverheadClass.PSO
        assert table[("Cassandra", "Vanilla CN")].kind is OverheadClass.PSO
        assert (
            table[("FFmpeg", "Pinned CN")].kind is OverheadClass.NEGLIGIBLE
        )

    def test_table_covers_all_pairs(self, analysis):
        table = analysis.classification_table()
        # 3 apps x 6 non-baseline platforms
        assert len(table) == 18


class TestSectionIVC:
    def test_pso_grows_with_io_intensity(self, analysis):
        corr = analysis.pso_vs_io_intensity()
        assert corr.spearman_rho == pytest.approx(1.0)
        assert corr.monotone_increasing

    def test_cassandra_pso_largest(self, analysis):
        assert analysis.pso_magnitude("Cassandra") > analysis.pso_magnitude(
            "WordPress"
        )
        assert analysis.pso_magnitude("WordPress") > analysis.pso_magnitude(
            "FFmpeg"
        )


class TestPinningGain:
    def test_io_apps_gain_most(self, analysis):
        assert (
            analysis.pinning_gain("Cassandra")[0]
            > analysis.pinning_gain("FFmpeg")[0]
        )

    def test_gain_shrinks_with_size(self, analysis):
        gains = analysis.pinning_gain("Cassandra")
        assert gains[0] > gains[-1]

    def test_vm_gain_small_for_cpu_bound(self, analysis):
        gains = analysis.pinning_gain("FFmpeg", kind="VM")
        assert all(g < 1.1 for g in gains)


class TestChrBands:
    def test_bands_match_paper(self, analysis):
        bands = analysis.chr_bands()
        assert bands["FFmpeg"].high == pytest.approx(16 / 112)
        assert bands["WordPress"].high == pytest.approx(32 / 112)
        assert bands["Cassandra"].high == pytest.approx(64 / 112)


class TestRender:
    def test_render_sections(self, analysis):
        out = analysis.render()
        assert "PTO/PSO classification" in out
        assert "spearman rho" in out
        assert "Pinning gain" in out
