"""Tests for the campaign driver and the markdown report generator."""

from __future__ import annotations

import pytest

from repro.analysis.report import generate_report
from repro.errors import AnalysisError, ConfigurationError
from repro.run.campaign import Campaign, CampaignResult, run_campaign


@pytest.fixture(scope="module")
def small_campaign_result(paper_campaign):
    """A reduced campaign covering every experiment id once."""
    return paper_campaign


class TestCampaignSpec:
    def test_defaults_valid(self):
        Campaign()

    def test_invalid_reps(self):
        with pytest.raises(ConfigurationError):
            Campaign(reps_fast=0)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            Campaign(include=("fig9",))

    def test_unknown_experiment_message_names_known_ids(self):
        with pytest.raises(ConfigurationError, match="fig9"):
            Campaign(include=("fig3", "fig9"))
        with pytest.raises(ConfigurationError, match="fig3"):
            Campaign(include=("fig9",))

    def test_empty_include(self):
        with pytest.raises(ConfigurationError):
            Campaign(include=())

    def test_duplicate_include(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Campaign(include=("fig3", "fig3"))

    def test_subset_selection(self):
        res = run_campaign(Campaign(reps_fast=1, include=("fig3",)))
        assert set(res.sweeps) == {"fig3"}
        assert res.fig7 == {}
        assert res.fig8 == {}
        # only the FFmpeg band is derivable from fig3
        assert set(res.chr_bands) == {"FFmpeg"}


class TestCampaignResult:
    def test_all_figures_present(self, small_campaign_result):
        assert set(small_campaign_result.sweeps) == {
            "fig3",
            "fig4",
            "fig5",
            "fig6",
        }

    def test_chr_bands_all_apps(self, small_campaign_result):
        assert set(small_campaign_result.chr_bands) == {
            "FFmpeg",
            "WordPress",
            "Cassandra",
        }

    def test_fig7_fig8_populated(self, small_campaign_result):
        assert ("112 cores", "Vanilla CN") in small_campaign_result.fig7
        assert ("30 Small Tasks", "vanilla") in small_campaign_result.fig8

    def test_sweep_lookup(self, small_campaign_result):
        assert small_campaign_result.sweep("fig3").workload == "FFmpeg"
        with pytest.raises(ConfigurationError):
            small_campaign_result.sweep("fig9")


class TestReport:
    def test_report_structure(self, small_campaign_result):
        text = generate_report(small_campaign_result)
        for heading in (
            "# CPU-Pinning reproduction report",
            "## Fig. 3",
            "## Fig. 4",
            "## Fig. 5",
            "## Fig. 6",
            "## Section IV-A",
            "## Fig. 7",
            "## Fig. 8",
        ):
            assert heading in text

    def test_report_contains_classifications(self, small_campaign_result):
        text = generate_report(small_campaign_result)
        assert "PTO" in text
        assert "PSO" in text

    def test_report_contains_paper_bands(self, small_campaign_result):
        text = generate_report(small_campaign_result)
        assert "0.07 < CHR < 0.14" in text
        assert "0.28 < CHR < 0.57" in text

    def test_report_custom_title(self, small_campaign_result):
        assert generate_report(
            small_campaign_result, title="My Study"
        ).startswith("# My Study")

    def test_empty_result_rejected(self):
        empty = CampaignResult(sweeps={}, chr_bands={}, fig7={}, fig8={})
        with pytest.raises(AnalysisError):
            generate_report(empty)

    def test_report_is_valid_markdown_tables(self, small_campaign_result):
        text = generate_report(small_campaign_result)
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
