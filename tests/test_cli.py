"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_parses(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "ffmpeg"])
        assert args.platform == "CN"
        assert args.mode == "vanilla"
        assert args.instance == "xLarge"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "redis"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_export_requires_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "export", "j.jsonl"])

    def test_obs_export_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "export", "j.jsonl", "--format", "xml"]
            )


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out and "TABLE II" in out and "TABLE III" in out

    def test_run_ffmpeg(self, capsys):
        assert main(["run", "ffmpeg", "--instance", "Large"]) == 0
        out = capsys.readouterr().out
        assert "FFmpeg" in out
        assert "value" in out

    def test_run_on_custom_host(self, capsys):
        assert main(["run", "ffmpeg", "--host-cpus", "16"]) == 0
        assert "small-host-16" in capsys.readouterr().out

    def test_run_thrashed_flagged(self, capsys):
        assert (
            main(["run", "cassandra", "--platform", "BM", "--instance", "Large"])
            == 0
        )
        assert "THRASHED" in capsys.readouterr().out

    def test_advise(self, capsys):
        assert main(["advise", "--cpu-duty", "0.95", "--io-intensity", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "pinned CN" in out

    def test_advise_no_pinning(self, capsys):
        assert main(["advise", "--io-intensity", "0.9", "--no-pinning"]) == 0
        assert "VMCN" in capsys.readouterr().out

    def test_figure_3_small(self, capsys, tmp_path):
        save = tmp_path / "fig3.json"
        assert main(["figure", "3", "--reps", "1", "--save", str(save)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert save.exists()

    def test_chr_ffmpeg(self, capsys):
        assert main(["chr", "ffmpeg", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "suitable CHR band" in out

    def test_predict(self, capsys):
        assert main(["predict", "ffmpeg", "--platform", "VM"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out

    def test_predict_with_check(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "ffmpeg",
                    "--platform",
                    "CN",
                    "--mode",
                    "pinned",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rel. error" in out

    def test_colocate(self, capsys):
        assert (
            main(
                [
                    "colocate",
                    "ffmpeg:CN:pinned:Large",
                    "wordpress:VM:vanilla:xLarge",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worst interference" in out

    def test_colocate_bad_spec(self, capsys):
        assert main(["colocate", "ffmpeg-CN"]) == 1
        assert "error" in capsys.readouterr().err

    def test_figure_7(self, capsys):
        assert main(["figure", "7", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "CHR" in out

    def test_figure_8(self, capsys):
        assert main(["figure", "8", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "30 Small Tasks" in out

    def test_figure_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "fig3.svg"
        assert main(["figure", "3", "--reps", "1", "--svg", str(svg)]) == 0
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_place(self, capsys):
        assert main(["place", "ffmpeg", "--slo", "30"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out

    def test_place_impossible_slo(self, capsys):
        assert main(["place", "ffmpeg", "--slo", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "fastest" in out

    def test_trace(self, capsys):
        assert main(["trace", "ffmpeg", "--instance", "Large"]) == 0
        out = capsys.readouterr().out
        assert "offcputime" in out
        assert "cpudist" in out

    def test_trace_with_timeline(self, capsys):
        assert (
            main(["trace", "ffmpeg", "--instance", "Large", "--timeline"]) == 0
        )
        assert "timeline" in capsys.readouterr().out

    def test_trace_exports(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        folded = tmp_path / "stacks.folded"
        svg = tmp_path / "flame.svg"
        assert (
            main(
                [
                    "trace", "ffmpeg", "--instance", "Large",
                    "--chrome", str(chrome),
                    "--folded", str(folded),
                    "--flamegraph", str(svg),
                ]
            )
            == 0
        )
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "i", "M") for e in doc["traceEvents"])
        assert all(
            " " in line for line in folded.read_text().strip().splitlines()
        )
        assert svg.read_text().startswith("<svg")

    def test_trace_ledger(self, capsys):
        assert (
            main(["trace", "ffmpeg", "--instance", "Large", "--ledger"]) == 0
        )
        out = capsys.readouterr().out
        assert "overhead ledger" in out
        assert "useful_work" in out

    def test_perf_ledger_acceptance(self, capsys):
        """The acceptance command: exact additive decomposition on
        ffmpeg VM/16xLarge, conservation enforced inside the command."""
        assert (
            main(
                [
                    "perf", "ledger", "ffmpeg",
                    "--platform", "VM", "--instance", "16xLarge",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "by mechanism" in out
        assert "dominant overhead mechanism" in out

    def test_perf_ledger_json_and_flamegraph(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "ledger.json"
        svg = tmp_path / "ledger.svg"
        assert (
            main(
                [
                    "perf", "ledger", "mpi", "--instance", "Large",
                    "--json", str(out_json), "--flamegraph", str(svg),
                ]
            )
            == 0
        )
        doc = json.loads(out_json.read_text())
        assert doc["total_core_seconds"] > 0
        assert "useful_work" in doc["components"]
        assert svg.read_text().startswith("<svg")

    def test_perf_timehist(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "sched.json"
        folded = tmp_path / "sched.folded"
        assert (
            main(
                [
                    "perf", "timehist", "mpi", "--instance", "Large",
                    "--rows", "5",
                    "--chrome", str(chrome), "--folded", str(folded),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scheduler time history" in out
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "C" for e in doc["traceEvents"])
        assert folded.read_text().startswith("sched;")

    def test_perf_map(self, capsys, tmp_path):
        svg = tmp_path / "occ.svg"
        assert (
            main(
                [
                    "perf", "map", "mpi", "--instance", "Large",
                    "--width", "40", "--svg", str(svg),
                ]
            )
            == 0
        )
        assert "core occupancy map" in capsys.readouterr().out
        assert svg.read_text().startswith("<svg")

    def test_perf_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_run_with_journal(self, capsys, tmp_path):
        from repro.obs import read_journal

        journal = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run", "ffmpeg", "--instance", "Large",
                    "--journal", str(journal),
                ]
            )
            == 0
        )
        assert "journal" in capsys.readouterr().out
        events = read_journal(journal)
        assert [e.kind for e in events] == ["run-started", "run-finished"]
        assert events[1].duration > 0
        assert events[1].extra["sched_events"] > 0

    def test_report_journal_and_obs_commands(self, capsys, tmp_path):
        """End-to-end observability loop: journal a small campaign, then
        summarize and export it in all three formats."""
        import json

        from repro.obs import read_journal

        journal = tmp_path / "campaign.jsonl"
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report", "--only", "fig7", "--reps-fast", "1",
                    "--out", str(out), "--journal", str(journal),
                ]
            )
            == 0
        )
        capsys.readouterr()
        events = read_journal(journal)  # schema-validates every line
        kinds = {e.kind for e in events}
        assert {"campaign-started", "campaign-finished", "cell-queued",
                "cell-finished"} <= kinds

        assert main(["obs", "summary", str(journal)]) == 0
        assert "slowest cells" in capsys.readouterr().out

        chrome = tmp_path / "trace.json"
        assert (
            main(
                [
                    "obs", "export", str(journal),
                    "--format", "chrome", "--out", str(chrome),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(chrome.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

        svg = tmp_path / "flame.svg"
        assert (
            main(
                [
                    "obs", "export", str(journal),
                    "--format", "folded", "--svg", str(svg),
                ]
            )
            == 0
        )
        folded_out = capsys.readouterr().out
        assert any(
            line.startswith("campaign;") for line in folded_out.splitlines()
        )
        assert svg.read_text().startswith("<svg")

        assert main(["obs", "export", str(journal), "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "repro_cells_completed_total" in prom

    def test_obs_summary_missing_journal(self, capsys, tmp_path):
        assert main(["obs", "summary", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_dist_and_obs_dist(self, capsys, tmp_path):
        """Journaled campaigns journal cell-dist events; 'obs dist' turns
        them into a percentile table, canonical JSON, and a CDF SVG."""
        import json

        journal = tmp_path / "campaign.jsonl"
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report", "--only", "fig7", "--reps-fast", "1",
                    "--out", str(out), "--journal", str(journal),
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert main(["obs", "dist", str(journal)]) == 0
        table = capsys.readouterr().out
        assert "latency percentiles" in table
        assert "p99" in table

        doc_path = tmp_path / "dist.json"
        svg = tmp_path / "cdf.svg"
        assert (
            main(
                [
                    "obs", "dist", str(journal), "--json",
                    "--out", str(doc_path), "--svg", str(svg),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(doc_path.read_text())
        assert doc["platforms"]
        for platform in doc["platforms"].values():
            assert "cell" in platform["streams"]
        assert svg.read_text().startswith("<svg")

    def test_obs_dist_without_recording_errors(self, capsys, tmp_path):
        """A journal whose every cell was replayed from checkpoints
        holds no cell-dist events, and 'obs dist' says why."""
        journal = tmp_path / "campaign.jsonl"
        argv = [
            "report", "--only", "fig3", "--reps-fast", "1",
            "--checkpoint", str(tmp_path / "cells"),
            "--out", str(tmp_path / "report.md"),
        ]
        assert main(argv) == 0
        assert main(argv + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["obs", "dist", str(journal)]) == 1
        assert "no executed cells" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["dist", "no-dist", "cache"])
    def test_report_dist_flag_rejected(self, capsys, tmp_path, flag):
        """Removed flags stay removed: latency recording is always on,
        and --checkpoint is the one result store."""
        with pytest.raises(SystemExit) as exc:
            main(["report", "--out", str(tmp_path / "r.md"), f"--{flag}"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_sensitivity_command(self, capsys):
        assert (
            main(
                [
                    "sensitivity",
                    "ffmpeg",
                    "--platform",
                    "VM",
                    "--instance",
                    "xLarge",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "vm_mem_penalty" in out


_NO_SCIPY_SNIPPET = """
import sys
import repro, repro.cli
code = repro.cli.main(
    ["report", "--only", "fig3", "--reps-fast", "3", "--out", sys.argv[1]]
)
assert code == 0, code
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestColdStart:
    def test_report_never_imports_scipy(self, tmp_path):
        """A default report run stays off scipy: the 95% t quantiles it
        needs come from the pinned table in repro.analysis.stats."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SNIPPET, str(tmp_path / "r.md")],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "r.md").read_text()


class TestFaultsCli:
    def test_faults_sites_lists_all(self, capsys):
        from repro.faults import FAULT_SITES

        assert main(["faults", "sites"]) == 0
        out = capsys.readouterr().out
        for site in FAULT_SITES:
            assert site in out

    def test_faults_plan_roundtrip(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        out = tmp_path / "plan.json"
        assert (
            main(
                [
                    "faults", "plan", "--seed", "9",
                    "--sites", "worker.kill,journal.truncate",
                    "--abort", "--out", str(out),
                ]
            )
            == 0
        )
        assert "wrote fault plan" in capsys.readouterr().out
        plan = FaultPlan.load(out)
        assert plan.seed == 9
        assert set(plan.sites) <= {"worker.kill", "journal.truncate"}
        # same seed, same plan
        again = tmp_path / "again.json"
        main(
            [
                "faults", "plan", "--seed", "9",
                "--sites", "worker.kill,journal.truncate",
                "--abort", "--out", str(again),
            ]
        )
        assert out.read_text() == again.read_text()

    def test_faults_plan_unknown_site_rejected(self, capsys, tmp_path):
        assert (
            main(
                [
                    "faults", "plan", "--sites", "warp.core",
                    "--out", str(tmp_path / "p.json"),
                ]
            )
            == 1
        )
        assert "error" in capsys.readouterr().err


class TestReportResumeCli:
    def _report_args(self, tmp_path, name, extra=()):
        return [
            "report",
            "--only", "fig3",
            "--reps-fast", "1",
            "--out", str(tmp_path / name),
            "--checkpoint", str(tmp_path / "cells"),
            *extra,
        ]

    def test_resume_without_store_is_usage_error(self, capsys, tmp_path):
        assert (
            main(
                [
                    "report", "--only", "fig3", "--reps-fast", "1",
                    "--out", str(tmp_path / "r.md"), "--resume",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "--resume needs" in err

    def test_fault_abort_exits_3_then_resume_matches_golden(
        self, capsys, tmp_path
    ):
        """The exit-code regression: an aborted campaign must NOT exit 0
        with a partial report; it exits 3 and a later --resume completes
        byte-identically to an uninterrupted run."""
        golden = tmp_path / "golden.md"
        assert main(
            [
                "report", "--only", "fig3", "--reps-fast", "1",
                "--out", str(golden),
            ]
        ) == 0
        capsys.readouterr()

        plan = tmp_path / "plan.json"
        assert main(
            [
                "faults", "plan", "--seed", "3",
                "--sites", "worker.kill", "--abort", "--out", str(plan),
            ]
        ) == 0
        capsys.readouterr()

        chaos = self._report_args(
            tmp_path, "chaos.md", ("--fault-plan", str(plan))
        )
        assert main(chaos) == 3
        err = capsys.readouterr().err
        assert "campaign aborted" in err
        assert f"completed cells persist in {tmp_path / 'cells'}" in err
        assert "--resume" in err
        assert not (tmp_path / "chaos.md").exists()

        resumed = self._report_args(tmp_path, "resumed.md", ("--resume",))
        assert main(resumed) == 0
        capsys.readouterr()
        assert (tmp_path / "resumed.md").read_text() == golden.read_text()

    def test_fault_abort_without_store_keeps_nothing(self, capsys, tmp_path):
        """Without --checkpoint the abort hint must not promise a resume."""
        plan = tmp_path / "plan.json"
        assert main(
            [
                "faults", "plan", "--seed", "3",
                "--sites", "worker.kill", "--abort", "--out", str(plan),
            ]
        ) == 0
        capsys.readouterr()
        rc = main(
            [
                "report", "--only", "fig3", "--reps-fast", "1",
                "--out", str(tmp_path / "chaos.md"),
                "--fault-plan", str(plan),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "campaign aborted; no completed cells were kept" in err
        assert "--checkpoint DIR" in err
        assert "--resume" not in err

    def test_crash_keeps_finished_cells_and_resume_replays_them(
        self, capsys, tmp_path
    ):
        """Every cell that finished before the crash is persisted, and the
        --resume run replays exactly those instead of re-running them."""
        from repro.faults import FaultPlan, FaultSpec
        from repro.obs import read_journal
        from repro.run.persistence import CellStore

        golden = tmp_path / "golden.md"
        assert main(
            [
                "report", "--only", "fig3", "--reps-fast", "1",
                "--out", str(golden),
            ]
        ) == 0
        plan = tmp_path / "plan.json"
        FaultPlan(
            specs=(FaultSpec(
                site="worker.kill", match="CN/xLarge", attempts=(1, 2)
            ),)
        ).save(plan)
        crashed, resumed = tmp_path / "crashed.jsonl", tmp_path / "resumed.jsonl"
        assert main(self._report_args(
            tmp_path, "chaos.md",
            ("--journal", str(crashed), "--fault-plan", str(plan)),
        )) == 3
        finished = sum(
            e.kind == "cell-finished" for e in read_journal(crashed)
        )
        assert 0 < finished < 28
        assert len(CellStore(tmp_path / "cells")) == finished

        assert main(self._report_args(
            tmp_path, "resumed.md", ("--journal", str(resumed), "--resume"),
        )) == 0
        capsys.readouterr()
        events = read_journal(resumed, strict=True)
        assert sum(e.kind == "cell-resumed" for e in events) == finished
        assert sum(e.kind == "cell-finished" for e in events) == 28 - finished
        assert (tmp_path / "resumed.md").read_text() == golden.read_text()


class TestLoadCurveCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadcurve"])
        assert args.workload == "wordpress"
        assert args.arrivals == "poisson"
        assert args.knee_multiple == 3.0

    def test_bad_arrivals_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadcurve", "--arrivals", "fractal"])

    def test_cache_flag_rejected(self, capsys):
        """--checkpoint is the one result store."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["loadcurve", "--cache", "DIR"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err

    def test_bad_ladder_exits_one(self, capsys, tmp_path):
        rc = main(
            ["loadcurve", "--rates", "200,100",
             "--out", str(tmp_path / "lc.md")]
        )
        assert rc == 1
        assert "increasing" in capsys.readouterr().err

    def test_end_to_end_with_artifacts(self, capsys, tmp_path):
        out = tmp_path / "lc.md"
        knee = tmp_path / "knee.json"
        svg = tmp_path / "lc.svg"
        rc = main(
            ["loadcurve", "--rates", "60,120,180", "--requests", "8",
             "--reps", "1", "--out", str(out), "--knee-out", str(knee),
             "--svg", str(svg)]
        )
        assert rc == 0
        assert "Open-loop saturation sweep" in out.read_text()
        doc = json.loads(knee.read_text())
        assert set(doc["platforms"]) == {
            "Vanilla BM", "Vanilla VM", "Vanilla VMCN",
            "Vanilla CN", "Pinned CN",
        }
        assert svg.read_text().startswith("<svg")
        assert "knee" in capsys.readouterr().out

    def test_report_load_sweep_flag_appends_section(self, tmp_path):
        out = tmp_path / "r.md"
        rc = main(
            ["report", "--only", "fig8", "--reps-fast", "1",
             "--load-sweep", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "Fig. 8" in text
        assert "Open-loop saturation sweep" in text

    def test_default_report_excludes_loadcurve(self, tmp_path):
        out = tmp_path / "r.md"
        assert main(
            ["report", "--only", "fig8", "--reps-fast", "1",
             "--out", str(out)]
        ) == 0
        assert "Open-loop saturation sweep" not in out.read_text()
