"""Consistency checks between code, docs, and package metadata."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.run.calibration import Calibration

REPO = Path(__file__).resolve().parent.parent


class TestCalibrationDocumentation:
    def test_every_scalar_constant_is_documented_in_docstring(self):
        doc = Calibration.__doc__ or ""
        for f in dataclasses.fields(Calibration):
            if f.name in ("storage",):  # component models named collectively
                continue
            assert f.name in doc or f.name in (
                "cfs",
                "migration",
                "cache",
                "irq",
                "cpuacct",
                "memory_pressure",
                "network",
            ), f"Calibration.{f.name} missing from the class docstring"

    def test_calibration_guide_mentions_key_constants(self):
        guide = (REPO / "docs" / "CALIBRATION.md").read_text()
        for name in (
            "vm_mem_penalty",
            "vmcn_nested_core_equiv",
            "io_affinity_gain",
            "cache_contention_gamma",
        ):
            assert name in guide

    def test_model_doc_mentions_core_formulas(self):
        doc = (REPO / "docs" / "MODEL.md").read_text()
        for needle in (
            "waterfill",
            "steady_cgroup",
            "mig_slow",
            "io_affinity_gain",
            "comm_factor",
        ):
            assert needle in doc


class TestPackageMetadata:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_names_exist(self):
        readme = (REPO / "README.md").read_text()
        # every backticked repro symbol in the quickstart block must exist
        for name in ("FfmpegWorkload", "make_platform", "r830_host", "run_once"):
            assert name in readme
            assert hasattr(repro, name)

    def test_design_and_experiments_exist(self):
        assert (REPO / "DESIGN.md").exists()
        assert (REPO / "EXPERIMENTS.md").exists()

    def test_examples_present(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (REPO / "examples" / "quickstart.py").exists()

    def test_cited_repo_paths_exist(self):
        # every repo path quoted as code in the docs must exist, and every
        # ``file.py::Name`` must name a def or class of that file
        fence = re.compile(r"^```.*?^```", re.S | re.M)
        path = re.compile(
            r"(?<![\w/.$-])((?:benchmarks|tests|src|docs|examples|\.github)"
            r"/[\w./-]*[\w/])"
        )
        ref = re.compile(r"(?<![\w/.-])([\w/.-]+\.py)((?:::\w+)+)")
        docs = [REPO / "README.md", REPO / "EXPERIMENTS.md", REPO / "DESIGN.md",
                *sorted((REPO / "docs").glob("*.md"))]
        stale = []
        for doc in docs:
            text = doc.read_text()
            code = [m.group(0) for m in fence.finditer(text)]
            code += re.findall(r"`([^`\n]+)`", fence.sub("", text))
            for span in code:
                stale += [f"{doc.name}: {p}" for p in path.findall(span)
                          if not (REPO / p).exists()]
                for name, names in ref.findall(span):
                    files = [REPO / name] if "/" in name else [
                        f for d in ("benchmarks", "tests", "src", "examples")
                        for f in (REPO / d).rglob(name)
                    ]
                    source = "".join(f.read_text() for f in files if f.is_file())
                    stale += [
                        f"{doc.name}: {name}::{n}"
                        for n in names.split("::")[1:]
                        if not re.search(rf"^\s*(?:def|class) {n}\b", source, re.M)
                    ]
        assert not stale, stale

    def test_benchmarks_cover_every_figure_and_table(self):
        names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        assert "bench_tables.py" in names
        for fig in (3, 4, 5, 6, 7, 8):
            assert any(f"fig{fig}" in n for n in names), f"no bench for fig {fig}"
