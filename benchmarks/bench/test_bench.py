"""Checks of the benchmark itself, outside tier-1:

    PYTHONPATH=src python -m pytest benchmarks/bench -q

Most checks read one ``--quick`` invocation (one untraced and one traced
round of tiny campaigns, seed 7), which takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

import bench
import catalog
import layers

SPEC = json.loads(bench.SPEC_PATH.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SERIAL = {"fig3-durable", "fig8-multitask", "loadcurve-batch"}


def _layer_names() -> list[str]:
    summary = {"layers": {}, "counters": {}, "processes": 1,
               "startup_s": 0.0, "wall_s": 1.0}
    return list(layers.layer_metrics(summary, 1.0))


def test_names_match_benchmark_json():
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(catalog.workloads())
    assert workloads == list(catalog.workloads(quick=True))
    end_to_end = list(bench.end_to_end([], bench.Reference("", 0, 0, [])))
    assert [m["name"] for m in SPEC["end_to_end"]] == end_to_end
    assert [m["name"] for m in SPEC["per_layer"]] == _layer_names()
    names = workloads + end_to_end + _layer_names()
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names


def test_self_times_split_overlapping_workers_evenly():
    # root 0-10 > run.parallel 1-9 > two pool workers 2-6 and 4-8
    spans = [
        ["1.1", "", layers.ROOT, 0.0, 10.0, None],
        ["1.2", "1.1", "run.parallel", 1.0, 9.0, None],
        ["2.1", "1.2", "engine.advance", 2.0, 6.0, None],
        ["3.1", "1.2", "engine.advance", 4.0, 8.0, None],
    ]
    shares = layers.self_times(spans, spans[0])
    assert shares == pytest.approx(
        {layers.ROOT: 2.0, "run.parallel": 2.0, "engine.advance": 6.0}
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    code = bench.main(["--quick", "--seed", "7", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_quick_invocation_is_correct(quick):
    code, doc = quick
    assert code == 0
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, w in doc["workloads"].items():
        assert w["problems"] == [], name
        assert w["failed_frac"] == 0.0, name
        assert w["attempted"] == 2, name
        # the untraced and the traced run reproduce the serial scalar leg
        assert w["digests"] == [w["reference"]["digest"]], name
        assert set(w["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(s["median"] > 0 for s in w["end_to_end"].values()), name
        assert set(w["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_round_takes_the_untraced_legs(quick):
    _, doc = quick
    layer = {n: {k: v["value"] for k, v in w["per_layer"].items()}
             for n, w in doc["workloads"].items()}
    assert layer["loadcurve-batch"]["engine.batch.calls"] > 0
    assert layer["loadcurve-batch"]["engine.advance.calls"] < layer[
        "loadcurve-batch"]["engine.compile.calls"]
    for name in set(layer) - {"loadcurve-batch"}:
        assert layer[name]["engine.batch.calls"] == 0, name
    # pool workers and fabric workers record spans in processes of their own
    assert layer["web-pool"]["processes"] == 3
    assert layer["web-pool"]["run.parallel.share"] < layer["web-pool"][
        "engine.advance.share"]
    assert layer["fabric-2w"]["processes"] == 3
    assert layer["fabric-2w"]["fabric.finalize.calls"] == 16
    assert layer["fabric-2w"]["fabric.worker.startup.share"] > 0
    assert doc["workloads"]["fabric-2w"]["traced"]["startup_s"] > 0
    for name in SERIAL:
        assert layer[name]["processes"] == 1, name
    assert layer["fig3-durable"]["run.persistence.put.calls"] == 28
    assert layer["fig3-durable"]["obs.journal.appends"] > 0


def test_self_times_add_up_to_the_traced_wall(quick):
    _, doc = quick
    for name, w in doc["workloads"].items():
        traced = w["traced"]
        self_s = sum(v["self_s"] for v in traced["layers"].values())
        assert self_s == pytest.approx(traced["wall_s"], rel=0.01), name
        shares = sum(
            m["value"] for k, m in w["per_layer"].items() if k.endswith(".share")
        )
        assert shares == pytest.approx(1.0, rel=0.01), name


def test_outside_in_spans_match_the_journal_span_tree(tmp_path):
    from repro.obs.journal import read_journal
    from repro.obs.trace_spans import spans_from_journal

    workload = catalog.workloads(quick=True)["fig8-multitask"]
    argv = workload.argv(7) + ["--journal", "journal.jsonl", "--trace"]
    sample = bench.measure(workload, argv, tmp_path / "run", traced=True)
    assert sample.problems == []
    phases: dict[str, float] = defaultdict(float)
    for span in spans_from_journal(read_journal(tmp_path / "run" / "journal.jsonl")):
        if span.kind == "phase":
            phases[span.name] += span.duration
    got = sample.summary["layers"]
    compile_s = sum(
        got[n]["self_s"]
        for n in ("workloads.build", "engine.compile", "run.prepare")
    )
    assert compile_s == pytest.approx(phases["compile"], rel=0.10)
    assert got["engine.advance"]["self_s"] == pytest.approx(
        phases["advance"], rel=0.10
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_prints_the_result_line(trace, section):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "bench.py"),
         "--workload", "fig8-multitask", "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= bench.MIN_RUNS
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    # a time that reads 0 on every run says nothing; layer times are shares
    timed = [m for m in result["metrics"].values() if m["unit"] == "s"]
    assert timed and all(m["value"] > 0 for m in timed)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench.BENCH_DIR, tmp_path / "benchmarks" / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench/bench.py", "--workload",
         "fig8-multitask", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _result(nproc: int, medians: dict[str, list[float]], failed_frac=0.0) -> dict:
    return {
        "nproc": nproc,
        "workloads": {
            w["name"]: {
                "failed_frac": failed_frac,
                "end_to_end": {
                    m["name"]: bench.stats(medians.get(m["name"], [1.0, 1.0, 1.0]))
                    for m in SPEC["end_to_end"]
                },
            }
            for w in SPEC["workloads"]
        },
    }


def _compare(tmp_path, base: dict, head: dict, capsys):
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "head.json").write_text(json.dumps(head))
    code = bench.main(["compare", str(tmp_path / "base.json"),
                       str(tmp_path / "head.json")])
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("fig8-multitask")]
    return code, {line.split()[1]: line.split()[4] for line in rows}


def test_compare_verdicts(tmp_path, capsys):
    steady = [1.0, 1.0, 1.01]
    slower = 1.0 + 2 * max(m["bound"] for m in SPEC["end_to_end"])
    base = _result(2, {"wall_s": steady, "setup_s": [1.0, 1.5, 2.0],
                       "cells_per_s": steady})
    head = _result(2, {"wall_s": [slower] * 3, "setup_s": [1.1, 1.1, 1.1],
                       "cells_per_s": [slower] * 3})
    code, verdicts = _compare(tmp_path, base, head, capsys)
    assert code == 1
    assert verdicts["wall_s"] == "worse"
    assert verdicts["setup_s"] == "unresolved"  # base spread exceeds the bound
    assert verdicts["cells_per_s"] == "better"
    assert verdicts["peak_rss_mb"] == "within"

    code, verdicts = _compare(tmp_path, base, base, capsys)
    assert code == 0
    assert verdicts["wall_s"] == "within"

    code, verdicts = _compare(tmp_path, base, _result(4, {}), capsys)
    assert verdicts["wall_s"] == "unresolved"  # different nproc

    code, verdicts = _compare(tmp_path, base, _result(2, {}, 0.5), capsys)
    assert code == 1
    assert verdicts["failed_frac"] == "worse"
