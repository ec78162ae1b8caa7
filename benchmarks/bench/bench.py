#!/usr/bin/env python3
"""One benchmark for the ``repro`` campaign stack.

Each workload (``catalog.py``) is one ``repro`` CLI invocation in a fresh
child process, so a user's cold start counts and peak RSS is per run.
The load is a closed loop with one client: the next run starts when the
last one has exited.  Every run's output bytes are compared with the
serial scalar leg of the same campaign, computed once per seed, untimed.
End-to-end metrics come from untraced runs; per-layer metrics come from
traced runs that wrap each layer's public functions from outside
(``layers.py``).  Metric names, units and bounds are in
``BENCHMARK.json`` at the root of the repository.

    python3 benchmarks/bench/bench.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, run for about S seconds; the last line of stdout is
        {"correct", "attempted", "failed", "metrics"} with the end-to-end
        metrics (--trace 0) or the per-layer ones (--trace 1)
    python3 benchmarks/bench/bench.py [--seed N] [--rounds R] [--out PATH] [--quick]
        every workload: R untraced rounds in an order that rotates each
        round, then one traced round; prints every metric, writes JSON
    python3 benchmarks/bench/bench.py compare BASE.json HEAD.json
        one verdict per (workload, end-to-end metric); exit 1 on a regression

Runs need the repository's ``src/`` (found relative to this file); apart
from Python's bytecode caches, every file they write stays under
``benchmarks/bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import catalog
import layers

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parents[1]
SRC = CHECKOUT / "src"
SPEC_PATH = CHECKOUT / "BENCHMARK.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"
RESULTS = BENCH_DIR / "results"
CHILD = BENCH_DIR / "child.py"

#: runs per single-workload measurement, however short --seconds is
MIN_RUNS = 3
#: seconds before a hung run is killed; with MIN_RUNS and the reference
#: run this keeps one --workload measurement under 180 s
CHILD_TIMEOUT = 30.0
DEFAULT_ROUNDS = 10
#: rates over wall time, which depend on how many CPUs the pool and
#: fabric workers get
WALL_METRICS = ("wall_s", "cells_per_s", "sim_segments_per_s")


@dataclass
class Sample:
    """One child run: its timings, output digest and (traced) layer summary."""

    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    digest: str = ""
    summary: dict | None = None


@dataclass
class Reference:
    """What every run of a workload must reproduce for one seed."""

    digest: str
    segments: int
    cells: int
    problems: list[str]


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _digest(run_dir: Path, outputs: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in outputs:
        h.update(name.encode() + b"\0" + (run_dir / name).read_bytes())
    return h.hexdigest()


def measure(
    workload: catalog.Workload, argv: list[str], run_dir: Path, *, traced: bool
) -> Sample:
    """Run ``repro argv`` once in a child process inside ``run_dir``."""
    run_dir.mkdir(parents=True)
    request = run_dir / "request.json"
    result = run_dir / "child.json"
    spans = run_dir / "spans"
    request.write_text(json.dumps({
        "argv": argv,
        "src": str(SRC),
        "result": str(result),
        "spans": str(spans) if traced else None,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(request)],
            cwd=run_dir, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT, _stop_group, (proc.pid,))
        timer.start()
        try:
            # wait4 also reports the peak RSS of the pool and fabric
            # workers the child reaped
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _stop_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    sample = Sample()
    if proc.returncode != 0:
        tail = (run_dir / "stderr.txt").read_text(errors="replace")[-400:]
        sample.problems.append(f"exit {proc.returncode}: {tail.strip()}")
        return sample
    stamps = json.loads(result.read_text())
    sample.setup_s = stamps["setup_end"] - spawned
    sample.wall_s = stamps["end"] - stamps["start"]
    sample.rss_mb = usage.ru_maxrss / 1024.0
    try:
        sample.digest = _digest(run_dir, workload.outputs)
    except FileNotFoundError as exc:
        sample.problems.append(f"missing output {exc.filename}")
    if traced:
        try:
            sample.summary = layers.summarize(spans)
        except (OSError, ValueError) as exc:
            sample.problems.append(f"spans: {exc}")
    return sample


def _committed(seed: int, quick: bool) -> dict:
    doc = json.loads(REFERENCE_PATH.read_text())
    return doc["workloads"] if seed == doc["seed"] and not quick else {}


def reference(
    workload: catalog.Workload, seed: int, scratch: Path, quick: bool
) -> Reference:
    """Run the serial scalar leg once, traced for its exact counts."""
    run_dir = scratch / f"reference-{workload.name}"
    sample = measure(
        workload, workload.argv(seed, reference=True), run_dir, traced=True
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    summary = sample.summary or {"layers": {}, "counters": {}}
    ref = Reference(
        digest=sample.digest,
        segments=summary["layers"].get("workloads.build", {}).get("segments", 0),
        cells=summary["counters"].get("cells", 0),
        problems=[f"reference: {p}" for p in sample.problems],
    )
    expected = _committed(seed, quick).get(workload.name)
    if expected is not None and expected != {
        "digest": ref.digest, "segments": ref.segments, "cells": ref.cells,
    }:
        ref.problems.append(
            "the serial scalar leg no longer matches reference.json"
        )
    return ref


def check(sample: Sample, ref: Reference, workload: catalog.Workload) -> list[str]:
    """Everything wrong with one run, compared with its reference."""
    problems = list(sample.problems)
    if sample.digest and sample.digest != ref.digest:
        problems.append("output differs from the serial scalar leg")
    if sample.summary is not None:
        metrics = layers.layer_metrics(sample.summary, 0.0)
        if metrics["workloads.build.segments"] != ref.segments:
            problems.append(
                f"built {metrics['workloads.build.segments']} segments, "
                f"the reference {ref.segments}"
            )
        if metrics["cells"] != ref.cells:
            problems.append(f"ran {metrics['cells']} cells, the reference {ref.cells}")
        if (metrics["engine.batch.calls"] > 0) != workload.batched:
            problems.append("traced run took another engine leg")
        if metrics["processes"] != workload.processes:
            problems.append(
                f"{metrics['processes']} processes recorded spans, "
                f"expected {workload.processes}"
            )
    return problems


def end_to_end(samples: list[Sample], ref: Reference) -> dict[str, list[float]]:
    """Per-run values of every end-to-end metric."""
    timed = [s for s in samples if s.wall_s is not None]
    return {
        "setup_s": [s.setup_s for s in timed],
        "wall_s": [s.wall_s for s in timed],
        "cells_per_s": [ref.cells / s.wall_s for s in timed],
        "sim_segments_per_s": [ref.segments / s.wall_s for s in timed],
        "peak_rss_mb": [s.rss_mb for s in timed],
    }


def stats(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's runs."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "values": []}
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (median, median, median)
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def per_layer(traced: list[Sample], untraced_wall_s: float) -> dict[str, float]:
    """Median of each per-layer metric over the traced runs."""
    rows = [
        layers.layer_metrics(s.summary, untraced_wall_s)
        for s in traced if s.summary is not None
    ]
    if not rows:
        return {}
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


class Session:
    """Runs of one benchmark invocation, in a scratch directory it removes."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.workloads = catalog.workloads(quick)
        self.scratch = RESULTS / f"scratch-{os.getpid()}"
        self.refs: dict[str, Reference] = {}
        self.samples: dict[str, list[Sample]] = {}
        self.traced: dict[str, list[Sample]] = {}
        self._runs = 0

    def __enter__(self) -> "Session":
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def prepare(self, name: str) -> None:
        self.refs[name] = reference(
            self.workloads[name], self.seed, self.scratch, self.quick
        )
        self.samples[name] = []
        self.traced[name] = []

    def run(self, name: str, *, traced: bool) -> None:
        workload = self.workloads[name]
        self._runs += 1
        run_dir = self.scratch / f"run-{self._runs}"
        sample = measure(workload, workload.argv(self.seed), run_dir, traced=traced)
        shutil.rmtree(run_dir, ignore_errors=True)
        sample.problems = check(sample, self.refs[name], workload)
        (self.traced if traced else self.samples)[name].append(sample)

    def runs(self, name: str) -> list[Sample]:
        return self.samples[name] + self.traced[name]

    def failed(self, name: str) -> int:
        return sum(1 for s in self.runs(name) if s.problems)

    def problems(self, name: str) -> list[str]:
        return sorted(
            set(self.refs[name].problems).union(
                *(s.problems for s in self.runs(name))
            )
        )

    def untraced_wall(self, name: str) -> float:
        walls = end_to_end(self.samples[name], self.refs[name])["wall_s"]
        return statistics.median(walls) if walls else 0.0


def run_workload(args, spec: dict) -> int:
    """One workload for about ``args.seconds``; prints the result line."""
    name = args.workload
    with Session(args.seed, args.quick) as session:
        session.prepare(name)
        deadline = time.monotonic() + args.seconds
        traced = bool(args.trace)
        while True:
            began = time.monotonic()
            session.run(name, traced=traced)
            if args.trace:
                traced = not traced
            now = time.monotonic()
            if len(session.runs(name)) >= MIN_RUNS and now + (now - began) > deadline:
                break
    if args.trace:
        values = per_layer(session.traced[name], session.untraced_wall(name))
        metrics = spec["per_layer"]
    else:
        runs = end_to_end(session.samples[name], session.refs[name])
        values = {m: stats(v)["median"] for m, v in runs.items()}
        metrics = spec["end_to_end"]
    for problem in session.problems(name):
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not session.problems(name),
        "attempted": len(session.runs(name)),
        "failed": session.failed(name),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics
        },
    }))
    return 0


def _versions() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def run_suite(args, spec: dict) -> int:
    """Every workload: rotating untraced rounds, then one traced round."""
    names = [w["name"] for w in spec["workloads"]]
    rounds = args.rounds or (1 if args.quick else DEFAULT_ROUNDS)
    with Session(args.seed, args.quick) as session:
        for name in names:
            session.prepare(name)
        for r in range(rounds):
            k = r % len(names)
            for name in names[k:] + names[:k]:
                session.run(name, traced=False)
        for name in names:
            session.run(name, traced=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = {"schema": 1, "seed": args.seed, "rounds": rounds,
           "quick": args.quick, **_versions(), "workloads": {}}
    for name in names:
        ref = session.refs[name]
        traced = session.traced[name][0]
        attempted = len(session.runs(name))
        doc["workloads"][name] = {
            "attempted": attempted,
            "failed": session.failed(name),
            "failed_frac": session.failed(name) / attempted,
            "problems": session.problems(name),
            "reference": {"digest": ref.digest, "segments": ref.segments,
                          "cells": ref.cells},
            "digests": sorted({s.digest for s in session.runs(name) if s.digest}),
            "end_to_end": {
                m: {"unit": units[m], **stats(v)}
                for m, v in end_to_end(session.samples[name], ref).items()
            },
            "per_layer": {
                m: {"unit": units[m], "value": v}
                for m, v in per_layer([traced], session.untraced_wall(name)).items()
            },
            "traced": traced.summary,
        }
    print_suite(doc, spec)
    out = Path(args.out) if args.out else (
        RESULTS / f"bench-{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if any(w["problems"] for w in doc["workloads"].values()) else 0


def print_suite(doc: dict, spec: dict) -> None:
    names = list(doc["workloads"])
    print(f"seed {doc['seed']}, {doc['rounds']} round(s), nproc {doc['nproc']}, "
          f"Python {doc['python']}, numpy {doc['numpy']}")
    print(f"\n{'workload':<16} {'metric':<20} {'unit':<6} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name in names:
        w = doc["workloads"][name]
        for m in spec["end_to_end"]:
            s = w["end_to_end"][m["name"]]
            print(f"{name:<16} {m['name']:<20} {m['unit']:<6} "
                  f"{s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['n']:3d}")
        print(f"{name:<16} {'failed_frac':<20} {'1':<6} {w['failed_frac']:12.5g} "
              f"({w['failed']} of {w['attempted']} runs)")
        for problem in w["problems"]:
            print(f"{name:<16} problem: {problem}")
    print(f"\n{'per-layer (traced round)':<32} {'unit':<9}"
          + "".join(f" {n[:15]:>15}" for n in names))
    for m in spec["per_layer"]:
        row = "".join(
            f" {doc['workloads'][n]['per_layer'].get(m['name'], {}).get('value', 0):15.5g}"
            for n in names
        )
        print(f"{m['name']:<32} {m['unit']:<9}{row}")


def judge(metric: dict, base: dict, head: dict, *, nproc_differs: bool):
    """Verdict and note for one end-to-end metric of one workload."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (head["median"] - base["median"]) / base["median"]
    spread = (base["q3"] - base["q1"]) / base["median"]
    note = f"median {change:+.1%} worse" if change > 0 else f"median {-change:.1%} better"
    if nproc_differs and metric["name"] in WALL_METRICS:
        return "unresolved", "hosts with different nproc"
    if spread > bound:
        if max(sign * v for v in head["values"]) < min(sign * v for v in base["values"]):
            return "better", f"{note}; every run beats every base run"
        return "unresolved", f"base q1-q3 spread {spread:.1%} exceeds the bound"
    if change > bound:
        return "worse", note
    if -change > bound:
        return "better", note
    return "within bound", note


def compare(base_path: str, head_path: str, spec: dict) -> int:
    """Print one verdict row per (workload, metric); 1 on any regression."""
    base = json.loads(Path(base_path).read_text())
    head = json.loads(Path(head_path).read_text())
    nproc_differs = base["nproc"] != head["nproc"]
    regressed = False
    print(f"base {base_path} (nproc {base['nproc']}), "
          f"head {head_path} (nproc {head['nproc']})")
    print(f"{'workload':<16} {'metric':<20} {'base':>12} {'head':>12}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        b, h = base["workloads"].get(name), head["workloads"].get(name)
        if b is None or h is None:
            print(f"{name:<16} {'-':<20} {'':>12} {'':>12}  unresolved (missing)")
            continue
        for metric in spec["end_to_end"]:
            bm, hm = b["end_to_end"][metric["name"]], h["end_to_end"][metric["name"]]
            verdict, note = judge(metric, bm, hm, nproc_differs=nproc_differs)
            regressed |= verdict == "worse"
            print(f"{name:<16} {metric['name']:<20} {bm['median']:12.5g} "
                  f"{hm['median']:12.5g}  {verdict} ({note})")
        worse = h["failed_frac"] > b["failed_frac"]
        regressed |= worse
        print(f"{name:<16} {'failed_frac':<20} {b['failed_frac']:12.5g} "
              f"{h['failed_frac']:12.5g}  {'worse' if worse else 'within bound'}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(SPEC_PATH.read_text())
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("base", help="result JSON of the base commit")
        parser.add_argument("head", help="result JSON of the changed commit")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.head, spec)
    parser = argparse.ArgumentParser(
        prog="bench.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="measure only this workload and print the one-line result",
    )
    parser.add_argument(
        "--seed", type=int,
        help="campaign seed (default: the one reference.json was made with)",
    )
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="with --workload: how long to keep starting runs",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 1 reports the per-layer metrics",
    )
    parser.add_argument(
        "--rounds", type=int,
        help=f"untraced rounds of all workloads (default {DEFAULT_ROUNDS}, "
        "1 with --quick)",
    )
    parser.add_argument("--out", help="where to write the result JSON")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny repetition counts (for the tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = json.loads(REFERENCE_PATH.read_text())["seed"]
    if args.workload:
        return run_workload(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
