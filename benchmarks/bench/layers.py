"""Outside-in spans around the public functions of each ``repro`` layer.

A traced benchmark run wraps the layers' functions before it calls
``repro.cli.main``: :func:`install` rebinds every module attribute and
class method listed in it to a wrapper that records a span (name,
parent, start, end, counts).  Nothing under ``src/`` changes and no
wrapper changes which execution leg runs; ``execute_cell`` is left
alone because ``ParallelRunner.run_tasks`` dispatches on its identity.

Every process keeps its spans in memory and writes them to
``spans-<pid>.json`` in the run's span directory when it ends: the
benchmark child after ``cli.main`` returns, forked pool workers through
a ``multiprocessing`` finalizer, and fabric workers (fresh interpreters
that load ``hook/sitecustomize.py``) at exit.  :func:`summarize` merges
the files and splits the traced wall time among the layers.
"""

from __future__ import annotations

import atexit
import functools
import json
import math
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = "cli.main"
STARTUP = "fabric.worker.startup"

# How a traced child hands tracing to the fabric workers it launches.
SPANS_ENV = "REPRO_BENCH_SPANS"
PARENT_ENV = "REPRO_BENCH_PARENT"
SPAWN_ENV = "REPRO_BENCH_SPAWN"
HOOK_DIR = Path(__file__).resolve().parent / "hook"


class Recorder:
    """The spans and counters of one process, kept until :meth:`flush`.

    A span is ``[id, parent id, name, start, end, counts]`` with
    ``time.monotonic()`` stamps, which are comparable across the
    processes of one host.
    """

    def __init__(self, out_dir: str | Path, parent: str = "") -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        #: (id, name) of the open spans, outermost first
        self.stack: list[tuple[str, str]] = [(parent, "")]
        #: monotonic time the fabric coordinator launched this worker
        self.spawned: float | None = None
        self._seq = 0
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _next_id(self) -> str:
        self._seq += 1
        return f"{self.pid}.{self._seq}"

    def begin(self, name: str) -> tuple:
        """Open a span under the innermost open one."""
        sid = self._next_id()
        frame = (sid, self.stack[-1][0], name, time.monotonic())
        self.stack.append((sid, name))
        return frame

    def end(self, frame: tuple) -> list:
        """Close ``frame``; returns the stored span so counts can be added."""
        span = [*frame, time.monotonic(), None]
        self.stack.pop()
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere, under the innermost open one."""
        self.spans.append(
            [self._next_id(), self.stack[-1][0], name, start, end, None]
        )

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def flush(self) -> None:
        """Write this process's spans and counters to the span directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        doc = {"pid": self.pid, "spans": self.spans, "counters": self.counters}
        (self.out_dir / f"spans-{self.pid}.json").write_text(json.dumps(doc))

    def _forked(self) -> None:
        # A forked pool worker keeps the parent's open spans as the
        # ancestors of its own, drops the parent's finished ones, and
        # writes its file when multiprocessing shuts the worker down.
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)


def _wrap(rec: Recorder, fn, name: str, *, pre=None, post=None):
    """``fn`` inside a span ``name``.

    ``pre(args)`` runs before the span opens and ``post(args, result,
    pre_value)`` after it closes, so their own cost stays out of it;
    ``post`` returns the span's counts.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = pre(args) if pre is not None else None
        frame = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = rec.end(frame)
        if post is not None:
            span[5] = post(args, result, before)
        return result

    return traced


def _rebind(old, new) -> None:
    """Point every ``repro`` module attribute bound to ``old`` at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _segments(args, processes, _):
    return {"segments": sum(len(t.program) for p in processes for t in p.threads)}


def _file_size(path) -> int:
    return Path(path).stat().st_size


def install(rec: Recorder) -> None:
    """Wrap every benchmarked layer of ``repro`` for this process."""
    import repro.cli  # noqa: F401 - loads every layer the CLI reaches
    from repro.analysis.loadcurve import build_loadcurve
    from repro.analysis.report import generate_report
    from repro.engine.batch import run_batched
    from repro.engine.simulator import Simulator
    from repro.fabric.coordinator import launch_workers, merge_queue
    from repro.fabric.queue import ShardQueue
    from repro.fabric.worker import run_worker
    from repro.obs.journal import JsonlJournal
    from repro.obs.sketch import LatencyRecorder
    from repro.run.execution import finish_run, prepare_run
    from repro.run.parallel import ParallelRunner
    from repro.run.persistence import CellStore
    from repro.workloads.base import Workload

    for fn, name, post in (
        (prepare_run, "run.prepare", None),
        (finish_run, "run.finish", None),
        (run_batched, "engine.batch", lambda a, r, _: {"sims": len(a[0])}),
        (generate_report, "analysis.report", None),
        (build_loadcurve, "analysis.loadcurve", None),
        (merge_queue, "fabric.merge", None),
    ):
        _rebind(fn, _wrap(rec, fn, name, post=post))

    traced_worker = _wrap(rec, run_worker, "fabric.worker")

    @functools.wraps(run_worker)
    def worker(*args, **kwargs):
        if rec.spawned is not None:
            rec.add(STARTUP, rec.spawned, time.monotonic())
            rec.spawned = None
        return traced_worker(*args, **kwargs)

    _rebind(run_worker, worker)

    @functools.wraps(launch_workers)
    def launch(*args, **kwargs):
        os.environ[SPAWN_ENV] = repr(time.monotonic())
        return launch_workers(*args, **kwargs)

    _rebind(launch_workers, launch)

    run_tasks = _wrap(rec, ParallelRunner.run_tasks, "run.parallel")

    @functools.wraps(ParallelRunner.run_tasks)
    def counted_run_tasks(self, worker, payloads):
        items = list(payloads)
        rec.count("cells", len(items))
        return run_tasks(self, worker, items)

    record_failure = ParallelRunner._record_failure

    @functools.wraps(record_failure)
    def counted_failure(self, *args, final, **kwargs):
        rec.count("run.parallel.failed" if final else "run.parallel.retries")
        return record_failure(self, *args, final=final, **kwargs)

    ParallelRunner.run_tasks = counted_run_tasks
    ParallelRunner._record_failure = counted_failure

    for cls, method, name, pre, post in (
        (Simulator, "__init__", "engine.compile", None, None),
        (Simulator, "run", "engine.advance", None, None),
        (
            CellStore, "put", "run.persistence.put", None,
            lambda a, path, _: {"bytes": _file_size(path)},
        ),
        (
            CellStore, "load", "run.persistence.load", None,
            lambda a, r, _: {"hits": int(r[1] == "hit")},
        ),
        (
            JsonlJournal, "emit", "obs.journal",
            lambda a: _file_size(a[0].path),
            lambda a, r, before: {"bytes": _file_size(a[0].path) - before},
        ),
        (LatencyRecorder, "observe_many", "obs.sketch", None, None),
        (LatencyRecorder, "sketches", "obs.sketch", None, None),
        (
            ShardQueue, "claim", "fabric.claim", None,
            lambda a, lease, _: {
                "reclaimed": int(
                    lease is not None and lease.reclaimed_from is not None
                )
            },
        ),
        (ShardQueue, "heartbeat", "fabric.heartbeat", None, None),
        (ShardQueue, "finalize", "fabric.finalize", None, None),
    ):
        setattr(
            cls, method,
            _wrap(rec, getattr(cls, method), name, pre=pre, post=post),
        )
    for cls in set(_subclasses(Workload)):
        if "build" in vars(cls):
            cls.build = _wrap(rec, cls.build, "workloads.build", post=_segments)


def export_to_children(rec: Recorder, root: tuple) -> None:
    """Make processes this one starts with ``python`` record spans too.

    Fabric workers load ``hook/sitecustomize.py`` from ``PYTHONPATH`` and
    attach their spans under ``root``.
    """
    os.environ[SPANS_ENV] = str(rec.out_dir)
    os.environ[PARENT_ENV] = root[0]
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        str(HOOK_DIR) if not path else f"{HOOK_DIR}{os.pathsep}{path}"
    )


def install_in_worker() -> None:
    """Record the spans of a process launched by a traced run."""
    rec = Recorder(os.environ[SPANS_ENV], parent=os.environ.get(PARENT_ENV, ""))
    if SPAWN_ENV in os.environ:
        rec.spawned = float(os.environ[SPAWN_ENV])
    install(rec)
    atexit.register(rec.flush)


def self_times(spans: list[list], root: list) -> dict[str, float]:
    """Split the root span's wall time among the layers.

    Each instant goes to the innermost spans active then, in equal
    shares when spans of several processes overlap, so the shares add
    up to the root's duration.  For one process this is the usual self
    time: a span's duration minus the time its children cover.
    """
    lo, hi = root[3], root[4]
    known = {s[0] for s in spans}
    parent_of: dict[str, str | None] = {}
    name_of: dict[str, str] = {}
    edges = []
    for sid, parent, name, start, end, _ in spans:
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        # a span whose parent recorded nothing hangs under the root
        parent_of[sid] = None if sid == root[0] else (
            parent if parent in known else root[0]
        )
        name_of[sid] = name
        edges.append((start, 1, sid))
        edges.append((end, -1, sid))
    edges.sort()
    shares: dict[str, float] = defaultdict(float)
    active: set[str] = set()
    prev = lo
    i = 0
    while i < len(edges):
        t = edges[i][0]
        if active and t > prev:
            leaves = active - {parent_of[s] for s in active}
            share = (t - prev) / len(leaves)
            for sid in leaves:
                shares[name_of[sid]] += share
        while i < len(edges) and edges[i][0] == t:
            _, kind, sid = edges[i]
            if kind > 0:
                active.add(sid)
            else:
                active.discard(sid)
            i += 1
        prev = t
    return dict(shares)


def _worker_startup(spans: list[list]) -> float:
    """Mean time from a fabric worker's launch to its first shard claim."""
    first_claim: dict[str, float] = {}
    for sid, _, name, start, _, _ in spans:
        if name == "fabric.claim":
            pid = sid.split(".")[0]
            first_claim[pid] = min(first_claim.get(pid, math.inf), start)
    waits = [
        first_claim[sid.split(".")[0]] - start
        for sid, _, name, start, _, _ in spans
        if name == STARTUP and sid.split(".")[0] in first_claim
    ]
    return sum(waits) / len(waits) if waits else 0.0


def summarize(span_dir: Path) -> dict:
    """Merge a traced run's span files into per-layer totals."""
    spans: list[list] = []
    counters: dict[str, int] = defaultdict(int)
    processes = 0
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        doc = json.loads(path.read_text())
        processes += 1
        spans.extend(doc["spans"])
        for key, n in doc["counters"].items():
            counters[key] += n
    roots = [s for s in spans if s[2] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    layers: dict[str, dict] = {}
    for _, _, name, _, _, counts in spans:
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        for key, n in (counts or {}).items():
            entry[key] = entry.get(key, 0) + n
    for name, share in self_times(spans, roots[0]).items():
        layers[name]["self_s"] = share
    return {
        "wall_s": roots[0][4] - roots[0][3],
        "processes": processes,
        "startup_s": _worker_startup(spans),
        "counters": dict(counters),
        "layers": layers,
    }


def layer_metrics(summary: dict, untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json).

    Times are shares of the traced wall time: a layer that a workload
    bypasses reads 0, and shares move less than seconds when the host's
    speed drifts.  The ``*.share`` metrics cover every span, so they add
    up to 1.
    """
    layers = summary["layers"]
    counters = summary["counters"]

    def get(name: str, key: str):
        return layers.get(name, {}).get(key, 0)

    def share(name: str) -> float:
        return get(name, "self_s") / summary["wall_s"]

    def per_call(name: str, key: str) -> float:
        calls = get(name, "calls")
        return get(name, key) / calls if calls else 0.0

    return {
        "traced_wall_s": summary["wall_s"],
        "cells": counters.get("cells", 0),
        "processes": summary["processes"],
        "workloads.build.calls": get("workloads.build", "calls"),
        "workloads.build.share": share("workloads.build"),
        "workloads.build.segments": get("workloads.build", "segments"),
        "engine.compile.calls": get("engine.compile", "calls"),
        "engine.compile.share": share("engine.compile"),
        "run.prepare.share": share("run.prepare"),
        "engine.advance.calls": get("engine.advance", "calls"),
        "engine.advance.share": share("engine.advance"),
        "engine.batch.calls": get("engine.batch", "calls"),
        "engine.batch.share": share("engine.batch"),
        "engine.batch.occupancy": per_call("engine.batch", "sims"),
        "run.finish.calls": get("run.finish", "calls"),
        "run.finish.share": share("run.finish"),
        "obs.sketch.share": share("obs.sketch"),
        "run.parallel.share": share("run.parallel"),
        "run.parallel.retries": counters.get("run.parallel.retries", 0),
        "run.parallel.failed": counters.get("run.parallel.failed", 0),
        "run.persistence.put.calls": get("run.persistence.put", "calls"),
        "run.persistence.put.share": share("run.persistence.put"),
        "run.persistence.put.bytes": get("run.persistence.put", "bytes"),
        "run.persistence.load.calls": get("run.persistence.load", "calls"),
        "run.persistence.load.share": share("run.persistence.load"),
        "run.persistence.load.hit_ratio": per_call("run.persistence.load", "hits"),
        "obs.journal.appends": get("obs.journal", "calls"),
        "obs.journal.share": share("obs.journal"),
        "obs.journal.bytes": get("obs.journal", "bytes"),
        "fabric.worker.startup.share": share(STARTUP),
        "fabric.worker.idle.share": share("fabric.worker"),
        "fabric.claim.calls": get("fabric.claim", "calls"),
        "fabric.claim.share": share("fabric.claim"),
        "fabric.heartbeat.calls": get("fabric.heartbeat", "calls"),
        "fabric.heartbeat.share": share("fabric.heartbeat"),
        "fabric.finalize.calls": get("fabric.finalize", "calls"),
        "fabric.finalize.share": share("fabric.finalize"),
        "fabric.merge.share": share("fabric.merge"),
        "fabric.reclaims": get("fabric.claim", "reclaimed"),
        "analysis.report.share": share("analysis.report"),
        "analysis.loadcurve.share": share("analysis.loadcurve"),
        "unattributed.share": share(ROOT),
        "trace_overhead": (
            summary["wall_s"] / untraced_wall_s if untraced_wall_s else 0.0
        ),
    }
