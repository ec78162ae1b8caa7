"""Tests for the campaign telemetry layer (:mod:`repro.obs`).

Covers the event schema, the journal sinks, summary reconstruction, the
metrics registry, the Chrome / folded / Prometheus exporters, and the
two load-bearing properties: telemetry never changes results, and the
journal's logical event sequence is identical between serial and
parallel execution.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    JournalEvent,
    JsonlJournal,
    MemoryJournal,
    MetricsRegistry,
    NullJournal,
    journal_to_folded,
    journal_to_metrics,
    journal_to_prometheus,
    offcpu_to_folded,
    open_journal,
    read_journal,
    summarize_journal,
    timeline_to_chrome,
    timeline_to_folded,
    validate_event,
)
from repro.obs.journal import NULL_JOURNAL
from repro.platforms.base import PlatformKind
from repro.platforms.provisioning import instance_type
from repro.run.experiment import (
    ExperimentSpec,
    run_experiment,
    run_platform_sweep,
)
from repro.run.parallel import ParallelRunner, cell_tasks, execute_cell
from repro.run.persistence import CellStore
from repro.sched.affinity import ProvisioningMode
from repro.workloads.synthetic import SyntheticWorkload


def tiny_spec(seed=1, reps=2, instances=("Large",)) -> ExperimentSpec:
    return ExperimentSpec(
        workload=SyntheticWorkload(
            threads_per_process=2, phases=2, compute_per_phase=0.05
        ),
        instances=[instance_type(n) for n in instances],
        platform_grid=[
            (PlatformKind.BM, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.VANILLA),
            (PlatformKind.CN, ProvisioningMode.PINNED),
        ],
        reps=reps,
        seed=seed,
    )


def valid_event(**over) -> dict:
    d = {"ts": 12.5, "kind": "cell-finished", "schema": SCHEMA_VERSION}
    d.update(over)
    return d


# -- module-level crash worker (must be picklable) -------------------------


def _fails_then_succeeds(payload):
    import os

    value, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("x")
        raise RuntimeError("injected")
    return value * 2


class TestEventSchema:
    def test_round_trip(self):
        event = JournalEvent(
            ts=1.0, kind="cell-finished", label="a", worker="pid-1",
            attempt=2, duration=0.5, extra={"started": 0.5},
        )
        again = JournalEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert again == event

    def test_extra_omitted_when_empty(self):
        assert "extra" not in JournalEvent(ts=0.0, kind="cell-queued").to_dict()

    def test_cell_key_round_trips_and_is_omitted_when_empty(self):
        event = JournalEvent(ts=0.0, kind="cell-queued", label="a", cell="k")
        assert event.to_dict()["cell"] == "k"
        assert JournalEvent.from_dict(event.to_dict()) == event
        assert "cell" not in JournalEvent(ts=0.0, kind="cell-queued").to_dict()

    def test_all_kinds_validate(self):
        for kind in EVENT_KINDS:
            validate_event(valid_event(kind=kind))

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "cell-queued", "schema": SCHEMA_VERSION},  # no ts
            {"ts": 1.0, "schema": SCHEMA_VERSION},  # no kind
            {"ts": 1.0, "kind": "cell-queued"},  # no schema
            valid_event(kind=123),
            valid_event(kind=""),
            valid_event(schema=SCHEMA_VERSION + 1),
            valid_event(ts="yesterday"),
            valid_event(ts=True),
            valid_event(label=7),
            valid_event(cell=7),
            valid_event(worker=7),
            valid_event(attempt=-1),
            valid_event(attempt=1.5),
            valid_event(duration=-0.1),
            valid_event(cached="yes"),
            valid_event(extra=[1, 2]),
            "not a dict",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            validate_event(bad)

    def test_unknown_string_kind_is_forward_compatible(self):
        # a newer writer's kind must validate (readers count it instead
        # of crashing on it)
        event = valid_event(kind="cell-teleported")
        validate_event(event)
        assert JournalEvent.from_dict(event).kind == "cell-teleported"


class TestJournalSinks:
    def test_null_journal_disabled_noop(self):
        assert NULL_JOURNAL.enabled is False
        assert NullJournal().enabled is False
        NULL_JOURNAL.record("cell-queued", label="x")
        NULL_JOURNAL.close()

    def test_memory_journal_records_in_order(self):
        jl = MemoryJournal()
        jl.record("cell-queued", label="a")
        jl.record("cell-finished", label="a", duration=0.1)
        assert [e.kind for e in jl.events] == ["cell-queued", "cell-finished"]
        assert jl.count("cell-queued") == 1
        assert jl.events[0].ts <= jl.events[1].ts

    def test_open_journal_none_is_null(self):
        assert open_journal(None) is NULL_JOURNAL

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlJournal(path) as jl:
            jl.record("sweep-started", label="wl")
            jl.record(
                "cell-finished", label="cell", worker="pid-9",
                attempt=1, duration=0.25, extra={"sched_events": 10.0},
            )
        events = read_journal(path)
        assert [e.kind for e in events] == ["sweep-started", "cell-finished"]
        assert events[1].worker == "pid-9"
        assert events[1].extra["sched_events"] == 10.0
        assert all(e.schema == SCHEMA_VERSION for e in events)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_journal(tmp_path / "nope.jsonl")

    def test_read_corrupt_line_names_lineno(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ok = json.dumps(valid_event())
        path.write_text(ok + "\n{not json\n")
        with pytest.raises(ConfigurationError, match=r":2:"):
            read_journal(path)

    def test_read_schema_violation_names_lineno(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(valid_event(kind=123)) + "\n")
        with pytest.raises(ConfigurationError, match=r":1:"):
            read_journal(path)

    def test_read_accepts_unknown_string_kinds(self, tmp_path):
        # forward compatibility: a journal from a newer writer reads
        # cleanly and keeps the unknown kind
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(valid_event(kind="cell-teleported")) + "\n")
        events = read_journal(path)
        assert [e.kind for e in events] == ["cell-teleported"]

    def test_tolerant_read_skips_truncated_final_line(self, tmp_path):
        """``strict=False``: a half-written trailing line (crashed or
        still-running producer) is skipped with a warning instead of
        failing the whole read."""
        path = tmp_path / "j.jsonl"
        ok = json.dumps(valid_event())
        path.write_text(ok + "\n" + ok[: len(ok) // 2])
        with pytest.warns(UserWarning, match="truncated"):
            events = read_journal(path, strict=False)
        assert [e.kind for e in events] == ["cell-finished"]
        # strict mode (the default) still refuses the same file
        with pytest.raises(ConfigurationError, match=r":2:"):
            read_journal(path)

    def test_tolerant_read_still_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ok = json.dumps(valid_event())
        path.write_text(ok + "\n{not json\n" + ok + "\n")
        with pytest.raises(ConfigurationError, match=r":2:"):
            read_journal(path, strict=False)

    def test_tolerant_read_still_rejects_schema_violations(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(valid_event(kind=123)) + "\n")
        with pytest.raises(ConfigurationError, match=r":1:"):
            read_journal(path, strict=False)


class TestJournalFromRuns:
    def test_serial_run_emits_cell_lifecycle(self):
        jl = MemoryJournal()
        spec = tiny_spec()
        run_experiment(spec, runner=ParallelRunner(journal=jl))
        n = len(cell_tasks(spec))
        assert jl.count("sweep-started") == 1
        assert jl.count("sweep-finished") == 1
        assert jl.count("cell-queued") == n
        assert jl.count("cell-started") == n
        assert jl.count("cell-finished") == n
        finished = [e for e in jl.events if e.kind == "cell-finished"]
        assert all(e.worker.startswith("pid-") for e in finished)
        assert all(e.duration > 0 for e in finished)
        assert all(e.extra.get("sched_events", 0) > 0 for e in finished)

    def test_journal_does_not_change_results(self):
        spec = tiny_spec(seed=7)
        plain = run_experiment(spec)
        journaled = run_experiment(
            spec, runner=ParallelRunner(journal=MemoryJournal())
        )
        assert json.dumps(journaled.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "jobs,batch",
        [
            pytest.param(2, False, id="2"),
            pytest.param(3, False, id="3"),
            pytest.param(2, True, id="2-batch"),
        ],
    )
    def test_serial_and_parallel_journals_agree(self, jobs, batch):
        """The logical event sequence — (kind, label, attempt, cached) for
        every queued/finished/cache/retry/failure event — is identical at
        any job count; only timings and worker identities may differ
        (worker-local ``cell-started`` events are inline-path only).
        The batched pool leg journals its partition and runs groups in
        its own order, but every cell's events appear exactly as often."""
        spec = tiny_spec(seed=3, instances=("Large", "xLarge"))

        def normalized(journal):
            return [
                (e.kind, e.label, e.attempt, e.cached)
                for e in journal.events
                if e.kind != "cell-started"
            ]

        def per_cell(journal):
            return Counter(
                (e.kind, e.label) for e in journal.events
                if e.kind in ("cell-finished", "cell-dist", "cell-ledger")
            )

        serial = MemoryJournal()
        run_experiment(spec, runner=ParallelRunner(journal=serial))
        parallel = MemoryJournal()
        run_experiment(
            spec, runner=ParallelRunner(jobs, journal=parallel, batch=batch)
        )
        if batch:
            assert parallel.count("batch-partition") == 1
        else:
            assert normalized(parallel) == normalized(serial)
        assert per_cell(parallel) == per_cell(serial)
        assert len(per_cell(serial)) == 3 * 6

    def test_retry_events_journaled(self, tmp_path):
        jl = MemoryJournal()
        sentinel = str(tmp_path / "crash")
        runner = ParallelRunner(1, retries=1, journal=jl)
        out = runner.run_tasks(
            _fails_then_succeeds, [(1, sentinel), (2, sentinel)]
        )
        assert out == [2, 4]
        assert jl.count("cell-retried") == 1
        retried = next(e for e in jl.events if e.kind == "cell-retried")
        assert "injected" in retried.detail
        assert retried.attempt == 1

    def test_cache_hits_journaled(self, tmp_path):
        """A warm checkpointed re-run journals every cell as resumed."""
        store = CellStore(tmp_path / "cells")
        wl = SyntheticWorkload(threads_per_process=2, phases=2)
        insts = [instance_type("Large")]
        run_platform_sweep(
            wl, insts, reps=1, seed=3, runner=ParallelRunner(checkpoint=store)
        )

        jl = MemoryJournal()
        run_platform_sweep(
            wl, insts, reps=1, seed=3,
            runner=ParallelRunner(checkpoint=store, journal=jl),
        )
        hits = [e for e in jl.events if e.kind == "cell-resumed"]
        assert len(hits) == 7  # seven-platform sweep, one instance
        assert all(e.cached for e in hits)
        assert jl.count("cell-finished") == 0  # nothing actually ran
        metrics = journal_to_metrics(jl.events)
        assert metrics.counter("repro_cells_resumed_total").value == 7
        summary = summarize_journal(jl.events)
        assert (summary.n_cells, summary.n_resumed, summary.n_executed) == (
            7, 7, 0,
        )


class TestSummary:
    def _journal(self):
        jl = MemoryJournal()
        run_experiment(tiny_spec(), runner=ParallelRunner(journal=jl))
        return jl

    def test_summarize_round_trip(self):
        jl = self._journal()
        summary = summarize_journal(jl.events)
        assert summary.n_cells == 3
        assert summary.n_executed == 3
        assert summary.n_resumed == 0
        assert summary.wall_seconds > 0
        assert summary.sched_events_total > 0
        assert summary.events_per_second > 0
        assert summary.retries_total == 0
        assert 0 < summary.critical_path_seconds <= summary.wall_seconds
        assert len(summary.slowest_cells(2)) == 2
        util = summary.worker_utilization()
        assert util and all(0 <= u <= 1 for u in util.values())

    def test_render_mentions_key_figures(self):
        text = summarize_journal(self._journal().events).render()
        assert "cells" in text and "wall clock" in text
        assert "slowest cells" in text

    def test_empty_journal_raises(self):
        with pytest.raises(AnalysisError):
            summarize_journal([])

    def test_cached_cells_counted(self):
        """Replayed cells count once each, also when they share a label."""
        events = [
            JournalEvent(
                ts=0.0, kind="cell-resumed", label="a", cell="k1", cached=True
            ),
            JournalEvent(
                ts=0.0, kind="cell-resumed", label="a", cell="k2", cached=True
            ),
            JournalEvent(
                ts=0.0, kind="cell-finished", label="c",
                worker="pid-1", attempt=1, duration=1.0,
            ),
        ]
        summary = summarize_journal(events)
        assert summary.n_cells == 3
        assert summary.n_resumed == 2
        assert summary.n_executed == 1
        assert "1 executed, 2 replayed from checkpoints" in summary.render()

    def test_unknown_kinds_counted_not_fatal(self):
        events = [
            JournalEvent(ts=0.0, kind="cell-finished", label="a", duration=1.0),
            JournalEvent(ts=0.1, kind="cell-teleported", label="a"),
            JournalEvent(ts=0.2, kind="cell-teleported", label="b"),
            JournalEvent(ts=0.3, kind="warp-drive-engaged"),
        ]
        summary = summarize_journal(events)
        assert summary.unknown_events == {
            "cell-teleported": 2,
            "warp-drive-engaged": 1,
        }
        assert "unknown events: 3" in summary.render()

    def test_dist_events_fold_into_percentiles(self):
        jl = MemoryJournal()
        run_experiment(tiny_spec(), runner=ParallelRunner(journal=jl))
        summary = summarize_journal(jl.events)
        assert sorted(summary.dists) == [
            "Pinned CN", "Vanilla BM", "Vanilla CN",
        ]
        # the synthetic workload is makespan-only: the op stream is
        # empty and percentiles fall back to the cell (makespan) stream
        pct = summary.dist_percentiles("cell")
        assert sorted(pct) == sorted(summary.dists)
        for qs in pct.values():
            values = list(qs.values())
            assert values == sorted(values)  # quantiles are monotone
        assert "cell latency percentiles" in summary.render()

    def test_without_dist_no_percentile_block(self):
        # as in a journal whose every cell was replayed from checkpoints
        events = [e for e in self._journal().events if e.kind != "cell-dist"]
        summary = summarize_journal(events)
        assert summary.dists == {}
        assert "latency percentiles" not in summary.render()


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc()
        c.inc(2.5)
        assert reg.counter("repro_things_total").value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0

    def test_histogram_buckets_cumulative(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 2.0, 7.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 2, 3]
        assert h.count == 4
        assert h.sum == pytest.approx(109.5)

    def test_bad_buckets_raise(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))

    def test_bad_name_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("no spaces allowed")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ConfigurationError):
            reg.gauge("m")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_cells_total", "cells").inc(3)
        reg.gauge("repro_speed", "evps").set(1.5)
        reg.histogram("repro_secs", (0.1, 1.0), "t").observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE repro_cells_total counter" in text
        assert "repro_cells_total 3" in text
        assert "repro_speed 1.5" in text
        assert 'repro_secs_bucket{le="0.1"} 0' in text
        assert 'repro_secs_bucket{le="1"} 1' in text
        assert 'repro_secs_bucket{le="+Inf"} 1' in text
        assert "repro_secs_sum 0.5" in text
        assert "repro_secs_count 1" in text
        # every non-comment line is "name{labels} value"
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert re.match(
                    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? \S+$', line
                ), line

    def test_prometheus_explicit_inf_bucket_not_duplicated(self):
        # an explicit +Inf bound must not produce two le="+Inf" lines
        import math

        reg = MetricsRegistry()
        h = reg.histogram("repro_secs", (1.0, math.inf), "t")
        h.observe(0.5)
        h.observe(99.0)
        text = reg.to_prometheus()
        assert text.count('le="+Inf"') == 1
        assert 'repro_secs_bucket{le="+Inf"} 2' in text

    def test_prometheus_float_formatting_conventions(self):
        import math

        from repro.obs.metrics import _fmt

        assert _fmt(math.nan) == "NaN"
        assert _fmt(math.inf) == "+Inf"
        assert _fmt(-math.inf) == "-Inf"
        assert _fmt(3.0) == "3"
        assert _fmt(0.1) == "0.1"
        # magnitudes beyond exact-integer floats render scientifically,
        # not as a misleading string of digits
        assert _fmt(1e21) == "1e+21"
        assert _fmt(-1e21) == "-1e+21"

    def test_summary_metric_prometheus_export(self):
        reg = MetricsRegistry()
        s = reg.summary("repro_lat_seconds", "latency")
        s.observe_many([0.1] * 90 + [1.0] * 10)
        text = reg.to_prometheus()
        assert "# TYPE repro_lat_seconds summary" in text
        assert 'repro_lat_seconds{quantile="0.5"}' in text
        assert 'repro_lat_seconds{quantile="0.999"}' in text
        assert "repro_lat_seconds_count 100" in text
        # no _sum: the mergeable sketch keeps integer counts only
        assert "repro_lat_seconds_sum" not in text

    def test_summary_metric_empty_exports_nan(self):
        reg = MetricsRegistry()
        reg.summary("repro_lat_seconds")
        assert 'repro_lat_seconds{quantile="0.5"} NaN' in reg.to_prometheus()

    def test_prometheus_escapes_help_and_label_values(self):
        """Exposition-format 0.0.4 escaping: backslash and newline in
        HELP text, plus double quotes in label values."""
        reg = MetricsRegistry()
        reg.counter("repro_c", 'path "C:\\tmp"\nsecond line').inc(1)
        text = reg.to_prometheus()
        assert '# HELP repro_c path "C:\\\\tmp"\\nsecond line' in text
        assert "\nsecond line" not in text.replace("\\n", "")
        for line in text.splitlines():
            if line.startswith("# HELP"):
                assert "\n" not in line  # single physical line

    def test_prometheus_escapes_histogram_bound_labels(self):
        # no numeric bound ever needs escaping, but the label path must
        # round-trip backslash/quote/newline if a bound formats oddly
        from repro.obs.metrics import _escape_label

        assert _escape_label('a"b') == 'a\\"b'
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label("a\nb") == "a\\nb"

    def test_runner_populates_metrics(self):
        jl = MemoryJournal()
        spec = tiny_spec()
        runner = ParallelRunner(1, journal=jl)
        tasks = cell_tasks(spec)
        runner.run_tasks(execute_cell, tasks)
        reg = journal_to_metrics(jl.events)
        assert reg.counter("repro_cells_completed_total").value == len(tasks)
        assert reg.counter("repro_sim_sched_events_total").value > 0
        assert reg.histogram("repro_cell_seconds").count == len(tasks)


class TestExport:
    def _events(self):
        from repro.obs import SpanTracer, TraceContext, mint_trace_id

        jl = MemoryJournal()
        tracer = SpanTracer(jl, TraceContext(mint_trace_id("export")))
        run_experiment(
            tiny_spec(), runner=ParallelRunner(journal=jl, tracer=tracer)
        )
        tracer.close()
        return jl.events

    def test_chrome_trace_is_valid(self):
        from repro.obs import spans_from_journal, spans_to_chrome

        events = self._events()
        doc = spans_to_chrome(spans_from_journal(events), events)
        text = json.dumps(doc)  # must serialize cleanly
        doc = json.loads(text)
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        for e in events:
            assert e["ph"] in ("X", "i", "M")
            assert {"name", "pid", "tid", "ts"} <= set(e)
            assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
        cells = [e for e in events if e["ph"] == "X" and e["cat"] == "cell"]
        assert len(cells) == 3
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "repro campaign" in names

    def test_folded_lines_well_formed(self):
        lines = journal_to_folded(self._events())
        assert len(lines) == 3
        for line in lines:
            assert re.match(r"^campaign;[^ ;]+;[^ ;]+ \d+$", line), line

    def test_prometheus_export_parses(self):
        text = journal_to_prometheus(self._events())
        assert "repro_cells_completed_total 3" in text
        assert 'repro_cell_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_campaign_wall_seconds" in text

    def test_timeline_exports(self):
        from repro.engine.tracing import ListTraceSink
        from repro.hostmodel.topology import r830_host
        from repro.platforms.registry import make_platform
        from repro.rng import RngFactory
        from repro.run.execution import run_once
        from repro.trace.timeline import Timeline
        from repro.workloads.ffmpeg import FfmpegWorkload

        sink = ListTraceSink()
        run_once(
            FfmpegWorkload(video_seconds=0.5, n_sync_chunks=4),
            make_platform("CN", instance_type("Large"), "vanilla"),
            r830_host(),
            rng=RngFactory(seed=5).fresh_stream("obs-timeline"),
            trace=sink,
        )
        timeline = Timeline.from_events(sink.events)
        doc = timeline_to_chrome(timeline)
        json.dumps(doc)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)
        folded = timeline_to_folded(timeline)
        assert folded
        assert all(re.match(r"^sim;T\d+;[^ ]+ \d+$", ln) for ln in folded)

    def test_offcpu_folded(self):
        from repro.hostmodel.topology import r830_host
        from repro.platforms.registry import make_platform
        from repro.rng import RngFactory
        from repro.run.execution import run_once
        from repro.trace.offcputime import OffCpuReport
        from repro.workloads.ffmpeg import FfmpegWorkload

        result = run_once(
            FfmpegWorkload(video_seconds=0.5, n_sync_chunks=4),
            make_platform("CN", instance_type("Large"), "vanilla"),
            r830_host(),
            rng=RngFactory(seed=5).fresh_stream("obs-offcpu"),
        )
        lines = offcpu_to_folded(
            OffCpuReport.from_counters(result.counters), root="ffmpeg"
        )
        assert any(line.startswith("ffmpeg;oncpu;useful ") for line in lines)
        assert all(int(line.rsplit(" ", 1)[1]) > 0 for line in lines)


class TestFlamegraph:
    def test_render_svg(self):
        from repro.viz.flamegraph import render_flamegraph_svg

        svg = render_flamegraph_svg(
            ["a;b 100", "a;c 50", "d 25"], title="test graph"
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "test graph" in svg
        assert svg.count("<rect") >= 6  # background + root + 5 frames

    def test_save_svg(self, tmp_path):
        from repro.viz.flamegraph import save_flamegraph_svg

        out = tmp_path / "f.svg"
        save_flamegraph_svg(["x;y 10"], out)
        assert out.read_text().startswith("<svg")

    def test_malformed_lines_raise(self):
        from repro.viz.flamegraph import parse_folded, render_flamegraph_svg

        with pytest.raises(AnalysisError):
            parse_folded(["no-weight-here"])
        with pytest.raises(AnalysisError):
            parse_folded(["a;b notanumber"])
        with pytest.raises(AnalysisError):
            parse_folded(["a;b -5"])
        with pytest.raises(AnalysisError):
            render_flamegraph_svg(["a 0"])  # zero total weight


class TestCellIdentity:
    """Cells are counted by store key; labels are display text only.

    Fig. 7 runs the same three platform cells on two hosts, and
    ``CellTask.label`` omits the host, so the six cells share three
    labels; fig. 8 runs two workloads whose four cells share two.
    """

    @staticmethod
    def _campaign(fig):
        from repro.run.campaign import Campaign

        return Campaign(reps_fast=1, include=(fig,))

    def _journal(self, fig, runner_kw=None):
        from repro.run.campaign import run_campaign

        jl = MemoryJournal()
        run_campaign(
            self._campaign(fig),
            runner=ParallelRunner(journal=jl, **(runner_kw or {})),
        )
        return jl

    @pytest.mark.parametrize("fig, cells", [("fig7", 6), ("fig8", 4)])
    def test_shared_labels_count_every_cell(self, fig, cells):
        jl = self._journal(fig)
        finished = [e for e in jl.events if e.kind == "cell-finished"]
        assert len(finished) == cells
        assert len({e.label for e in finished}) < cells
        assert len({e.cell for e in finished}) == cells
        summary = summarize_journal(jl.events)
        assert (summary.n_cells, summary.n_executed) == (cells, cells)
        text = journal_to_prometheus(jl.events)
        assert f"repro_cells_completed_total {cells}\n" in text
        assert f"repro_sim_runs_total {cells}\n" in text  # one rep each

    def test_every_per_cell_event_carries_the_store_key(self):
        from repro.fabric import campaign_cells

        keys = {r.key for r in campaign_cells(self._campaign("fig7"))}
        jl = self._journal("fig7")
        per_cell = {
            "cell-queued", "cell-started", "cell-finished", "cell-ledger",
            "cell-dist",
        }
        seen = [e for e in jl.events if e.kind in per_cell]
        assert {e.kind for e in seen} == per_cell
        assert {e.cell for e in seen} == keys

    def test_failed_batch_group_journals_each_member_cell(self, monkeypatch):
        """A failed batched attempt is journaled once per member cell,
        under that cell's label and key — never as a phantom group cell."""
        import repro.run.parallel as parallel

        real = parallel._execute_batch_group
        calls = []

        def flaky(tasks):
            calls.append(len(tasks))
            if len(calls) == 1:
                raise RuntimeError("transient group failure")
            return real(tasks)

        monkeypatch.setattr(parallel, "_execute_batch_group", flaky)
        jl = self._journal("fig7", {"batch": True})
        retried = [e for e in jl.events if e.kind == "cell-retried"]
        assert len(retried) == calls[0] >= 2
        assert all(e.cell for e in retried)
        assert not [e for e in retried if e.label.startswith("batch[")]
        summary = summarize_journal(jl.events)
        assert summary.n_cells == 6
        assert summary.retries_total == calls[0]

    def test_half_replayed_fig7_keeps_every_executed_cell(self, tmp_path):
        from repro.fabric import campaign_cells

        refs = campaign_cells(self._campaign("fig7"))
        first_host = refs[0].task.host
        store = CellStore(tmp_path / "cells")
        seeded = [r for r in refs if r.task.host == first_host]
        assert len(seeded) == 3
        for r in seeded:
            store.put(r.key, execute_cell(r.task), label=r.task.label)

        jl = self._journal("fig7", {"checkpoint": store})
        summary = summarize_journal(jl.events)
        assert (summary.n_cells, summary.n_executed, summary.n_resumed) == (
            6, 3, 3,
        )
        finished = {
            e.cell: e.duration for e in jl.events if e.kind == "cell-finished"
        }
        assert set(finished) == {r.key for r in refs} - {r.key for r in seeded}
        slowest = summary.slowest_cells(6)
        assert len(slowest) == 3
        assert sorted(c.duration for c in slowest) == sorted(finished.values())
        assert "6 (3 executed, 3 replayed" in summary.render()
