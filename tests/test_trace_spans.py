"""End-to-end span tracing and live fleet health (:mod:`repro.obs`).

The contracts under test, strongest first:

* **result neutrality** — a traced campaign's report is byte-identical
  to an untraced one (spans never feed back into measured values);
* **serial ≡ fabric** — the canonical span tree of a serial campaign
  equals that of a one-worker fabric run of the same plan, modulo
  worker ids and timestamps;
* **coordination-free merge** — :func:`merge_spans` is associative,
  commutative and idempotent, and excludes orphan-generation spans by
  the same winning-generation rule as the journal merge;
* **crash honesty** — a tracer that dies mid-span emits its partial
  frames, and a chaos fleet's merged Chrome trace validates and carries
  lease-reclaim flow arrows;
* **tail tolerance** — :func:`read_journal_tail` defers a torn final
  line instead of dropping or mis-parsing it, which is what lets the
  live monitor watch journals that are mid-write.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import pytest

from repro import Campaign, CellStore, FaultInjector, FaultPlan, FaultSpec
from repro.analysis.report import generate_report
from repro.cli import main
from repro.errors import ConfigurationError, InjectedCrash
from repro.fabric import init_queue, merge_queue, run_worker
from repro.obs import (
    FleetMonitor,
    HealthRule,
    JournalEvent,
    MemoryJournal,
    NULL_TRACER,
    Span,
    SpanTracer,
    TraceContext,
    build_tree,
    canonical_tree,
    default_rules,
    evaluate_health,
    load_rules,
    merge_spans,
    mint_trace_id,
    read_journal,
    read_journal_tail,
    render_span_tree,
    render_violations,
    span_id_for,
    spans_from_journal,
    spans_to_chrome,
    summarize_journal,
    validate_chrome_trace,
)
from repro.obs.journal import NULL_JOURNAL
from repro.obs.trace_spans import active_tracer
from repro.run.campaign import run_campaign
from repro.run.parallel import ParallelRunner


def _camp() -> Campaign:
    return Campaign(reps_fast=1, include=("fig8",))


def _ctx(material: str = "test") -> TraceContext:
    return TraceContext(mint_trace_id(material))


def _span(i: int, *, shard=None, generation=None, **attrs) -> Span:
    trace = mint_trace_id("merge")
    if shard is not None:
        attrs["shard"] = shard
    if generation is not None:
        attrs["generation"] = generation
    return Span(
        trace_id=trace,
        span_id=span_id_for(trace, f"node-{i}"),
        parent_id="",
        name=f"node-{i}",
        kind="cell",
        start=float(i),
        duration=1.0,
        attrs=attrs,
    )


# -- identity ----------------------------------------------------------------


class TestIdentity:
    def test_mint_is_deterministic_32_hex(self):
        a, b = mint_trace_id("plan-x"), mint_trace_id("plan-x")
        assert a == b and len(a) == 32
        assert a != mint_trace_id("plan-y")
        assert set(a) <= set("0123456789abcdef")

    def test_span_id_depends_on_trace_and_path(self):
        t1, t2 = mint_trace_id("a"), mint_trace_id("b")
        assert span_id_for(t1, "campaign") == span_id_for(t1, "campaign")
        assert span_id_for(t1, "campaign") != span_id_for(t2, "campaign")
        assert span_id_for(t1, "campaign") != span_id_for(t1, "shard-0001-g1")
        assert len(span_id_for(t1, "campaign")) == 16

    def test_context_rejects_malformed_ids(self):
        with pytest.raises(ConfigurationError):
            TraceContext("not-hex")
        with pytest.raises(ConfigurationError):
            TraceContext(mint_trace_id("x"), parent_id="XYZ")

    def test_traceparent_round_trip(self):
        ctx = TraceContext(
            mint_trace_id("x"), parent_id=span_id_for(mint_trace_id("x"), "campaign")
        )
        assert TraceContext.parse(ctx.traceparent()) == ctx
        root = TraceContext(mint_trace_id("x"))
        assert TraceContext.parse(root.traceparent()) == root

    def test_traceparent_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            TraceContext.parse("01-zz-yy")


# -- span event encoding -----------------------------------------------------


class TestSpanEncoding:
    def test_event_round_trip(self):
        span = _span(1, attempt=2, seq=3)
        event = span.to_event()
        assert event.kind == "span" and event.label == span.name
        assert Span.from_event(event) == span

    def test_from_event_rejects_non_span(self):
        with pytest.raises(ConfigurationError, match="not a span"):
            Span.from_event(JournalEvent(ts=0.0, kind="cell-finished", label="x"))

    def test_from_event_rejects_missing_identity(self):
        event = JournalEvent(ts=0.0, kind="span", label="x", extra={"trace": "t"})
        with pytest.raises(ConfigurationError, match="missing"):
            Span.from_event(event)

    def test_from_event_rejects_unknown_kind(self):
        event = _span(1).to_event()
        event.extra["span_kind"] = "galaxy"
        with pytest.raises(ConfigurationError, match="galaxy"):
            Span.from_event(event)


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("sweep", "fig3") as frame:
            assert frame is None
        assert NULL_TRACER.begin_cell("x") is None
        NULL_TRACER.end_cell(None)
        NULL_TRACER.phase("compile", 0.0, 1.0)
        NULL_TRACER.close()
        assert active_tracer() is None

    def test_nesting_emits_parent_chain(self):
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx(), worker="w1")
        with tracer.span("sweep", "fig3"):
            frame = tracer.begin_cell("cell-a", attempt=1)
            tracer.phase("compile", time.time(), 0.01)
            tracer.end_cell(frame)
        tracer.close()
        spans = {s.name: s for s in spans_from_journal(journal.events)}
        assert spans["compile"].parent_id == spans["cell-a"].span_id
        assert spans["cell-a"].parent_id == spans["fig3"].span_id
        assert spans["fig3"].parent_id == spans["campaign"].span_id
        assert spans["campaign"].parent_id == ""
        assert all(s.worker == "w1" for s in spans.values())

    def test_begin_cell_arms_the_phase_sink(self):
        tracer = SpanTracer(MemoryJournal(), _ctx())
        frame = tracer.begin_cell("cell-a")
        assert active_tracer() is tracer
        tracer.end_cell(frame)
        assert active_tracer() is None

    def test_close_emits_open_frames_after_crash(self):
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx())
        tracer.push("sweep", "fig3")
        tracer.begin_cell("cell-a")  # simulated death: never popped
        tracer.close()
        names = [s.name for s in spans_from_journal(journal.events)]
        assert names == ["cell-a", "fig3", "campaign"]
        assert active_tracer() is None
        tracer.close()  # idempotent
        assert len(journal.events) == 3

    def test_stamp_lands_on_every_span(self):
        journal = MemoryJournal()
        tracer = SpanTracer(
            journal,
            _ctx(),
            root_kind="shard",
            root_name="shard-0001",
            root_path="shard-0001-g2",
            stamp={"shard": 1, "generation": 2},
        )
        tracer.emit_leaf("cell", "c", start=0.0, duration=0.1)
        tracer.close()
        for span in spans_from_journal(journal.events):
            assert span.attrs["shard"] == 1
            assert span.attrs["generation"] == 2

    def test_sibling_seq_is_emission_order(self):
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx())
        for name in ("a", "b", "c"):
            tracer.emit_leaf("cell", name, start=0.0, duration=0.0)
        tracer.close()
        seqs = {
            s.name: s.attrs["seq"]
            for s in spans_from_journal(journal.events)
            if s.kind == "cell"
        }
        assert seqs == {"a": 0, "b": 1, "c": 2}

    def test_failed_cell_is_marked(self):
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx())
        frame = tracer.begin_cell("cell-a")
        tracer.end_cell(frame, failed=True)
        tracer.close()
        cell = next(
            s for s in spans_from_journal(journal.events) if s.kind == "cell"
        )
        assert cell.attrs["failed"] is True


# -- merge algebra -----------------------------------------------------------


class TestMergeSpans:
    def test_associative_and_commutative(self):
        a = [_span(1), _span(2)]
        b = [_span(2), _span(3)]
        c = [_span(4)]
        merged = merge_spans(a, b, c)
        assert merged == merge_spans(merge_spans(a, b), c)
        assert merged == merge_spans(a, merge_spans(b, c))
        assert merged == merge_spans(c, b, a)
        assert merged == merge_spans(merged, merged)  # idempotent
        assert [s.name for s in merged] == [
            "node-1", "node-2", "node-3", "node-4",
        ]

    def test_winning_generation_excludes_orphans(self):
        loser = _span(1, shard=0, generation=1)
        winner = _span(2, shard=0, generation=2)
        unstamped = _span(3)
        merged = merge_spans([loser, winner, unstamped], winning={0: 2})
        assert [s.name for s in merged] == ["node-2", "node-3"]

    def test_winning_filter_matches_merge_queue_rule(self, tmp_path):
        """Spans excluded by merge_spans == journals merge_queue orphans."""
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=0.1)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", attempts=(1, 2)),))
        )
        with pytest.raises(InjectedCrash):
            run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        time.sleep(0.15)
        run_worker(tmp_path / "q", "w2", wait=False)
        queue = init_queue(tmp_path / "q", _camp(), shards=2, exist_ok=True)
        winning = {s: g for s, (g, _w) in queue.done_map().items()}
        # fold every journal of every generation, losers included
        all_spans = []
        for shard, gen in winning.items():
            for g in range(1, gen + 1):
                path = queue.journal_path(shard, g)
                if path.exists():
                    all_spans.append(
                        spans_from_journal(read_journal(path, strict=False))
                    )
        merged = merge_spans(*all_spans, winning=winning)
        for span in merged:
            assert winning[span.attrs["shard"]] == span.attrs["generation"]
        # the losing generation emitted spans, so the filter really bit
        assert len(merge_spans(*all_spans)) > len(merged)


# -- trees -------------------------------------------------------------------


class TestTrees:
    def _traced_spans(self):
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx())
        with tracer.span("sweep", "fig8"):
            for name in ("cell-b", "cell-a"):
                frame = tracer.begin_cell(name)
                tracer.phase("compile", time.time(), 0.01)
                tracer.phase("advance", time.time(), 0.02)
                tracer.end_cell(frame)
        tracer.close()
        return spans_from_journal(journal.events)

    def test_build_tree_orphan_parents_become_roots(self):
        spans = self._traced_spans()
        cells = [s for s in spans if s.kind != "campaign" and s.kind != "sweep"]
        roots = build_tree(cells)
        assert {r.span.kind for r in roots} == {"cell"}

    def test_canonical_tree_ignores_workers_and_timestamps(self):
        spans = self._traced_spans()
        relabeled = [
            dataclasses.replace(s, worker="other", start=s.start + 100)
            for s in spans
        ]
        assert canonical_tree(spans) == canonical_tree(relabeled)

    def test_canonical_tree_sees_structure(self):
        spans = self._traced_spans()
        dropped = [s for s in spans if s.name != "compile"]
        assert canonical_tree(spans) != canonical_tree(dropped)

    def test_render_span_tree_indents(self):
        text = render_span_tree(self._traced_spans())
        assert "campaign" in text and "  sweep" in text
        assert "      phase" in text


# -- serial ≡ fabric ---------------------------------------------------------


class TestCampaignTracing:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serial")
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx("campaign"))
        try:
            result = run_campaign(
                _camp(),
                runner=ParallelRunner(
                    journal=journal,
                    checkpoint=CellStore(tmp / "cells"),
                    tracer=tracer,
                ),
            )
        finally:
            tracer.close()
        return result, spans_from_journal(journal.events)

    def test_traced_report_is_byte_identical(self, serial):
        result, _spans = serial
        assert generate_report(result) == generate_report(run_campaign(_camp()))

    def test_serial_spans_cover_cells_and_phases(self, serial):
        _result, spans = serial
        kinds = {s.kind for s in spans}
        assert {"campaign", "cell", "phase"} <= kinds
        names = {s.name for s in spans if s.kind == "phase"}
        assert {"compile", "advance", "checkpoint"} <= names

    def test_one_worker_fabric_tree_equals_serial(self, serial, tmp_path):
        _result, serial_spans = serial
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        run_worker(tmp_path / "q", "w1", wait=False)
        _merged, info = merge_queue(
            tmp_path / "q", journal_out=tmp_path / "m.jsonl"
        )
        fabric_spans = spans_from_journal(
            read_journal(tmp_path / "m.jsonl", strict=True)
        )
        assert info.spans == len(fabric_spans)
        assert canonical_tree(fabric_spans) == canonical_tree(serial_spans)

    def test_untraced_journal_has_no_span_events(self, tmp_path):
        journal = MemoryJournal()
        run_campaign(_camp(), runner=ParallelRunner(journal=journal))
        assert not [e for e in journal.events if e.kind == "span"]

    def test_trace_without_journal_is_noop(self):
        # tracing needs a sink; with no journal the campaign stays clean
        tracer = SpanTracer(NULL_JOURNAL, _ctx("campaign"))
        result = run_campaign(_camp(), runner=ParallelRunner(tracer=tracer))
        assert generate_report(result) == generate_report(run_campaign(_camp()))


class TestCliJournalSpans:
    """Every journal the CLI writes carries spans; none changes a byte."""

    @pytest.mark.parametrize("argv", [
        ["report", "--only", "fig8", "--reps-fast", "1"],
        ["loadcurve", "--rates", "60,120", "--requests", "8", "--reps", "1"],
    ], ids=["report", "loadcurve"])
    def test_journal_records_phases_and_keeps_report_bytes(
        self, tmp_path, capsys, argv
    ):
        plain, journaled = tmp_path / "plain.md", tmp_path / "journaled.md"
        journal = tmp_path / "j.jsonl"
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([
            *argv, "--out", str(journaled), "--journal", str(journal),
            "--checkpoint", str(tmp_path / "cells"),
        ]) == 0
        out = capsys.readouterr().out
        assert journaled.read_bytes() == plain.read_bytes()
        spans = spans_from_journal(read_journal(journal, strict=True))
        assert f"trace {spans[0].trace_id}: inspect with" in out
        phases = {s.name for s in spans if s.kind == "phase"}
        assert {"compile", "advance", "checkpoint"} <= phases

    def test_resume_extends_the_same_trace(self, tmp_path, capsys):
        argv = [
            "report", "--only", "fig8", "--reps-fast", "1",
            "--out", str(tmp_path / "r.md"),
            "--checkpoint", str(tmp_path / "cells"),
            "--journal", str(tmp_path / "j.jsonl"),
        ]
        assert main(argv) == 0
        assert main([*argv, "--resume"]) == 0
        capsys.readouterr()
        spans = spans_from_journal(read_journal(tmp_path / "j.jsonl"))
        assert len({s.trace_id for s in spans}) == 1

    def test_fault_retries_of_label_twins_flow_apart(self, tmp_path, capsys):
        """fig8 has two cells labelled 'FFmpeg/vanilla CN/4xLarge'; a
        fault on both first attempts draws one retry flow per cell."""
        plan = tmp_path / "plan.json"
        FaultPlan(specs=(FaultSpec(
            site="task.error", match="FFmpeg/vanilla CN/4xLarge",
            attempts=(1,),
        ),)).save(plan)
        journal, trace = tmp_path / "j.jsonl", tmp_path / "trace.json"
        assert main([
            "report", "--only", "fig8", "--reps-fast", "1",
            "--out", str(tmp_path / "r.md"), "--journal", str(journal),
            "--fault-plan", str(plan),
        ]) == 0
        assert main([
            "obs", "export", str(journal), "--format", "chrome",
            "--out", str(trace),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        retries = [
            f for f in validate_chrome_trace(doc)["flow_ids"]
            if f.startswith("retry:")
        ]
        assert len(retries) == 2
        ends = {
            e["id"]: e["ts"] for e in doc["traceEvents"] if e["ph"] == "f"
        }
        second = {
            e["args"]["cell"]: e["ts"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "cell"
            and e["args"]["attempt"] == 2
        }
        for flow_id in retries:
            assert ends[flow_id] == second[flow_id.split(":")[1]]

    def test_obs_spans_prints_the_tree_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "spans", str(tmp_path / "j.jsonl"),
                  "--format", "chrome"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


# -- fabric chaos trace ------------------------------------------------------


class TestFabricTrace:
    def test_chaos_fleet_trace_validates_with_reclaim_flow(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=0.1)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", attempts=(1, 2)),))
        )
        with pytest.raises(InjectedCrash):
            run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        time.sleep(0.15)
        run_worker(tmp_path / "q", "w2", wait=False)
        _result, info = merge_queue(
            tmp_path / "q", trace_out=tmp_path / "trace.json"
        )
        doc = json.loads((tmp_path / "trace.json").read_text())
        census = validate_chrome_trace(doc)
        assert census["spans"] == info.spans
        assert any(f.startswith("reclaim:") for f in census["flow_ids"])
        # the synthesized campaign root spans the whole envelope
        spans = [
            e for e in doc["traceEvents"] if e.get("cat") == "campaign"
        ]
        assert len(spans) == 1

    def test_crashed_worker_emits_partial_spans(self, tmp_path):
        init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", attempts=(1, 2)),))
        )
        with pytest.raises(InjectedCrash):
            run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        queue = init_queue(tmp_path / "q", _camp(), shards=2, exist_ok=True)
        spans = spans_from_journal(
            read_journal(queue.journal_path(0, 1), strict=False)
        )
        kinds = {s.kind for s in spans}
        # the dying worker still emitted its fault marker and open frames
        assert "fault" in kinds and "shard" in kinds and "worker" in kinds


    def test_cli_queue_merges_a_valid_trace(self, tmp_path, capsys):
        """A queue initialised with no flag still exports the fleet trace."""
        q = str(tmp_path / "q")
        camp = ["--only", "fig8", "--reps-fast", "1", "--shards", "2"]
        assert main(["fabric", "init", q, *camp]) == 0
        assert main(["fabric", "work", q, "--worker", "w1", "--no-wait"]) == 0
        trace = tmp_path / "trace.json"
        assert main(
            ["fabric", "merge", q, "--out", str(tmp_path / "r.md"),
             "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        census = validate_chrome_trace(json.loads(trace.read_text()))
        assert census["spans"] > 0


# -- chrome export -----------------------------------------------------------


class TestChromeExport:
    def test_export_structure(self):
        journal = MemoryJournal()
        tracer = SpanTracer(journal, _ctx(), worker="w1")
        frame = tracer.begin_cell("cell-a")
        tracer.phase("compile", time.time(), 0.01)
        tracer.end_cell(frame)
        tracer.emit_leaf("fault", "worker.kill cell-a", start=time.time(),
                         duration=0.0, site="worker.kill")
        tracer.close()
        doc = spans_to_chrome(spans_from_journal(journal.events))
        census = validate_chrome_trace(doc)
        assert census["spans"] == 3  # campaign + cell + phase
        assert census["instants"] == 1  # the fault marker
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"w1"}

    def test_retry_flow_connects_attempts(self):
        trace = mint_trace_id("retry")
        spans = [
            Span(trace, span_id_for(trace, "a1"), "", "cell-a", "cell",
                 start=0.0, duration=1.0, worker="w1", attrs={"attempt": 1}),
            Span(trace, span_id_for(trace, "a2"), "", "cell-a", "cell",
                 start=2.0, duration=1.0, worker="w1", attrs={"attempt": 2}),
        ]
        retried = JournalEvent(
            ts=1.0, kind="cell-retried", label="cell-a", worker="w1", attempt=1
        )
        census = validate_chrome_trace(spans_to_chrome(spans, [retried]))
        assert "retry:cell-a:1" in census["flow_ids"]

    def test_retry_flows_of_label_twins_reach_their_own_cell(self):
        """Two cells sharing a label retry apart: each flow is named by
        the cell's store key and ends at that cell's next attempt."""
        trace = mint_trace_id("twins")

        def cell(key, attempt, start):
            return Span(
                trace, span_id_for(trace, f"{key}{attempt}"), "", "cell-a",
                "cell", start=start, duration=1.0, worker="w1",
                attrs={"attempt": attempt, "cell": key},
            )

        spans = [cell("k1", 1, 0.0), cell("k2", 1, 1.0),
                 cell("k1", 2, 3.0), cell("k2", 2, 5.0)]
        retried = [
            JournalEvent(ts=1.0, kind="cell-retried", label="cell-a",
                         cell=key, worker="w1", attempt=1)
            for key in ("k1", "k2")
        ]
        doc = spans_to_chrome(spans, retried)
        census = validate_chrome_trace(doc)
        assert census["flow_ids"] == ["retry:k1:1", "retry:k2:1"]
        ends = {
            e["id"]: e["ts"] for e in doc["traceEvents"] if e["ph"] == "f"
        }
        starts = {
            e["args"]["cell"]: e["ts"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"]["attempt"] == 2
        }
        assert ends == {
            "retry:k1:1": starts["k1"], "retry:k2:1": starts["k2"],
        }

    def test_lifecycle_events_become_markers(self):
        spans = [_span(1)]
        events = [
            JournalEvent(ts=1.0, kind=kind, label="cell-a", cell="k1")
            for kind in ("cell-failed", "cell-resumed",
                         "checkpoint-corrupt", "pool-rebuilt",
                         "cell-finished")
        ]
        doc = spans_to_chrome(spans, events)
        assert validate_chrome_trace(doc)["instants"] == 4
        assert sorted(
            e["name"] for e in doc["traceEvents"] if e["ph"] == "i"
        ) == [
            "cell-failed: cell-a", "cell-resumed: cell-a",
            "checkpoint-corrupt: cell-a", "pool-rebuilt: cell-a",
        ]

    def test_validate_rejects_malformed_docs(self):
        with pytest.raises(ConfigurationError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ConfigurationError, match="phase"):
            validate_chrome_trace({"traceEvents": [{"ph": "Q", "ts": 0}]})
        with pytest.raises(ConfigurationError, match="dur"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "ts": 0, "name": "x", "dur": -1}]}
            )
        with pytest.raises(ConfigurationError, match="without start"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "f", "id": "orphan", "ts": 0, "name": "x"}
                ]}
            )


# -- journal tail reader -----------------------------------------------------


class TestReadJournalTail:
    def _line(self, label: str) -> str:
        return json.dumps(
            JournalEvent(ts=1.0, kind="cell-finished", label=label).to_dict()
        )

    def test_missing_file_yields_empty(self, tmp_path):
        events, offset = read_journal_tail(tmp_path / "nope.jsonl", 0)
        assert events == [] and offset == 0

    def test_torn_final_line_is_deferred(self, tmp_path):
        path = tmp_path / "j.jsonl"
        whole = self._line("a") + "\n"
        torn = self._line("b")
        path.write_text(whole + torn[: len(torn) // 2])
        events, offset = read_journal_tail(path, 0)
        assert [e.label for e in events] == ["a"]
        assert offset == len(whole.encode())
        # writer finishes the line: the next poll picks it up exactly once
        path.write_text(whole + torn + "\n")
        events, offset = read_journal_tail(path, offset)
        assert [e.label for e in events] == ["b"]

    def test_offset_resume_reads_only_new_bytes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self._line("a") + "\n")
        _events, offset = read_journal_tail(path, 0)
        with open(path, "a") as fh:
            fh.write(self._line("b") + "\n")
        events, offset2 = read_journal_tail(path, offset)
        assert [e.label for e in events] == ["b"]
        assert offset2 > offset

    def test_truncated_file_resets_offset(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self._line("a") + "\n" + self._line("b") + "\n")
        _events, offset = read_journal_tail(path, 0)
        path.write_text(self._line("c") + "\n")  # shrank: new custody
        events, _ = read_journal_tail(path, offset)
        assert [e.label for e in events] == ["c"]

    def test_rejects_negative_offset(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_journal_tail(tmp_path / "j.jsonl", -1)

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            read_journal_tail(path, 0)


# -- utilization regression --------------------------------------------------


class TestUtilizationFinite:
    def test_zero_span_journal_yields_zero_not_nan(self):
        events = [
            JournalEvent(
                ts=5.0, kind="cell-finished", label="c", worker="w1",
                duration=0.0,
            )
        ]
        summary = summarize_journal(events)
        assert summary.wall_seconds == 0.0
        assert summary.worker_utilization() == {"w1": 0.0}

    def test_infinite_duration_event_yields_finite_utilization(self):
        # validate_event accepts duration=inf (a number >= 0), so the
        # summary must not divide by an infinite wall-clock window.
        events = [
            JournalEvent(
                ts=0.0, kind="shard-started", label="shard-0000", worker="w1",
                extra={"shard": 0, "generation": 1, "cells": 1},
            ),
            JournalEvent(
                ts=1.0, kind="cell-finished", label="c", worker="w1",
                duration=float("inf"),
            ),
        ]
        summary = summarize_journal(events)
        for value in summary.worker_utilization().values():
            assert math.isfinite(value)
        for value in summary.shard_utilization().values():
            assert math.isfinite(value)


# -- health rules ------------------------------------------------------------


def _shard_events(
    durations: dict[str, float], reclaims: int = 0, replayed=()
):
    """A merged journal: one cell per shard, executed unless the shard
    is in ``replayed`` (then its cell is resumed from a checkpoint)."""
    events = []
    ts = 0.0
    for i, (label, duration) in enumerate(sorted(durations.items())):
        events.append(
            JournalEvent(
                ts=ts, kind="shard-started", label=label, worker="w1",
                extra={"shard": i, "generation": 1, "cells": 1},
            )
        )
        events.append(
            JournalEvent(
                ts=ts, kind="cell-resumed", label=f"{label}/cell",
                cell=f"{label}-cell", extra={"cached": True},
            )
            if label in replayed
            else JournalEvent(
                ts=ts, kind="cell-finished", label=f"{label}/cell",
                cell=f"{label}-cell", worker="w1", duration=duration,
            )
        )
        events.append(
            JournalEvent(
                ts=ts + duration, kind="shard-finished", label=label,
                worker="w1", duration=duration,
                extra={"shard": i, "generation": 1, "cells": 1},
            )
        )
        ts += duration
    for i in range(reclaims):
        events.append(
            JournalEvent(
                ts=ts, kind="shard-reclaimed", label="shard-0000",
                worker="w2",
                extra={"generation": 2 + i, "from_worker": "w1",
                       "from_generation": 1 + i},
            )
        )
    return events


class TestHealthRules:
    def test_rule_validation(self):
        with pytest.raises(ConfigurationError, match="unknown health rule"):
            HealthRule("made-up")
        with pytest.raises(ConfigurationError, match="does not take"):
            HealthRule("lease-churn", {"k": 3})
        with pytest.raises(ConfigurationError, match="must be a number"):
            HealthRule("straggler-shard", {"k": "big"})

    def test_straggler_shard_fires_above_k_median(self):
        events = _shard_events(
            {"shard-0000": 1.0, "shard-0001": 1.0, "shard-0002": 9.0}
        )
        violations = evaluate_health(
            events, [HealthRule("straggler-shard", {"k": 3.0})]
        )
        assert [v.subject for v in violations] == ["shard-0002"]
        assert violations[0].value == pytest.approx(9.0)

    def test_straggler_median_skips_replayed_shards(self):
        """A shard whose cells all replayed from checkpoints in ~0 s
        does not pull the median down and flag an executing shard."""
        durations = {
            "shard-0000": 0.002, "shard-0001": 0.1, "shard-0002": 3.0,
        }
        events = _shard_events(durations, replayed=("shard-0000",))
        assert not evaluate_health(
            events, [HealthRule("straggler-shard", {"k": 3.0})]
        )
        shards = summarize_journal(events).shards
        assert [shards[label].executed for label in sorted(durations)] == [
            0, 1, 1,
        ]

    def test_straggler_respects_min_shards(self):
        events = _shard_events({"shard-0000": 9.0})
        assert not evaluate_health(
            events, [HealthRule("straggler-shard", {"k": 1.0})]
        )

    def test_lease_churn_rate(self):
        events = _shard_events({"shard-0000": 1.0, "shard-0001": 1.0},
                               reclaims=3)
        violations = evaluate_health(
            events, [HealthRule("lease-churn", {"max_rate": 1.0})]
        )
        assert violations and violations[0].value == pytest.approx(1.5)
        assert not evaluate_health(
            events, [HealthRule("lease-churn", {"max_rate": 2.0})]
        )

    def test_ci_unconverged_reads_sweep_extras(self):
        events = [
            JournalEvent(
                ts=0.0, kind="sweep-finished", label="FFmpeg", duration=1.0,
                extra={"rounds": 2, "reps_total": 10,
                       "unconverged": ["VM/Large", "CN/Large"]},
            )
        ]
        violations = evaluate_health(
            events, [HealthRule("ci-unconverged", {"max_cells": 1})]
        )
        assert violations and violations[0].value == 2.0
        assert "VM/Large" in violations[0].detail
        assert not evaluate_health(
            events, [HealthRule("ci-unconverged", {"max_cells": 2})]
        )

    def test_checkpoint_corrupt_counts(self):
        events = [
            JournalEvent(ts=0.0, kind="checkpoint-corrupt", label="c")
        ]
        violations = evaluate_health(
            events, [HealthRule("checkpoint-corrupt", {"max_count": 0})]
        )
        assert violations and violations[0].value == 1.0

    def test_default_rules_pass_clean_fleet(self):
        events = _shard_events({"shard-0000": 1.0, "shard-0001": 1.2})
        assert not evaluate_health(events, default_rules())

    def test_load_rules_formats(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(
            {"rules": [{"rule": "lease-churn", "max_rate": 0.5}]}
        ))
        rules = load_rules(path)
        assert rules == [HealthRule("lease-churn", {"max_rate": 0.5})]
        path.write_text(json.dumps([{"rule": "checkpoint-corrupt"}]))
        assert load_rules(path) == [HealthRule("checkpoint-corrupt")]

    def test_load_rules_rejects_bad_files(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_rules(tmp_path / "nope.json")
        path = tmp_path / "rules.json"
        path.write_text("{")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_rules(path)
        path.write_text("[]")
        with pytest.raises(ConfigurationError, match="non-empty"):
            load_rules(path)
        path.write_text(json.dumps([{"threshold": 1}]))
        with pytest.raises(ConfigurationError, match="'rule' key"):
            load_rules(path)

    def test_render_violations(self):
        assert "healthy" in render_violations([])
        events = _shard_events({"shard-0000": 1.0, "shard-0001": 1.0},
                               reclaims=1)
        violations = evaluate_health(events, [HealthRule("lease-churn")])
        text = render_violations(violations)
        assert "UNHEALTHY" in text and "lease-churn" in text


# -- live fleet monitor ------------------------------------------------------


class TestFleetMonitor:
    def test_monitor_tracks_progress_and_eta(self, tmp_path):
        queue = init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        monitor = FleetMonitor(queue)
        snap = monitor.poll()
        assert snap.cells_done == 0 and not snap.done
        assert snap.eta_seconds is None
        run_worker(tmp_path / "q", "w1", wait=False)
        snap = monitor.poll()
        assert snap.done and snap.progress == 1.0
        assert snap.cells_done == snap.cells_total > 0
        assert snap.eta_seconds == 0.0
        assert "w1" not in snap.worker_busy or snap.worker_busy["w1"] >= 0
        text = snap.render()
        assert "cells" in text and "shard-0000" in text

    def test_monitor_counts_reclaims(self, tmp_path):
        queue = init_queue(
            tmp_path / "q", _camp(), shards=2, lease_ttl=0.1
        )
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="worker.kill", attempts=(1, 2)),))
        )
        monitor = FleetMonitor(queue)
        with pytest.raises(InjectedCrash):
            run_worker(tmp_path / "q", "w1", faults=inj, wait=False)
        time.sleep(0.15)
        run_worker(tmp_path / "q", "w2", wait=False)
        snap = monitor.poll()
        assert snap.done and snap.reclaims >= 1
        assert snap.cells_done == snap.cells_total
        assert any(s.reclaims for s in snap.shards)

    def test_incremental_polls_are_consistent(self, tmp_path):
        queue = init_queue(tmp_path / "q", _camp(), shards=2, lease_ttl=60.0)
        monitor = FleetMonitor(queue)
        run_worker(tmp_path / "q", "w1", wait=False, max_shards=1)
        first = monitor.poll()
        run_worker(tmp_path / "q", "w1", wait=False)
        second = monitor.poll()
        assert 0 < first.cells_done < second.cells_done
        assert second.done
