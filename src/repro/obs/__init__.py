"""Campaign-wide telemetry: run journal, metrics registry, trace export.

The paper's method is observability — ``perf`` plus the BCC tools
explain *why* each platform behaves as it does.  This package applies
the same discipline to the reproduction's own campaigns:

* :mod:`repro.obs.journal` — streaming JSONL record of every cell's
  lifecycle (queued / started / resumed / retried / failed /
  finished), written by the run layer when a journal is attached and a
  strict no-op otherwise;
* :mod:`repro.obs.events` — the versioned event schema and validator;
* :mod:`repro.obs.summary` — fold a journal back into the operator's
  questions (slowest cells, retry counts, replayed cells, per-worker
  utilization, critical path);
* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  histograms / quantile summaries with JSON and Prometheus text export;
* :mod:`repro.obs.sketch` — deterministic mergeable quantile sketches,
  log-spaced streaming histograms, and the per-run latency recorder
  behind ``cell-dist`` journal events and ``repro obs dist``;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and folded flamegraph stacks from both campaign
  journals and simulator ``Timeline`` / ``OffCpuReport`` data;
* :mod:`repro.obs.trace_spans` — hierarchical span tracing (campaign →
  shard → worker → cell attempt → engine phase) with deterministic ids
  that merge across fabric worker processes into one causal tree and
  export as a unified Perfetto timeline with reclaim/retry flow arrows;
* :mod:`repro.obs.live` — incremental journal tailing and the live
  fleet dashboard behind ``repro obs top`` / ``fabric status --watch``;
* :mod:`repro.obs.health` — declarative health rules (straggler shard,
  lease churn, CI non-convergence, checkpoint corruption) evaluated
  over a merged journal for CI gating via ``repro obs health``.

Surfaced on the command line as ``repro obs summary`` / ``repro obs
export`` / ``repro obs spans`` / ``repro obs top`` / ``repro obs
health`` plus ``--journal PATH`` and ``--trace`` on ``run`` and
``report``.
"""

from repro.obs.events import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    JournalEvent,
    validate_event,
)
from repro.obs.export import (
    journal_to_chrome,
    journal_to_folded,
    journal_to_metrics,
    journal_to_prometheus,
    ledger_to_folded,
    offcpu_to_folded,
    schedprof_to_chrome,
    schedprof_to_folded,
    timeline_to_chrome,
    timeline_to_folded,
)
from repro.obs.health import (
    RULE_NAMES,
    HealthRule,
    Violation,
    default_rules,
    evaluate_health,
    load_rules,
    render_violations,
)
from repro.obs.journal import (
    NULL_JOURNAL,
    Journal,
    JsonlJournal,
    MemoryJournal,
    NullJournal,
    open_journal,
    read_journal,
    read_journal_tail,
)
from repro.obs.live import FleetMonitor, FleetSnapshot, ShardProgress
from repro.obs.metrics import (
    CELL_SECONDS_BUCKETS,
    SUMMARY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    default_registry,
)
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    LatencyRecorder,
    LogHistogram,
    QuantileSketch,
    merge_sketches,
    merge_stream_sketches,
)
from repro.obs.summary import CellRecord, RunSummary, summarize_journal
from repro.obs.trace_spans import (
    NULL_TRACER,
    SPAN_KINDS,
    TRACE_ENV,
    NullTracer,
    Span,
    SpanNode,
    SpanTracer,
    TraceContext,
    active_tracer,
    build_tree,
    canonical_tree,
    merge_spans,
    mint_trace_id,
    render_span_tree,
    span_id_for,
    spans_from_journal,
    spans_to_chrome,
    validate_chrome_trace,
)

__all__ = [
    # events
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "JournalEvent",
    "validate_event",
    # journal sinks
    "Journal",
    "NullJournal",
    "MemoryJournal",
    "JsonlJournal",
    "NULL_JOURNAL",
    "open_journal",
    "read_journal",
    "read_journal_tail",
    # summary
    "CellRecord",
    "RunSummary",
    "summarize_journal",
    # trace spans
    "SPAN_KINDS",
    "TRACE_ENV",
    "TraceContext",
    "Span",
    "SpanNode",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "mint_trace_id",
    "span_id_for",
    "active_tracer",
    "spans_from_journal",
    "merge_spans",
    "build_tree",
    "canonical_tree",
    "render_span_tree",
    "spans_to_chrome",
    "validate_chrome_trace",
    # live fleet health
    "ShardProgress",
    "FleetSnapshot",
    "FleetMonitor",
    # health rules
    "RULE_NAMES",
    "HealthRule",
    "Violation",
    "load_rules",
    "default_rules",
    "evaluate_health",
    "render_violations",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "CELL_SECONDS_BUCKETS",
    "SUMMARY_QUANTILES",
    "default_registry",
    # sketches
    "DEFAULT_ALPHA",
    "QuantileSketch",
    "LogHistogram",
    "LatencyRecorder",
    "merge_sketches",
    "merge_stream_sketches",
    # export
    "journal_to_chrome",
    "journal_to_folded",
    "journal_to_metrics",
    "journal_to_prometheus",
    "timeline_to_chrome",
    "timeline_to_folded",
    "offcpu_to_folded",
    "schedprof_to_chrome",
    "schedprof_to_folded",
    "ledger_to_folded",
]
