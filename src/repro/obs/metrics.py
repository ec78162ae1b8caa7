"""Metrics registry: counters, gauges, histograms, and sketch-backed
quantile summaries.

The quantitative side of the telemetry layer: cheap named aggregates
(cells completed, simulator scheduling events, migrations) that export
as JSON or as the Prometheus text exposition format.  A registry is
built from a recorded run journal by
:func:`repro.obs.export.journal_to_metrics` — the journal is the one
source of campaign metrics, so serial, pool and fabric runs all export
the same counters.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "CELL_SECONDS_BUCKETS",
    "SUMMARY_QUANTILES",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets for campaign-cell wall times (seconds).
CELL_SECONDS_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

#: Default quantiles a :class:`Summary` exports.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"invalid metric name {name!r} (must match {_NAME_RE.pattern})"
        )
    return name


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (e.g. workers in use)."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount


@dataclass
class Histogram:
    """A cumulative-bucket histogram in the Prometheus style.

    Parameters
    ----------
    buckets:
        Upper bounds of the finite buckets, strictly increasing; an
        implicit ``+Inf`` bucket always exists.
    """

    name: str
    buckets: tuple[float, ...]
    help: str = ""
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(set(self.buckets)):
            raise ConfigurationError(
                f"histogram {self.name} buckets must be strictly increasing, "
                f"got {self.buckets}"
            )
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
        self.sum += value
        self.count += 1


@dataclass
class Summary:
    """A quantile summary backed by a mergeable :class:`QuantileSketch`.

    Exports in the Prometheus summary style — one ``quantile``-labelled
    sample per entry of ``quantiles`` plus a ``_count`` — but unlike a
    classic streaming summary it merges exactly: fold worker sketches in
    with :meth:`merge_sketch` and the quantiles are identical to a
    single-process run.  No ``_sum`` is exported: the sketch keeps
    integer bucket counts only (a float sum would make the state depend
    on accumulation order and break byte-identical merging).
    """

    name: str
    help: str = ""
    quantiles: tuple[float, ...] = SUMMARY_QUANTILES
    sketch: QuantileSketch = field(default_factory=QuantileSketch)

    def __post_init__(self) -> None:
        if not self.quantiles or any(
            not (0.0 <= q <= 1.0) for q in self.quantiles
        ):
            raise ConfigurationError(
                f"summary {self.name} quantiles must be in [0, 1], "
                f"got {self.quantiles}"
            )

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sketch.observe(value)

    def observe_many(self, values) -> None:
        """Record a batch of observations."""
        self.sketch.observe_many(values)

    def merge_sketch(self, sketch: QuantileSketch) -> None:
        """Fold a sketch (e.g. one cell's stream) into the summary."""
        self.sketch = self.sketch.merge(sketch)

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self.sketch.count

    def quantile_values(self) -> dict[float, float]:
        """The exported quantiles (NaN while the summary is empty)."""
        if not self.sketch.count:
            return {q: math.nan for q in self.quantiles}
        return {q: self.sketch.quantile(q) for q in self.quantiles}


class MetricsRegistry:
    """Named metrics, created on first use and exportable as text.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, so call sites need no
    registration ceremony.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram | Summary] = {}

    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get(_check_name(name), Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get(_check_name(name), Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = CELL_SECONDS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create a histogram (buckets fixed at creation)."""
        return self._get(
            _check_name(name), Histogram, lambda: Histogram(name, tuple(buckets), help)
        )

    def summary(
        self,
        name: str,
        help: str = "",
        quantiles: tuple[float, ...] = SUMMARY_QUANTILES,
    ) -> Summary:
        """Get or create a quantile summary (quantiles fixed at creation)."""
        return self._get(
            _check_name(name),
            Summary,
            lambda: Summary(name, help, tuple(quantiles)),
        )

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ---------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready projection of every metric."""
        out: dict[str, dict] = {}
        for m in self:
            if isinstance(m, Histogram):
                out[m.name] = {
                    "type": "histogram",
                    "help": m.help,
                    "buckets": {str(b): c for b, c in zip(m.buckets, m.counts)},
                    "sum": m.sum,
                    "count": m.count,
                }
            elif isinstance(m, Summary):
                out[m.name] = {
                    "type": "summary",
                    "help": m.help,
                    "quantiles": {
                        f"{q:g}": v for q, v in m.quantile_values().items()
                    },
                    "count": m.count,
                    "sketch": m.sketch.to_dict(),
                }
            else:
                kind = "counter" if isinstance(m, Counter) else "gauge"
                out[m.name] = {"type": kind, "help": m.help, "value": m.value}
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for m in self:
            if m.help:
                lines.append(f"# HELP {m.name} {_escape_help(m.help)}")
            if isinstance(m, Histogram):
                lines.append(f"# TYPE {m.name} histogram")
                for bound, count in zip(m.buckets, m.counts):
                    if math.isinf(bound):
                        # an explicit +Inf bound would duplicate the
                        # canonical terminal bucket emitted below
                        continue
                    le = _escape_label(_fmt(bound))
                    lines.append(f'{m.name}_bucket{{le="{le}"}} {count}')
                lines.append(f'{m.name}_bucket{{le="+Inf"}} {m.count}')
                lines.append(f"{m.name}_sum {_fmt(m.sum)}")
                lines.append(f"{m.name}_count {m.count}")
            elif isinstance(m, Summary):
                lines.append(f"# TYPE {m.name} summary")
                for q, v in m.quantile_values().items():
                    lines.append(f'{m.name}{{quantile="{q:g}"}} {_fmt(v)}')
                lines.append(f"{m.name}_count {m.count}")
            else:
                kind = "counter" if isinstance(m, Counter) else "gauge"
                lines.append(f"# TYPE {m.name} {kind}")
                lines.append(f"{m.name} {_fmt(m.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Compact human-readable dump (one metric per line)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text per the exposition format: backslash and
    line feed (help text is terminated by the line it sits on)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format: backslash, line
    feed, and the double quote delimiting the value."""
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _fmt(value: float) -> str:
    """Prometheus-friendly number formatting (ints without trailing .0).

    Follows the Go ``strconv.FormatFloat(f, 'g', -1, 64)`` conventions
    of the reference client: ``NaN`` (capitalized), ``+Inf``/``-Inf``,
    and scientific notation for magnitudes too large to write exactly as
    integers (``1e+21``, not ``1000000000000000000000``).
    """
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)
