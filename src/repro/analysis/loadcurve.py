"""Offered-load sweeps and saturation-knee analysis.

The tail-latency analog of the paper's Fig. 5/6: instead of draining a
fixed closed population, the open-loop workloads
(:mod:`repro.workloads.openloop`) are driven up a **ladder of arrival
rates** per platform, per-request latencies stream into
:class:`~repro.obs.sketch.QuantileSketch` (never materializing the
request population), and the analysis reports, per platform,

* the throughput-latency curve (achieved throughput and p50/p99/p999
  per rung), and
* the **saturation knee**: the smallest offered rate whose p99 exceeds
  ``knee_multiple`` times the platform's unloaded p99 (the lowest
  rung's), plus the maximum throughput sustained below the knee.

The headline is where vanilla-CN's cgroups tax moves the knee relative
to pinned-CN, VM, and bare-metal — none of the source papers measure
saturation under pinning.

Everything here is pure arithmetic over measured
:class:`~repro.run.results.RunResult` lists; the runs come from the
ordinary campaign machinery (:func:`repro.run.campaign.run_campaign`
with ``"loadcurve"`` included), so ``--jobs``, ``--batch``, caching,
resume, and fabric sharding all compose and the derived curves are
byte-stable across every execution leg.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import AnalysisError, ConfigurationError
from repro.obs.sketch import QuantileSketch, merge_sketches

__all__ = [
    "KneeReport",
    "LoadCurveConfig",
    "LoadCurvePoint",
    "LoadCurveResult",
    "build_loadcurve",
    "knee_doc",
    "loadcurve_section",
]

#: Workload names accepted by :class:`LoadCurveConfig`.
LOADCURVE_WORKLOADS: tuple[str, ...] = ("wordpress", "cassandra")

#: Platform grid of a load sweep (kind, mode), in report order.  The
#: VMCN stack rides along per "Experimental Assessment of Containers
#: Running on Top of Virtual Machines" (PAPERS.md).
LOADCURVE_GRID: tuple[tuple[str, str], ...] = (
    ("BM", "vanilla"),
    ("VM", "vanilla"),
    ("VMCN", "vanilla"),
    ("CN", "vanilla"),
    ("CN", "pinned"),
)


@dataclass(frozen=True)
class LoadCurveConfig:
    """What an offered-load sweep runs.

    Parameters
    ----------
    workload:
        ``"wordpress"`` or ``"cassandra"`` (the open-loop variants).
    rates:
        The offered-rate ladder, requests per second, strictly
        increasing.
    n_requests:
        Arrivals simulated per repetition per rung.
    reps:
        Repetitions per (platform, rate) cell.
    arrivals:
        Arrival-process name (see :mod:`repro.workloads.arrivals`).
    knee_multiple:
        A rung is past the knee when its p99 exceeds this multiple of
        the platform's unloaded (lowest-rung) p99.
    instance:
        Instance type every platform is provisioned at.
    """

    workload: str = "wordpress"
    rates: tuple[float, ...] = (120.0, 240.0, 360.0, 480.0, 600.0, 720.0)
    n_requests: int = 200
    reps: int = 2
    arrivals: str = "poisson"
    knee_multiple: float = 3.0
    instance: str = "xLarge"

    def __post_init__(self) -> None:
        if self.workload.lower() not in LOADCURVE_WORKLOADS:
            raise ConfigurationError(
                f"unknown load-curve workload {self.workload!r}; "
                f"known: {list(LOADCURVE_WORKLOADS)}"
            )
        rates = tuple(float(r) for r in self.rates)
        if len(rates) < 2:
            raise ConfigurationError(
                "a rate ladder needs >= 2 rungs (the lowest rung is the "
                "unloaded baseline)"
            )
        if any(not r > 0 for r in rates):
            raise ConfigurationError("rates must all be > 0")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ConfigurationError(
                f"rates must be strictly increasing, got {list(rates)}"
            )
        object.__setattr__(self, "rates", rates)
        if self.n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        if self.reps < 1:
            raise ConfigurationError("reps must be >= 1")
        if not self.knee_multiple > 1.0:
            raise ConfigurationError(
                f"knee_multiple must be > 1, got {self.knee_multiple}"
            )

    def to_dict(self) -> dict:
        """JSON-ready representation (manifest round-trip)."""
        return {
            "workload": self.workload,
            "rates": list(self.rates),
            "n_requests": self.n_requests,
            "reps": self.reps,
            "arrivals": self.arrivals,
            "knee_multiple": self.knee_multiple,
            "instance": self.instance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LoadCurveConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            workload=d["workload"],
            rates=tuple(d["rates"]),
            n_requests=d["n_requests"],
            reps=d["reps"],
            arrivals=d["arrivals"],
            knee_multiple=d["knee_multiple"],
            instance=d["instance"],
        )


@dataclass(frozen=True)
class LoadCurvePoint:
    """One rung of one platform's throughput-latency curve."""

    rate: float
    throughput: float
    p50: float
    p99: float
    p999: float
    mean_response: float
    n_ops: int


@dataclass(frozen=True)
class KneeReport:
    """Saturation summary of one platform's curve.

    ``knee_rate`` is None when no rung of the ladder crossed the knee
    threshold (the platform sustained the whole ladder).
    """

    platform: str
    unloaded_p99: float
    knee_rate: float | None
    max_sustained: float


@dataclass
class LoadCurveResult:
    """Everything an offered-load sweep measured."""

    config: LoadCurveConfig
    platform_order: list[str]
    curves: dict[str, list[LoadCurvePoint]]
    knees: dict[str, KneeReport]
    sketches: dict[str, dict[float, QuantileSketch]] = field(
        default_factory=dict, repr=False
    )

    def curve(self, platform: str) -> list[LoadCurvePoint]:
        """One platform's points, in ladder order; raises if absent."""
        try:
            return self.curves[platform]
        except KeyError:
            raise AnalysisError(
                f"no load curve for {platform!r}; have {self.platform_order}"
            ) from None


def detect_knee(
    points: list[LoadCurvePoint], knee_multiple: float
) -> tuple[float, float | None, float]:
    """``(unloaded_p99, knee_rate, max_sustained)`` of one curve.

    The unloaded p99 is the lowest rung's; the knee is the smallest rate
    whose p99 exceeds ``knee_multiple`` times it; the max sustained
    throughput is the best achieved throughput among rungs at or below
    the threshold.
    """
    if not points:
        raise AnalysisError("a load curve needs at least one point")
    unloaded = points[0].p99
    threshold = knee_multiple * unloaded
    knee_rate: float | None = None
    sustained: list[float] = []
    for pt in points:
        if pt.p99 > threshold:
            if knee_rate is None:
                knee_rate = pt.rate
        else:
            sustained.append(pt.throughput)
    max_sustained = max(sustained) if sustained else 0.0
    return unloaded, knee_rate, max_sustained


def build_loadcurve(
    config: LoadCurveConfig,
    platform_order: list[str],
    keyed_runs,
) -> LoadCurveResult:
    """Assemble a :class:`LoadCurveResult` from measured cells.

    ``keyed_runs`` yields ``((platform_label, rate), runs)`` pairs —
    exactly ``zip(keys, results)`` of
    :func:`repro.run.campaign.loadcurve_tasks` output.  Every run must
    carry its latency sketches (every run records them, and
    checkpointed runs serialize them).
    """
    merged: dict[tuple[str, float], QuantileSketch] = {}
    makespans: dict[tuple[str, float], float] = {}
    responses: dict[tuple[str, float], list[float]] = {}
    for (platform, rate), runs in keyed_runs:
        sketches = []
        for run in runs:
            if not run.dist or "op" not in run.dist:
                raise AnalysisError(
                    f"run of {platform} @ {rate} req/s carries no 'op' "
                    "latency sketch; load curves need latency-recording "
                    "open-loop cells"
                )
            sketches.append(run.dist["op"])
        key = (platform, float(rate))
        merged[key] = merge_sketches(sketches)
        makespans[key] = sum(r.makespan for r in runs)
        responses[key] = [r.mean_response for r in runs]

    curves: dict[str, list[LoadCurvePoint]] = {}
    knees: dict[str, KneeReport] = {}
    sketch_grid: dict[str, dict[float, QuantileSketch]] = {}
    for platform in platform_order:
        points: list[LoadCurvePoint] = []
        sketch_grid[platform] = {}
        for rate in config.rates:
            key = (platform, float(rate))
            if key not in merged:
                raise AnalysisError(
                    f"load sweep is missing the ({platform}, {rate}) cell"
                )
            sk = merged[key]
            span = makespans[key]
            resp = responses[key]
            points.append(
                LoadCurvePoint(
                    rate=float(rate),
                    throughput=(sk.count / span) if span > 0 else 0.0,
                    p50=sk.quantile(0.5),
                    p99=sk.quantile(0.99),
                    p999=sk.quantile(0.999),
                    mean_response=sum(resp) / len(resp),
                    n_ops=sk.count,
                )
            )
            sketch_grid[platform][float(rate)] = sk
        curves[platform] = points
        unloaded, knee_rate, max_sustained = detect_knee(
            points, config.knee_multiple
        )
        knees[platform] = KneeReport(
            platform=platform,
            unloaded_p99=unloaded,
            knee_rate=knee_rate,
            max_sustained=max_sustained,
        )
    return LoadCurveResult(
        config=config,
        platform_order=list(platform_order),
        curves=curves,
        knees=knees,
        sketches=sketch_grid,
    )


def knee_doc(result: LoadCurveResult) -> dict:
    """JSON document of the knee analysis (canonical, ``cmp``-stable).

    Serialize with ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` — :func:`knee_json` does exactly that — so
    independently produced documents are byte-comparable.
    """
    return {
        "workload": result.config.workload,
        "arrivals": result.config.arrivals,
        "instance": result.config.instance,
        "knee_multiple": result.config.knee_multiple,
        "rates": list(result.config.rates),
        "platforms": {
            platform: {
                "unloaded_p99": knee.unloaded_p99,
                "knee_rate": knee.knee_rate,
                "max_sustained": knee.max_sustained,
                "curve": [
                    {
                        "rate": pt.rate,
                        "throughput": pt.throughput,
                        "p50": pt.p50,
                        "p99": pt.p99,
                        "p999": pt.p999,
                        "mean_response": pt.mean_response,
                        "n_ops": pt.n_ops,
                    }
                    for pt in result.curves[platform]
                ],
            }
            for platform, knee in result.knees.items()
        },
    }


def knee_json(result: LoadCurveResult) -> str:
    """Canonical JSON text of :func:`knee_doc` (one trailing newline)."""
    return (
        json.dumps(knee_doc(result), sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(r) + " |" for r in rows)
    return "\n".join(lines)


def loadcurve_section(result: LoadCurveResult) -> str:
    """Markdown section of an offered-load sweep (for the report)."""
    cfg = result.config
    parts = [
        "## Open-loop saturation sweep — "
        f"{cfg.workload} ({cfg.arrivals} arrivals, {cfg.instance})",
        "",
        f"Offered-rate ladder {[f'{r:g}' for r in cfg.rates]} req/s, "
        f"{cfg.n_requests} requests x {cfg.reps} repetitions per rung; "
        f"knee = p99 > {cfg.knee_multiple:g}x the unloaded p99.",
        "",
        "### Saturation knees",
        "",
        _md_table(
            ["platform", "unloaded p99 (s)", "knee (req/s)",
             "max sustained (req/s)"],
            [
                [
                    platform,
                    f"{knee.unloaded_p99:.4f}",
                    (
                        f"{knee.knee_rate:g}"
                        if knee.knee_rate is not None
                        else f"> {cfg.rates[-1]:g}"
                    ),
                    f"{knee.max_sustained:.1f}",
                ]
                for platform, knee in (
                    (p, result.knees[p]) for p in result.platform_order
                )
            ],
        ),
    ]
    for platform in result.platform_order:
        rows = [
            [
                f"{pt.rate:g}",
                f"{pt.throughput:.1f}",
                f"{pt.p50:.4f}",
                f"{pt.p99:.4f}",
                f"{pt.p999:.4f}",
            ]
            for pt in result.curves[platform]
        ]
        parts += [
            "",
            f"### {platform}",
            "",
            _md_table(
                ["offered (req/s)", "throughput (req/s)", "p50 (s)",
                 "p99 (s)", "p999 (s)"],
                rows,
            ),
        ]
    return "\n".join(parts)
