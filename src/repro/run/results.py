"""Result containers and JSON (de)serialization.

Three levels mirror the paper's experimental structure:

* :class:`RunResult` — one execution of one workload on one platform
  configuration (one bar-height sample);
* :class:`ExperimentResult` — the repetitions of one configuration
  (one bar: mean + confidence interval);
* :class:`SweepResult` — a platform x instance-type grid (one figure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import AnalysisError
from repro.trace.counters import PerfCounters

__all__ = ["RunResult", "ExperimentResult", "SweepResult"]


@dataclass
class RunResult:
    """One simulated execution.

    Attributes
    ----------
    workload / platform_label / instance_name / host_name:
        Identity of the configuration.
    metric_name:
        ``makespan`` or ``mean_response``.
    value:
        The metric, in seconds.
    makespan / mean_response:
        Both raw quantities (``mean_response`` is NaN for makespan-only
        workloads).
    thrashed:
        True when the memory-pressure model flagged the run out-of-range
        (the paper's Cassandra-on-Large case).
    rep:
        Repetition index.
    counters:
        Perf counters of the run (not serialized to JSON).
    dist:
        Per-stream latency sketches (``{stream:
        :class:`~repro.obs.sketch.QuantileSketch`}``) recorded by every
        simulated repetition (None only for runs rebuilt from a payload
        without them).  Unlike the counters they *are* serialized
        (sketches are deterministic integer bucket counts), so
        checkpointed/cached runs — the open-loop load-curve cells in
        particular — replay with their distributions intact.
    """

    workload: str
    platform_label: str
    instance_name: str
    host_name: str
    metric_name: str
    value: float
    makespan: float
    mean_response: float
    thrashed: bool
    rep: int
    counters: PerfCounters | None = field(default=None, repr=False)
    dist: dict | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready representation (drops the counters).

        Latency sketches, when present, are serialized under ``dist``
        (sorted stream names, canonical sketch dicts) — deterministic,
        so content-addressed checkpoint writes stay byte-identical.
        """
        d = {
            "workload": self.workload,
            "platform_label": self.platform_label,
            "instance_name": self.instance_name,
            "host_name": self.host_name,
            "metric_name": self.metric_name,
            "value": self.value,
            "makespan": self.makespan,
            "mean_response": self.mean_response,
            "thrashed": self.thrashed,
            "rep": self.rep,
        }
        if self.dist:
            d["dist"] = {
                name: sk.to_dict() for name, sk in sorted(self.dist.items())
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        from repro.obs.sketch import QuantileSketch

        d = dict(d)
        dist = d.pop("dist", None)
        if dist is not None:
            dist = {
                name: QuantileSketch.from_dict(sd) for name, sd in dist.items()
            }
        return cls(counters=None, dist=dist, **d)


@dataclass
class ExperimentResult:
    """All repetitions of one (workload, platform, instance) cell."""

    runs: list[RunResult]

    def __post_init__(self) -> None:
        if not self.runs:
            raise AnalysisError("an ExperimentResult needs at least one run")
        keys = {
            (r.workload, r.platform_label, r.instance_name, r.metric_name)
            for r in self.runs
        }
        if len(keys) != 1:
            raise AnalysisError(
                f"mixed configurations in one ExperimentResult: {sorted(keys)}"
            )

    @property
    def workload(self) -> str:
        """Workload name of the cell."""
        return self.runs[0].workload

    @property
    def platform_label(self) -> str:
        """Platform label of the cell."""
        return self.runs[0].platform_label

    @property
    def instance_name(self) -> str:
        """Instance-type name of the cell."""
        return self.runs[0].instance_name

    @property
    def values(self) -> np.ndarray:
        """Metric samples across repetitions."""
        return np.asarray([r.value for r in self.runs], dtype=float)

    @property
    def mean(self) -> float:
        """Mean metric across repetitions."""
        return float(self.values.mean())

    @property
    def thrashed(self) -> bool:
        """True when any repetition was flagged out-of-range."""
        return any(r.thrashed for r in self.runs)

    @property
    def n_reps(self) -> int:
        """Number of repetitions."""
        return len(self.runs)


@dataclass
class SweepResult:
    """A platform x instance grid of experiment cells (one figure).

    Attributes
    ----------
    workload:
        Workload name.
    cells:
        Mapping ``(platform_label, instance_name) -> ExperimentResult``.
    instance_order / platform_order:
        Axis orders for rendering.
    """

    workload: str
    cells: dict[tuple[str, str], ExperimentResult]
    instance_order: list[str]
    platform_order: list[str]

    def cell(self, platform_label: str, instance_name: str) -> ExperimentResult:
        """One cell; raises :class:`AnalysisError` if absent."""
        try:
            return self.cells[(platform_label, instance_name)]
        except KeyError:
            raise AnalysisError(
                f"no cell for ({platform_label!r}, {instance_name!r}); "
                f"have platforms {self.platform_order} x instances "
                f"{self.instance_order}"
            ) from None

    def series(self, platform_label: str) -> list[ExperimentResult]:
        """All cells of one platform, in instance order."""
        return [self.cell(platform_label, inst) for inst in self.instance_order]

    def means(self, platform_label: str) -> np.ndarray:
        """Mean metric of one platform across instance sizes."""
        return np.asarray([c.mean for c in self.series(platform_label)])

    def baseline_means(self, baseline_label: str = "Vanilla BM") -> np.ndarray:
        """Mean metric of the baseline platform across instance sizes."""
        return self.means(baseline_label)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "workload": self.workload,
            "instance_order": self.instance_order,
            "platform_order": self.platform_order,
            "runs": [
                r.to_dict() for cell in self.cells.values() for r in cell.runs
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        grouped: dict[tuple[str, str], list[RunResult]] = {}
        for rd in d["runs"]:
            run = RunResult.from_dict(rd)
            grouped.setdefault(
                (run.platform_label, run.instance_name), []
            ).append(run)
        return cls(
            workload=d["workload"],
            cells={k: ExperimentResult(v) for k, v in grouped.items()},
            instance_order=list(d["instance_order"]),
            platform_order=list(d["platform_order"]),
        )

    def save(self, path: str | Path) -> None:
        """Write the sweep as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a sweep written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
