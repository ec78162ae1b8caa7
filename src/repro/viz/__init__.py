"""Dependency-free visualization of experiment results.

The environment ships no plotting library, so :mod:`repro.viz.svg`
renders the paper's grouped-bar figures as standalone SVG documents
(openable in any browser) directly from a
:class:`~repro.run.results.SweepResult`, and
:mod:`repro.trace.timeline` (in the trace package) provides execution
timelines.  :mod:`repro.viz.flamegraph` renders the folded stacks of
:mod:`repro.obs.export` as SVG flamegraphs, and
:mod:`repro.viz.occupancy` renders the scheduler profiler's per-core
occupancy map (``perf sched map`` analog) as an SVG heat strip.
:mod:`repro.viz.dist` renders the tail-latency CDFs recorded by
journaled campaigns (quantile sketches from ``cell-dist`` journal
events).  The ASCII renderers live in :mod:`repro.analysis.figures`.
"""

from repro.viz.dist import render_dist_svg, save_dist_svg
from repro.viz.flamegraph import render_flamegraph_svg, save_flamegraph_svg
from repro.viz.occupancy import render_occupancy_svg, save_occupancy_svg
from repro.viz.svg import render_sweep_svg, save_sweep_svg

__all__ = [
    "render_sweep_svg",
    "save_sweep_svg",
    "render_dist_svg",
    "save_dist_svg",
    "render_flamegraph_svg",
    "save_flamegraph_svg",
    "render_occupancy_svg",
    "save_occupancy_svg",
]
