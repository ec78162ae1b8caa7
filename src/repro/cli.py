"""Command-line interface: ``repro-pinning`` / ``python -m repro``.

Subcommands mirror the paper's artifacts:

``tables``
    Print Tables I, II and III.
``run``
    Run one (workload, platform, instance) configuration and print the
    measured time plus the overhead breakdown.
``figure``
    Regenerate one of the paper's result figures (3-8) as a text chart
    and optionally save the raw sweep as JSON.
``chr``
    Estimate the suitable-CHR band for a workload (Section IV-A).
``advise``
    Apply the Section-VI best practices to an application profile.
``predict``
    Closed-form overhead-ratio prediction (the paper's future-work
    mathematical model) without running the simulation.
``colocate``
    Consolidation study: co-locate several tenants on one host and
    report interference factors.
``place``
    Cost/SLO placement optimization over the whole deployment grid.
``report``
    Run the full campaign and write a markdown report (optionally with
    a ``--journal`` telemetry stream, a ``--checkpoint`` store for
    crash-safe ``--resume``, and a ``--fault-plan`` chaos schedule).
``obs``
    Summarize or export a recorded run journal (``summary``,
    ``export --format chrome|folded|prom``), inspect trace spans
    (``spans --format tree|chrome``), watch a live fleet (``top``),
    or evaluate declarative health rules (``health --rules``, exits
    non-zero on violations).
``faults``
    Deterministic fault injection: list the built-in fault sites
    (``sites``) or generate a seeded chaos schedule (``plan``).
``fabric``
    Sharded campaign execution across worker processes: ``init`` a
    file-backed shard queue, ``work`` it (one process of a fleet),
    ``run`` an N-worker fleet end to end, ``merge`` a drained queue
    into the byte-identical serial report, ``status`` the shards.
``perf``
    Scheduler profiling of one run (``perf sched`` analogs):
    ``timehist`` (per-thread time history), ``map`` (per-core occupancy
    map), ``ledger`` (additive per-mechanism overhead decomposition with
    a conservation check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

from repro.analysis.bestpractices import BestPracticeAdvisor
from repro.analysis.chr import estimate_suitable_chr_range
from repro.analysis.model import predict_overhead_ratio
from repro.analysis.placement import CostModel, PlacementOptimizer
from repro.analysis.report import generate_report
from repro.analysis.figures import figure_from_sweep, render_figure
from repro.analysis.overhead import overhead_ratios
from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.errors import InjectedFault, ParallelExecutionError, ReproError
from repro.faults import FAULT_SITES, FaultInjector, FaultPlan
from repro.hostmodel.topology import r830_host, small_host
from repro.obs.journal import open_journal, read_journal
from repro.platforms.provisioning import (
    instance_type,
    instance_type_names,
    instance_types_upto,
)
from repro.platforms.registry import make_platform
from repro.rng import DEFAULT_SEED, RngFactory
from repro.analysis.loadcurve import (
    LOADCURVE_WORKLOADS,
    LoadCurveConfig,
    knee_json,
)
from repro.run.campaign import (
    DEFAULT_EXPERIMENTS,
    KNOWN_EXPERIMENTS,
    Campaign,
    run_campaign,
)
from repro.run.parallel import ParallelRunner, default_jobs
from repro.run.persistence import CellStore
from repro.run.colocation import Tenant, run_colocated
from repro.run.execution import run_once
from repro.run.experiment import run_platform_sweep
from repro.workloads.arrivals import ARRIVAL_PROCESSES
from repro.workloads.base import Workload, WorkloadProfile
from repro.workloads.cassandra import CassandraWorkload
from repro.workloads.ffmpeg import FfmpegWorkload
from repro.workloads.mpi import MpiPrimeWorkload, MpiSearchWorkload
from repro.workloads.wordpress import WordPressWorkload

__all__ = ["main", "build_parser"]

_WORKLOADS: dict[str, type[Workload]] = {
    "ffmpeg": FfmpegWorkload,
    "mpi": MpiSearchWorkload,
    "mpi-prime": MpiPrimeWorkload,
    "wordpress": WordPressWorkload,
    "cassandra": CassandraWorkload,
}

_FIGURES = {
    "3": ("ffmpeg", "Fig. 3: FFmpeg execution time (s)"),
    "4": ("mpi", "Fig. 4: MPI Search execution time (s)"),
    "5": ("wordpress", "Fig. 5: WordPress mean response time (s)"),
    "6": ("cassandra", "Fig. 6: Cassandra mean response time (s)"),
    "7": (None, "Fig. 7: CHR effect across hosts"),
    "8": (None, "Fig. 8: multitasking effect"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-pinning",
        description=(
            "Reproduction of 'The Art of CPU-Pinning' (ICPP 2020): simulated "
            "virtualization/containerization pinning studies."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="root random seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for sweep cells (default 1 = serial; "
            "results are bit-for-bit identical at any job count; "
            "0 = one per CPU)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I-III")

    run_p = sub.add_parser("run", help="run one configuration")
    run_p.add_argument("workload", choices=sorted(_WORKLOADS))
    run_p.add_argument(
        "--platform", default="CN", choices=["BM", "VM", "CN", "VMCN"]
    )
    run_p.add_argument(
        "--mode", default="vanilla", choices=["vanilla", "pinned"]
    )
    run_p.add_argument(
        "--instance", default="xLarge", choices=instance_type_names()
    )
    run_p.add_argument(
        "--host-cpus",
        type=int,
        default=0,
        help="simulate a host with this many CPUs (default: the 112-CPU R830)",
    )
    run_p.add_argument(
        "--journal",
        metavar="PATH",
        help="stream run lifecycle events to a JSONL journal",
    )

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("number", choices=sorted(_FIGURES))
    fig_p.add_argument("--reps", type=int, default=3)
    fig_p.add_argument("--save", metavar="PATH", help="save raw sweep JSON")
    fig_p.add_argument(
        "--svg", metavar="PATH", help="also render the figure as an SVG file"
    )

    chr_p = sub.add_parser("chr", help="estimate the suitable-CHR band")
    chr_p.add_argument("workload", choices=sorted(_WORKLOADS))
    chr_p.add_argument("--reps", type=int, default=2)

    adv_p = sub.add_parser("advise", help="apply the Section-VI best practices")
    adv_p.add_argument(
        "--cpu-duty", type=float, default=0.5, help="CPU duty cycle in [0,1]"
    )
    adv_p.add_argument(
        "--io-intensity", type=float, default=0.5, help="IO intensity in [0,1]"
    )
    adv_p.add_argument("--no-pinning", action="store_true")
    adv_p.add_argument("--no-containers", action="store_true")
    adv_p.add_argument("--require-vm", action="store_true")

    pred_p = sub.add_parser(
        "predict", help="closed-form overhead prediction (no simulation)"
    )
    pred_p.add_argument("workload", choices=sorted(_WORKLOADS))
    pred_p.add_argument(
        "--platform", default="CN", choices=["BM", "VM", "CN", "VMCN", "SG"]
    )
    pred_p.add_argument(
        "--mode", default="vanilla", choices=["vanilla", "pinned"]
    )
    pred_p.add_argument(
        "--instance", default="xLarge", choices=instance_type_names()
    )
    pred_p.add_argument(
        "--check",
        action="store_true",
        help="also run the simulation and report the prediction error",
    )

    colo_p = sub.add_parser(
        "colocate", help="co-locate tenants and report interference"
    )
    colo_p.add_argument(
        "tenant",
        nargs="+",
        metavar="WORKLOAD:PLATFORM:MODE:INSTANCE",
        help="e.g. cassandra:CN:pinned:8xLarge",
    )

    place_p = sub.add_parser(
        "place", help="cheapest deployment meeting an SLO (predictor-based)"
    )
    place_p.add_argument("workload", choices=sorted(_WORKLOADS))
    place_p.add_argument(
        "--slo", type=float, required=True, help="deadline in seconds"
    )
    place_p.add_argument("--top", type=int, default=8)
    place_p.add_argument(
        "--core-hour", type=float, default=0.05, help="$ per core-hour"
    )

    sens_p = sub.add_parser(
        "sensitivity", help="elasticity of a finding in the calibration"
    )
    sens_p.add_argument("workload", choices=sorted(_WORKLOADS))
    sens_p.add_argument(
        "--platform", default="CN", choices=["VM", "CN", "VMCN", "SG"]
    )
    sens_p.add_argument(
        "--mode", default="vanilla", choices=["vanilla", "pinned"]
    )
    sens_p.add_argument(
        "--instance", default="xLarge", choices=instance_type_names()
    )

    trace_p = sub.add_parser(
        "trace", help="run one configuration with BCC-style tracing"
    )
    trace_p.add_argument("workload", choices=sorted(_WORKLOADS))
    trace_p.add_argument(
        "--platform", default="CN", choices=["BM", "VM", "CN", "VMCN", "SG"]
    )
    trace_p.add_argument(
        "--mode", default="vanilla", choices=["vanilla", "pinned"]
    )
    trace_p.add_argument(
        "--instance", default="Large", choices=instance_type_names()
    )
    trace_p.add_argument(
        "--timeline", action="store_true", help="also print the Gantt view"
    )
    trace_p.add_argument(
        "--chrome",
        metavar="PATH",
        help="export the run's thread timeline as Chrome trace JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    trace_p.add_argument(
        "--folded",
        metavar="PATH",
        help="export folded time-attribution stacks (flamegraph.pl input)",
    )
    trace_p.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="render the time attribution as an SVG flamegraph",
    )
    trace_p.add_argument(
        "--ledger",
        action="store_true",
        help="also print the coarse overhead ledger (counter-based "
        "additive decomposition; see 'repro perf ledger' for the exact one)",
    )

    perf_p = sub.add_parser(
        "perf",
        help="scheduler profiling of one run (perf sched analogs)",
    )
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)
    for name, help_text in (
        ("timehist", "per-thread scheduling time history"),
        ("map", "per-core occupancy map"),
        ("ledger", "additive per-mechanism overhead ledger"),
    ):
        p = perf_sub.add_parser(name, help=help_text)
        p.add_argument("workload", choices=sorted(_WORKLOADS))
        p.add_argument(
            "--platform", default="CN", choices=["BM", "VM", "CN", "VMCN", "SG"]
        )
        p.add_argument(
            "--mode", default="vanilla", choices=["vanilla", "pinned"]
        )
        p.add_argument(
            "--instance", default="Large", choices=instance_type_names()
        )
        if name == "timehist":
            p.add_argument(
                "--rows", type=int, default=40,
                help="max transition/thread rows to print",
            )
            p.add_argument(
                "--chrome", metavar="PATH",
                help="export the profile as Chrome trace JSON",
            )
            p.add_argument(
                "--folded", metavar="PATH",
                help="export per-thread folded stacks (flamegraph.pl input)",
            )
        elif name == "map":
            p.add_argument(
                "--width", type=int, default=72, help="columns of the map"
            )
            p.add_argument(
                "--svg", metavar="PATH",
                help="also render the occupancy map as an SVG heat strip",
            )
        else:  # ledger
            p.add_argument(
                "--json", metavar="PATH", dest="json_out",
                help="write the ledger as JSON (CI artifact form)",
            )
            p.add_argument(
                "--flamegraph", metavar="PATH",
                help="render the decomposition as an SVG flamegraph",
            )

    rep_p = sub.add_parser(
        "report", help="run the full campaign and write a markdown report"
    )
    rep_p.add_argument("--out", default="REPORT.md", help="output path")
    rep_p.add_argument("--reps-fast", type=int, default=5)
    rep_p.add_argument("--reps-io", type=int, default=2)
    rep_p.add_argument(
        "--only",
        nargs="*",
        choices=list(KNOWN_EXPERIMENTS),
        help="restrict to these experiments",
    )
    rep_p.add_argument(
        "--journal",
        metavar="PATH",
        help="stream campaign lifecycle events to a JSONL journal "
        "(inspect with 'repro obs')",
    )
    rep_p.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="per-cell checkpoint store: completed cells are persisted "
        "as they finish, enabling crash-safe --resume",
    )
    rep_p.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed campaign from --checkpoint: replay verified "
        "cells, re-run only missing/corrupt ones, append to --journal; "
        "the report is byte-identical to an uninterrupted run",
    )
    rep_p.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="arm a deterministic fault plan (see 'repro faults plan') "
        "across the campaign's machinery",
    )
    rep_p.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="advance shape-compatible cells together on the batched "
        "engine (bit-identical report; composes with --jobs/--resume)",
    )
    rep_p.add_argument(
        "--adaptive-reps",
        action="store_true",
        help="adaptive repetition allocation: start sweep cells at "
        "--adaptive-base reps and grant extra reps only to cells whose "
        "confidence interval is still wider than --adaptive-target "
        "(allocation is seed-deterministic, so reports stay byte-stable)",
    )
    rep_p.add_argument(
        "--adaptive-base", type=int, default=3, metavar="N",
        help="reps every cell gets before the CI policy kicks in",
    )
    rep_p.add_argument(
        "--adaptive-target", type=float, default=0.05, metavar="REL",
        help="target relative CI half-width (half-width / mean)",
    )
    rep_p.add_argument(
        "--adaptive-round", type=int, default=1, metavar="N",
        help="extra reps granted per refinement round",
    )
    rep_p.add_argument(
        "--trace",
        action="store_true",
        help="emit hierarchical trace spans (campaign/sweep/cell/phase) "
        "into the --journal stream; inspect with 'repro obs spans'; the "
        "report stays byte-identical with tracing on or off",
    )
    rep_p.add_argument(
        "--load-sweep",
        action="store_true",
        help="also run the open-loop saturation sweep (the 'loadcurve' "
        "experiment with its default ladder) and append its section",
    )

    lc_p = sub.add_parser(
        "loadcurve",
        help="open-loop saturation sweep: offered-rate ladder per "
        "platform, tail-latency curves, knee analysis",
    )
    lc_p.add_argument(
        "--workload",
        default="wordpress",
        choices=list(LOADCURVE_WORKLOADS),
        help="open-loop application to drive",
    )
    lc_p.add_argument(
        "--rates",
        metavar="R,R,...",
        help="offered-rate ladder in req/s, strictly increasing "
        "(default: the workload's stock ladder)",
    )
    lc_p.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="arrivals simulated per repetition per rung",
    )
    lc_p.add_argument(
        "--reps", type=int, default=2, metavar="N",
        help="repetitions per (platform, rate) cell",
    )
    lc_p.add_argument(
        "--arrivals",
        default="poisson",
        choices=list(ARRIVAL_PROCESSES),
        help="arrival process shaping the request stream",
    )
    lc_p.add_argument(
        "--instance",
        default="xLarge",
        choices=instance_type_names(),
        help="instance type every platform is provisioned at",
    )
    lc_p.add_argument(
        "--knee-multiple", type=float, default=3.0, metavar="X",
        help="a rung is past the knee when its p99 exceeds X times "
        "the unloaded (lowest-rung) p99",
    )
    lc_p.add_argument(
        "--out", default="LOADCURVE.md", help="markdown report path"
    )
    lc_p.add_argument(
        "--knee-out", metavar="PATH",
        help="also write the knee analysis as canonical JSON "
        "(byte-identical across --jobs/--batch/fabric legs)",
    )
    lc_p.add_argument(
        "--svg", metavar="PATH",
        help="also render the throughput-latency curves as an SVG",
    )
    lc_p.add_argument(
        "--checkpoint", metavar="DIR",
        help="per-cell checkpoint store enabling crash-safe --resume",
    )
    lc_p.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed sweep from --checkpoint; the "
        "outputs are byte-identical to an uninterrupted run",
    )
    lc_p.add_argument(
        "--journal", metavar="PATH",
        help="stream lifecycle events to a JSONL journal "
        "(inspect with 'repro obs'; latency sketches ride as cell-dist "
        "events for 'repro obs dist')",
    )
    lc_p.add_argument(
        "--fault-plan", metavar="PATH",
        help="arm a deterministic fault plan (see 'repro faults plan')",
    )
    lc_p.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="advance shape-compatible cells together on the batched "
        "engine (bit-identical outputs; composes with --jobs/--resume)",
    )

    obs_p = sub.add_parser(
        "obs", help="campaign telemetry: journal summary and trace export"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    sum_p = obs_sub.add_parser(
        "summary", help="summarize a recorded run journal"
    )
    sum_p.add_argument("journal", help="journal file written by --journal")
    sum_p.add_argument(
        "--top", type=int, default=5, help="slowest cells to list"
    )
    exp_p = obs_sub.add_parser(
        "export",
        help="export a journal as Chrome trace / folded stacks / Prometheus",
    )
    exp_p.add_argument("journal", help="journal file written by --journal")
    exp_p.add_argument(
        "--format",
        required=True,
        choices=["chrome", "folded", "prom"],
        help="chrome = Perfetto trace JSON, folded = flamegraph.pl "
        "stacks, prom = Prometheus text exposition",
    )
    exp_p.add_argument(
        "--out", metavar="PATH", help="write here instead of stdout"
    )
    exp_p.add_argument(
        "--svg",
        metavar="PATH",
        help="(with --format folded) also render an SVG flamegraph",
    )
    dist_p = obs_sub.add_parser(
        "dist",
        help="tail-latency distributions of a journaled campaign's "
        "executed cells",
    )
    dist_p.add_argument("journal", help="journal file written by --journal")
    dist_p.add_argument(
        "--stream",
        choices=["op", "cell", "io_wait", "comm_wait", "barrier_wait"],
        help="latency stream to report (default: op, falling back to "
        "cell for makespan-only campaigns)",
    )
    dist_p.add_argument(
        "--percentiles",
        metavar="P,P,...",
        default="50,90,99,99.9",
        help="percentiles to tabulate, in percent (default 50,90,99,99.9)",
    )
    dist_p.add_argument(
        "--json",
        action="store_true",
        help="emit canonical JSON (merged sketch states + percentiles; "
        "byte-identical for identical campaigns regardless of --jobs "
        "or --batch)",
    )
    dist_p.add_argument(
        "--svg", metavar="PATH", help="also render the CDFs as an SVG"
    )
    dist_p.add_argument(
        "--out", metavar="PATH", help="write here instead of stdout"
    )
    spans_p = obs_sub.add_parser(
        "spans",
        help="trace spans recorded by --trace: tree or Chrome trace JSON",
    )
    spans_p.add_argument("journal", help="journal file written by --journal")
    spans_p.add_argument(
        "--format",
        default="tree",
        choices=["tree", "chrome"],
        help="tree = indented span tree, chrome = Perfetto trace JSON "
        "(load at https://ui.perfetto.dev)",
    )
    spans_p.add_argument(
        "--out", metavar="PATH", help="write here instead of stdout"
    )
    top_p = obs_sub.add_parser(
        "top",
        help="live fleet health of a running fabric queue (progress, "
        "ETA, per-worker busy time, stale leases)",
    )
    top_p.add_argument("queue", help="queue directory from 'fabric init'")
    top_p.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit instead of refreshing",
    )
    top_p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes",
    )
    health_p = obs_sub.add_parser(
        "health",
        help="evaluate declarative health rules against a journal; "
        "exits 2 when any rule is violated",
    )
    health_p.add_argument(
        "journal", help="journal file written by --journal"
    )
    health_p.add_argument(
        "--rules", metavar="PATH",
        help="JSON rule file (default: the built-in rule set; see "
        "repro.obs.health.default_rules)",
    )

    faults_p = sub.add_parser(
        "faults",
        help="deterministic fault injection: list sites, generate plans",
    )
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)
    faults_sub.add_parser("sites", help="list the built-in fault sites")
    plan_p = faults_sub.add_parser(
        "plan", help="generate a seeded chaos schedule as JSON"
    )
    plan_p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="plan seed (same seed, same plan)",
    )
    plan_p.add_argument(
        "--n-faults", type=int, default=2, help="faults to schedule"
    )
    plan_p.add_argument(
        "--sites",
        metavar="S1,S2",
        help="restrict candidate sites (comma-separated; "
        "see 'repro faults sites')",
    )
    plan_p.add_argument(
        "--abort",
        action="store_true",
        help="make worker faults permanent (exhaust the runner's retries) "
        "so the campaign dies instead of healing — what chaos tests that "
        "exercise resume want",
    )
    plan_p.add_argument(
        "--delay", type=float, default=1.0,
        help="seconds task.timeout faults sleep on the pool path",
    )
    plan_p.add_argument(
        "--out", required=True, metavar="PATH", help="where to write the plan"
    )

    fab_p = sub.add_parser(
        "fabric",
        help="sharded campaign execution across worker processes",
    )
    fab_sub = fab_p.add_subparsers(dest="fabric_command", required=True)

    def _fab_campaign_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--reps-fast", type=int, default=5)
        p.add_argument("--reps-io", type=int, default=2)
        p.add_argument(
            "--only",
            nargs="*",
            choices=list(KNOWN_EXPERIMENTS),
            help="restrict to these experiments",
        )
        p.add_argument(
            "--shards", type=int, default=4,
            help="shards to split the cell plan into (more shards = "
            "finer-grained reclamation after a worker dies)",
        )
        p.add_argument(
            "--lc-workload",
            default="wordpress",
            choices=list(LOADCURVE_WORKLOADS),
            help="open-loop workload of the 'loadcurve' experiment",
        )
        p.add_argument(
            "--lc-rates",
            metavar="R,R,...",
            help="offered-rate ladder of the 'loadcurve' experiment "
            "(default: the stock ladder)",
        )
        p.add_argument(
            "--lc-requests", type=int, default=200, metavar="N",
            help="arrivals per repetition per rung of the 'loadcurve' "
            "experiment",
        )
        p.add_argument(
            "--lc-reps", type=int, default=2, metavar="N",
            help="repetitions per (platform, rate) 'loadcurve' cell",
        )
        p.add_argument(
            "--lease-ttl", type=float, default=30.0,
            help="seconds without heartbeats before a lease counts as "
            "stale and peers may reclaim the shard",
        )
        p.add_argument(
            "--batch",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="workers advance shape-compatible cells together on the "
            "batched engine (bit-identical report)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="mint a trace id into the queue manifest; workers emit "
            "trace spans and 'fabric merge --trace-out' exports the "
            "unified fleet timeline",
        )

    fi_p = fab_sub.add_parser(
        "init", help="commit a campaign to a new shard queue directory"
    )
    fi_p.add_argument("queue", help="queue directory (created)")
    _fab_campaign_args(fi_p)

    fw_p = fab_sub.add_parser(
        "work", help="drain shards from a queue (one worker of a fleet)"
    )
    fw_p.add_argument("queue", help="queue directory from 'fabric init'")
    fw_p.add_argument(
        "--worker", required=True, metavar="ID",
        help="this worker's identity (letters, digits, . _ -)",
    )
    fw_p.add_argument(
        "--fault-plan", metavar="PATH",
        help="arm a deterministic fault plan in this worker",
    )
    fw_p.add_argument(
        "--no-wait", action="store_true",
        help="return when nothing is claimable instead of polling for "
        "peers' stale leases",
    )
    fw_p.add_argument(
        "--poll", type=float, default=0.2,
        help="seconds between claim attempts while waiting",
    )
    fw_p.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="stop after finalizing N shards (default: run to exhaustion)",
    )
    fw_p.add_argument(
        "--lease-ttl", type=float, default=None,
        help="override the manifest's lease TTL (testing)",
    )

    fr_p = fab_sub.add_parser(
        "run", help="init + N workers + merge, end to end"
    )
    fr_p.add_argument("queue", help="queue directory")
    fr_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker subprocesses to launch",
    )
    fr_p.add_argument("--out", default="REPORT.md", help="report path")
    fr_p.add_argument(
        "--resume", action="store_true",
        help="reuse an existing queue (after a crashed run): surviving "
        "checkpoints replay instantly, stale leases are reclaimed",
    )
    fr_p.add_argument(
        "--fault-plan", metavar="PATH",
        help="arm this fault plan in every worker",
    )
    fr_p.add_argument(
        "--trace-out", metavar="PATH",
        help="(with --trace) write the merged Chrome trace here",
    )
    _fab_campaign_args(fr_p)

    fm_p = fab_sub.add_parser(
        "merge", help="merge a drained queue into the serial report"
    )
    fm_p.add_argument("queue", help="queue directory with all shards done")
    fm_p.add_argument("--out", default="REPORT.md", help="report path")
    fm_p.add_argument(
        "--journal-out", metavar="PATH",
        help="write the merged winning-generation journal (JSONL)",
    )
    fm_p.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the merged metrics snapshot (JSON)",
    )
    fm_p.add_argument(
        "--trace-out", metavar="PATH",
        help="write the merged Chrome trace (requires a queue "
        "initialised with --trace)",
    )

    fs_p = fab_sub.add_parser(
        "status", help="show per-shard queue state"
    )
    fs_p.add_argument("queue", help="queue directory")
    fs_p.add_argument(
        "--watch", action="store_true",
        help="refresh the fleet snapshot until interrupted (or until "
        "the queue drains)",
    )
    fs_p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between --watch refreshes",
    )
    return parser


def _jobs(args: argparse.Namespace) -> int:
    """Resolve the --jobs flag (0 means one worker per CPU)."""
    if args.jobs < 0:
        raise ReproError(f"--jobs must be >= 0, got {args.jobs}")
    return args.jobs or default_jobs()


def _cmd_tables() -> int:
    print(render_table1())
    print()
    print(render_table2())
    print()
    print(render_table3())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    host = small_host(args.host_cpus) if args.host_cpus else r830_host()
    workload = _WORKLOADS[args.workload]()
    platform = make_platform(
        args.platform, instance_type(args.instance), args.mode
    )
    rng = RngFactory(seed=args.seed).fresh_stream("cli-run")
    journal = open_journal(args.journal)
    label = f"{platform.label()}/{args.instance}/{workload.name}"
    if journal.enabled:
        journal.record("run-started", label=label)
    t0 = time.perf_counter()
    result = run_once(workload, platform, host, rng=rng)
    if journal.enabled:
        c = result.counters
        extra = {"value": float(result.value)}
        if c is not None:
            extra["sched_events"] = float(c.sched_events)
            extra["migrations"] = float(c.migrations + c.wake_migrations)
        journal.record(
            "run-finished",
            label=label,
            duration=time.perf_counter() - t0,
            extra=extra,
        )
        journal.close()
    print(f"workload : {workload.name} {workload.version}")
    print(f"platform : {platform.label()} @ {args.instance} on {host.name}")
    print(f"metric   : {result.metric_name}")
    flag = "  (THRASHED: out of range)" if result.thrashed else ""
    print(f"value    : {result.value:.3f} s{flag}")
    c = result.counters
    if c is not None:
        print(
            f"counters : {c.sched_events:.0f} sched events, "
            f"{c.migrations:.0f} migrations, {c.irqs} IRQs, "
            f"{c.overhead_fraction:.1%} capacity overhead"
        )
    if args.journal:
        print(f"journal  : {args.journal}")
    return 0


def _instances_for(workload_key: str):
    if workload_key == "ffmpeg":
        return instance_types_upto(16)
    return [
        instance_type(n)
        for n in ("xLarge", "2xLarge", "4xLarge", "8xLarge", "16xLarge")
    ]


def _cmd_figure_7(args: argparse.Namespace) -> int:
    factory = RngFactory(seed=args.seed)
    inst = instance_type("4xLarge")
    print("Fig. 7: FFmpeg on a 4xLarge CN at different CHR values\n")
    for host, chr_label in ((small_host(16), "1.00"), (r830_host(), "0.14")):
        print(f"host {host.name} (CHR = {chr_label}):")
        for kind, mode in (("CN", "vanilla"), ("CN", "pinned"), ("BM", "vanilla")):
            values = [
                run_once(
                    FfmpegWorkload(),
                    make_platform(kind, inst, mode),
                    host,
                    rng=factory.fresh_stream("cli-fig7", rep=rep),
                ).value
                for rep in range(args.reps)
            ]
            mean = sum(values) / len(values)
            print(f"  {mode.capitalize()} {kind:<4s} {mean:7.2f}s")
    return 0


def _cmd_figure_8(args: argparse.Namespace) -> int:
    factory = RngFactory(seed=args.seed)
    inst = instance_type("4xLarge")
    print("Fig. 8: FFmpeg on a 4xLarge CN, multitasking effect\n")
    for label, wl in (
        ("1 Large Task", FfmpegWorkload()),
        ("30 Small Tasks", FfmpegWorkload().split(30)),
    ):
        for mode in ("vanilla", "pinned"):
            values = [
                run_once(
                    wl,
                    make_platform("CN", inst, mode),
                    r830_host(),
                    rng=factory.fresh_stream(f"cli-fig8/{label}", rep=rep),
                ).value
                for rep in range(args.reps)
            ]
            mean = sum(values) / len(values)
            print(f"  {label:<15s} {mode.capitalize():<8s} {mean:6.2f}s")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.number == "7":
        return _cmd_figure_7(args)
    if args.number == "8":
        return _cmd_figure_8(args)
    workload_key, title = _FIGURES[args.number]
    workload = _WORKLOADS[workload_key]()
    sweep = run_platform_sweep(
        workload,
        _instances_for(workload_key),
        reps=args.reps,
        seed=args.seed,
        runner=ParallelRunner(_jobs(args)),
    )
    print(render_figure(figure_from_sweep(sweep), title=title))
    print("\noverhead ratios vs Vanilla BM:")
    for label in sweep.platform_order:
        if label == "Vanilla BM":
            continue
        ratios = " ".join(f"{r:5.2f}" for r in overhead_ratios(sweep, label))
        print(f"  {label:<14s} {ratios}")
    if args.save:
        sweep.save(args.save)
        print(f"\nsaved raw sweep to {args.save}")
    if args.svg:
        from repro.viz.svg import save_sweep_svg

        save_sweep_svg(sweep, args.svg, title=title)
        print(f"rendered SVG to {args.svg}")
    return 0


def _cmd_chr(args: argparse.Namespace) -> int:
    workload = _WORKLOADS[args.workload]()
    host = r830_host()
    sweep = run_platform_sweep(
        workload,
        _instances_for(args.workload),
        reps=args.reps,
        seed=args.seed,
        runner=ParallelRunner(_jobs(args)),
    )
    band = estimate_suitable_chr_range(sweep, host)
    ratios = overhead_ratios(sweep, "Vanilla CN")
    print(f"workload          : {workload.name}")
    print(
        "vanilla-CN ratios : "
        + " ".join(
            f"{i}={r:.2f}x" for i, r in zip(sweep.instance_order, ratios)
        )
    )
    print(f"suitable CHR band : {band} (PSO vanishes at {band.vanish_instance})")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    profile = WorkloadProfile(
        cpu_duty_cycle=args.cpu_duty,
        io_intensity=args.io_intensity,
        description="user-described application",
    )
    advisor = BestPracticeAdvisor(
        host=r830_host(),
        pinning_available=not args.no_pinning,
        containers_allowed=not args.no_containers,
        vms_required=args.require_vm,
    )
    rec = advisor.recommend(profile)
    print(f"recommendation : {rec.mode.value} {rec.platform.value}")
    if rec.suggested_cores:
        print(f"sizing         : {rec.suggested_cores} cores ({rec.chr_range})")
    print(f"paper rules    : {list(rec.rules_applied) or '-'}")
    for line in rec.rationale:
        print(f"  . {line}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    host = r830_host()
    workload = _WORKLOADS[args.workload]()
    platform = make_platform(
        args.platform, instance_type(args.instance), args.mode
    )
    pred = predict_overhead_ratio(workload, platform, host)
    print(f"workload   : {workload.name}")
    print(f"platform   : {platform.label()} @ {args.instance}")
    print(f"predicted  : x{pred:.2f} vs Vanilla BM")
    if args.check:
        factory = RngFactory(seed=args.seed)
        bm = run_once(
            workload,
            make_platform("BM", instance_type(args.instance)),
            host,
            rng=factory.fresh_stream("cli-predict"),
        ).value
        sim = (
            run_once(
                workload, platform, host, rng=factory.fresh_stream("cli-predict")
            ).value
            / bm
        )
        print(f"simulated  : x{sim:.2f}")
        print(f"rel. error : {abs(pred - sim) / sim:.1%}")
    return 0


def _parse_tenant(spec: str, index: int) -> Tenant:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ReproError(
            f"tenant spec {spec!r} must be WORKLOAD:PLATFORM:MODE:INSTANCE"
        )
    wl_name, platform, mode, inst = parts
    if wl_name not in _WORKLOADS:
        raise ReproError(
            f"unknown workload {wl_name!r}; known: {sorted(_WORKLOADS)}"
        )
    return Tenant(
        workload=_WORKLOADS[wl_name](),
        platform=make_platform(platform, instance_type(inst), mode),
        label=f"{index}:{spec}",
    )


def _cmd_colocate(args: argparse.Namespace) -> int:
    tenants = [_parse_tenant(spec, i) for i, spec in enumerate(args.tenant)]
    result = run_colocated(tenants, host=r830_host())
    width = max(len(t.label) for t in tenants)
    print(f"{'tenant':<{width}s} {'isolated':>9s} {'colocated':>10s} {'slowdown':>9s}")
    for label in result.colocated:
        print(
            f"{label:<{width}s} {result.isolated[label]:8.2f}s "
            f"{result.colocated[label]:9.2f}s {result.interference(label):8.2f}x"
        )
    worst, factor = result.worst_interference()
    print(f"\nworst interference: {worst} (x{factor:.2f})")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    optimizer = PlacementOptimizer(
        cost=CostModel(dollars_per_core_hour=args.core_hour)
    )
    workload = _WORKLOADS[args.workload]()
    print(optimizer.render(workload, slo_seconds=args.slo, top_n=args.top))
    try:
        best = optimizer.best(workload, slo_seconds=args.slo)
        print(f"\nrecommended: {best.label} (${best.cost_dollars:.4f}/run)")
    except ReproError as exc:
        print(f"\n{exc}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import render_sensitivity, sensitivity_analysis

    workload = _WORKLOADS[args.workload]()
    platform = make_platform(
        args.platform, instance_type(args.instance), args.mode
    )
    print(
        f"sensitivity of {platform.label()} @ {args.instance} overhead "
        f"ratio on {workload.name} (+/-20% per constant):\n"
    )
    print(render_sensitivity(sensitivity_analysis(workload, platform)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.engine.tracing import ListTraceSink
    from repro.trace.cpudist import CpuDist
    from repro.trace.offcputime import OffCpuReport
    from repro.trace.timeline import Timeline

    workload = _WORKLOADS[args.workload]()
    platform = make_platform(
        args.platform, instance_type(args.instance), args.mode
    )
    sink = ListTraceSink() if (args.timeline or args.chrome) else None
    rng = RngFactory(seed=args.seed).fresh_stream("cli-trace")
    result = run_once(workload, platform, r830_host(), rng=rng, trace=sink)
    print(
        f"{workload.name} on {platform.label()} @ {args.instance}: "
        f"{result.value:.2f}s\n"
    )
    report = OffCpuReport.from_counters(result.counters)
    print("offcputime attribution:")
    print(report.render())
    print("\ncpudist:")
    print(CpuDist.from_counters(result.counters).render(width=30))
    if sink is not None and args.timeline:
        print("\ntimeline:")
        print(Timeline.from_events(sink.events).render(width=70))
    if args.chrome:
        from repro.obs.export import timeline_to_chrome

        trace = timeline_to_chrome(Timeline.from_events(sink.events))
        with open(args.chrome, "w") as fh:
            json.dump(trace, fh)
        print(f"\nwrote Chrome trace to {args.chrome}")
    if args.folded or args.flamegraph:
        from repro.obs.export import offcpu_to_folded

        lines = offcpu_to_folded(report, root=workload.name)
        if args.folded:
            with open(args.folded, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"wrote folded stacks to {args.folded}")
        if args.flamegraph:
            from repro.viz.flamegraph import save_flamegraph_svg

            save_flamegraph_svg(
                lines,
                args.flamegraph,
                title=f"{workload.name} on {platform.label()}",
            )
            print(f"rendered flamegraph to {args.flamegraph}")
    if args.ledger:
        from repro.analysis.ledger import OverheadLedger

        print("\noverhead ledger (coarse, counter-based):")
        print(OverheadLedger.from_counters(result.counters).check().render())
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.analysis.ledger import OverheadLedger
    from repro.trace.schedprof import SchedProfiler

    workload = _WORKLOADS[args.workload]()
    platform = make_platform(
        args.platform, instance_type(args.instance), args.mode
    )
    profiler = SchedProfiler()
    rng = RngFactory(seed=args.seed).fresh_stream("cli-perf")
    result = run_once(
        workload, platform, r830_host(), rng=rng, profiler=profiler
    )
    profile = profiler.profile()
    print(
        f"{workload.name} on {platform.label()} @ {args.instance}: "
        f"{result.value:.2f}s\n"
    )
    if args.perf_command == "timehist":
        print(profile.timehist(max_rows=args.rows))
        if args.chrome:
            from repro.obs.export import schedprof_to_chrome

            with open(args.chrome, "w") as fh:
                json.dump(schedprof_to_chrome(profile), fh)
            print(f"\nwrote Chrome trace to {args.chrome}")
        if args.folded:
            from repro.obs.export import schedprof_to_folded

            with open(args.folded, "w") as fh:
                fh.write("\n".join(schedprof_to_folded(profile)) + "\n")
            print(f"wrote folded stacks to {args.folded}")
        return 0
    if args.perf_command == "map":
        print(profile.core_map(width=args.width))
        if args.svg:
            from repro.viz.occupancy import save_occupancy_svg

            save_occupancy_svg(
                profile,
                args.svg,
                title=f"{workload.name} on {platform.label()}",
            )
            print(f"\nrendered occupancy map to {args.svg}")
        return 0

    # ledger: exact per-mechanism decomposition, conservation enforced
    ledger = OverheadLedger.from_profile(profile).check()
    print(ledger.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(ledger.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote ledger JSON to {args.json_out}")
    if args.flamegraph:
        from repro.obs.export import ledger_to_folded
        from repro.viz.flamegraph import save_flamegraph_svg

        save_flamegraph_svg(
            ledger_to_folded(ledger, root=workload.name),
            args.flamegraph,
            title=f"{workload.name} on {platform.label()} overhead ledger",
        )
        print(f"rendered ledger flamegraph to {args.flamegraph}")
    return 0


@contextmanager
def _campaign_runner(args: argparse.Namespace, trace_key: str | None = None):
    """One :class:`ParallelRunner` built from a campaign command's flags.

    Closes the tracer, then the journal, on the way out; after a clean
    run, prints which faults fired.
    """
    jobs = _jobs(args)
    if args.resume and not args.checkpoint:
        raise ReproError("--resume needs --checkpoint DIR")
    checkpoint = CellStore(args.checkpoint) if args.checkpoint else None
    plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None
    if trace_key is not None and not args.journal:
        raise ReproError(
            "--trace needs --journal (spans ride in the journal stream)"
        )
    journal = open_journal(args.journal, append=args.resume)
    tracer = None
    if trace_key is not None:
        from repro.obs.trace_spans import SpanTracer, TraceContext, mint_trace_id

        tracer = SpanTracer(journal, TraceContext(mint_trace_id(trace_key)))
    runner = ParallelRunner(
        jobs,
        journal=journal,
        checkpoint=checkpoint,
        faults=FaultInjector(plan),
        batch=args.batch,
        tracer=tracer,
    )
    try:
        yield runner
    finally:
        runner.tracer.close()
        journal.close()
    if runner.faults.fired:
        sites = ", ".join(sorted(runner.faults.fired_sites()))
        print(f"faults fired: {len(runner.faults.fired)} ({sites})")


def _cmd_report(args: argparse.Namespace) -> int:
    include = tuple(args.only) if args.only else DEFAULT_EXPERIMENTS
    if args.load_sweep and "loadcurve" not in include:
        include = (*include, "loadcurve")
    campaign = Campaign(
        reps_fast=args.reps_fast,
        reps_io=args.reps_io,
        seed=args.seed,
        include=include,
    )
    reps_policy = None
    if args.adaptive_reps:
        from repro.analysis.adaptive import AdaptiveRepsPolicy

        reps_policy = AdaptiveRepsPolicy(
            base_reps=args.adaptive_base,
            target_rel_ci=args.adaptive_target,
            round_reps=args.adaptive_round,
        )
    trace_key = None
    if args.trace:
        # Deterministic: the same campaign traced twice lands in the
        # same trace, so resumed runs extend rather than fork it.
        trace_key = f"report:{campaign.seed}:{','.join(campaign.include)}"
    with _campaign_runner(args, trace_key) as runner:
        print(f"running campaign {campaign.include} with {runner.jobs} job(s) ...")
        result = run_campaign(campaign, runner=runner, reps_policy=reps_policy)
        text = generate_report(result)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(text)} chars)")
        if args.journal:
            print(f"journal: {args.journal} (inspect with 'repro obs summary')")
        if runner.tracer.enabled:
            print(
                f"trace {runner.tracer.trace_id}: inspect with "
                f"'repro obs spans {args.journal}'"
            )
    return 0


def _cmd_loadcurve(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.rates:
        kwargs["rates"] = tuple(
            float(r) for r in args.rates.split(",") if r.strip()
        )
    config = LoadCurveConfig(
        workload=args.workload,
        n_requests=args.requests,
        reps=args.reps,
        arrivals=args.arrivals,
        knee_multiple=args.knee_multiple,
        instance=args.instance,
        **kwargs,
    )
    campaign = Campaign(
        seed=args.seed, include=("loadcurve",), loadcurve=config
    )
    with _campaign_runner(args) as runner:
        print(
            f"sweeping {config.workload} over "
            f"{','.join(f'{r:g}' for r in config.rates)} req/s "
            f"({config.arrivals} arrivals, {config.instance}, "
            f"{runner.jobs} job(s)) ..."
        )
        result = run_campaign(campaign, runner=runner)
        text = generate_report(result, title="Open-loop saturation sweep")
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(text)} chars)")
        lc = result.loadcurve
        for platform in lc.platform_order:
            knee = lc.knees[platform]
            where = (
                f"knee at {knee.knee_rate:g} req/s"
                if knee.knee_rate is not None
                else f"no knee up to {config.rates[-1]:g} req/s"
            )
            print(
                f"  {platform}: {where}, "
                f"max sustained {knee.max_sustained:.1f} req/s"
            )
        if args.knee_out:
            with open(args.knee_out, "w") as fh:
                fh.write(knee_json(lc))
            print(f"knee analysis: {args.knee_out}")
        if args.svg:
            from repro.viz.loadcurve import save_loadcurve_svg

            save_loadcurve_svg(lc, args.svg)
            print(f"curves: {args.svg}")
        if args.journal:
            print(f"journal: {args.journal} (inspect with 'repro obs dist')")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_journal

    if args.obs_command == "top":
        return _cmd_obs_top(args)
    events = read_journal(args.journal, strict=False)
    if args.obs_command == "summary":
        print(summarize_journal(events).render(top=args.top))
        return 0
    if args.obs_command == "dist":
        return _cmd_obs_dist(args, events)
    if args.obs_command == "spans":
        return _cmd_obs_spans(args, events)
    if args.obs_command == "health":
        return _cmd_obs_health(args, events)

    # export
    if args.format == "chrome":
        from repro.obs.export import journal_to_chrome

        text = json.dumps(journal_to_chrome(events))
    elif args.format == "folded":
        from repro.obs.export import journal_to_folded

        lines = journal_to_folded(events)
        text = "\n".join(lines) + "\n"
        if args.svg:
            from repro.viz.flamegraph import save_flamegraph_svg

            save_flamegraph_svg(lines, args.svg, title="campaign cells")
            print(f"rendered flamegraph to {args.svg}", file=sys.stderr)
    else:
        from repro.obs.export import journal_to_prometheus

        text = journal_to_prometheus(events)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.format} export to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_obs_dist(args: argparse.Namespace, events) -> int:
    """``repro obs dist``: tabulate / export recorded latency sketches."""
    from repro.obs.summary import summarize_journal

    summary = summarize_journal(events)
    if not summary.dists:
        raise ReproError(
            "the journal holds no cell-dist events: it records no executed "
            "cells (every cell was replayed from checkpoints)"
        )
    try:
        percentiles = tuple(
            float(p) / 100.0 for p in args.percentiles.split(",") if p.strip()
        )
    except ValueError:
        raise ReproError(
            f"--percentiles must be comma-separated numbers, "
            f"got {args.percentiles!r}"
        ) from None
    if not percentiles or any(not 0.0 <= p <= 1.0 for p in percentiles):
        raise ReproError(
            f"--percentiles must lie in (0, 100], got {args.percentiles!r}"
        )
    stream = args.stream
    if stream is None:
        # makespan-only campaigns record no per-operation responses
        stream = "op" if summary.dist_percentiles("op") else "cell"
    pct = summary.dist_percentiles(stream, percentiles)
    if not pct:
        streams = sorted({s for d in summary.dists.values() for s in d})
        raise ReproError(
            f"no observations on stream {stream!r}; recorded streams "
            f"with data: {streams}"
        )

    if args.json:
        doc = {
            "stream": stream,
            "percentiles": {
                platform: {f"{q * 100:g}": v for q, v in qs.items()}
                for platform, qs in pct.items()
            },
            "platforms": {
                platform: {
                    "streams": {
                        name: sk.to_dict()
                        for name, sk in sorted(streams.items())
                    }
                }
                for platform, streams in sorted(summary.dists.items())
            },
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        labels = [f"p{q * 100:g}" for q in percentiles]
        name_w = max(len(p) for p in pct)
        lines = [
            f"{stream} latency percentiles (simulated seconds):",
            "  " + " " * name_w + "".join(f"{lbl:>12s}" for lbl in labels)
            + "       count",
        ]
        for platform, qs in pct.items():
            count = summary.dists[platform][stream].count
            lines.append(
                f"  {platform:<{name_w}s}"
                + "".join(f"{v:12.6f}" for v in qs.values())
                + f"{count:12d}"
            )
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {stream} distributions to {args.out}")
    else:
        print(text, end="")
    if args.svg:
        from repro.viz.dist import save_dist_svg

        save_dist_svg(
            summary.dists,
            args.svg,
            stream=stream,
            percentiles=percentiles,
        )
        print(f"rendered CDFs to {args.svg}", file=sys.stderr)
    return 0


def _cmd_obs_spans(args: argparse.Namespace, events) -> int:
    """``repro obs spans``: render recorded trace spans."""
    from repro.obs.trace_spans import (
        merge_spans,
        render_span_tree,
        spans_from_journal,
        spans_to_chrome,
    )

    spans = merge_spans(spans_from_journal(events))
    if not spans:
        raise ReproError(
            "the journal holds no span events; re-run the campaign with "
            "--trace (or init the fabric queue with --trace)"
        )
    if args.format == "chrome":
        text = json.dumps(spans_to_chrome(spans, events), sort_keys=True) + "\n"
    else:
        text = render_span_tree(spans) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(spans)} span(s) to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_health(args: argparse.Namespace, events) -> int:
    """``repro obs health``: rule evaluation; exit 2 on violations."""
    from repro.obs.health import (
        default_rules,
        evaluate_health,
        load_rules,
        render_violations,
    )

    rules = load_rules(args.rules) if args.rules else default_rules()
    violations = evaluate_health(events, rules)
    print(render_violations(violations))
    return 2 if violations else 0


def _watch_fleet(queue_dir: str, *, once: bool, interval: float) -> int:
    """Shared engine of ``obs top`` and ``fabric status --watch``."""
    from repro.fabric import ShardQueue
    from repro.obs.live import FleetMonitor

    if interval <= 0:
        raise ReproError(f"--interval must be > 0, got {interval}")
    monitor = FleetMonitor(ShardQueue(queue_dir))
    while True:
        snapshot = monitor.poll()
        print(snapshot.render())
        if once or snapshot.done:
            return 0
        print()
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro obs top``: live fleet health dashboard."""
    return _watch_fleet(args.queue, once=args.once, interval=args.interval)


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.faults_command == "sites":
        width = max(len(s) for s in FAULT_SITES)
        for site in sorted(FAULT_SITES):
            print(f"{site:<{width}s}  {FAULT_SITES[site]}")
        return 0
    # plan
    sites = (
        tuple(s.strip() for s in args.sites.split(",") if s.strip())
        if args.sites
        else None
    )
    plan = FaultPlan.random(
        args.seed,
        n_faults=args.n_faults,
        sites=sites,
        abort=args.abort,
        delay=args.delay,
    )
    plan.save(args.out)
    print(
        f"wrote fault plan seed={args.seed} "
        f"sites=[{', '.join(plan.sites)}] to {args.out}"
    )
    return 0


def _fabric_campaign(args: argparse.Namespace) -> Campaign:
    lc_kwargs = {}
    if args.lc_rates:
        lc_kwargs["rates"] = tuple(
            float(r) for r in args.lc_rates.split(",") if r.strip()
        )
    return Campaign(
        reps_fast=args.reps_fast,
        reps_io=args.reps_io,
        seed=args.seed,
        include=tuple(args.only) if args.only else DEFAULT_EXPERIMENTS,
        loadcurve=LoadCurveConfig(
            workload=args.lc_workload,
            n_requests=args.lc_requests,
            reps=args.lc_reps,
            **lc_kwargs,
        ),
    )


def _fabric_print_status(queue) -> None:
    states = queue.status()
    counts: dict[str, int] = {}
    print(f"{'shard':>5s} {'state':<7s} {'gen':>3s} {'worker':<10s} age")
    for st in states:
        counts[st.state] = counts.get(st.state, 0) + 1
        age = "-" if st.heartbeat_age is None else f"{st.heartbeat_age:.1f}s"
        print(
            f"{st.shard:5d} {st.state:<7s} {st.generation:3d} "
            f"{st.worker or '-':<10s} {age}"
        )
    total = len(states)
    summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
    print(f"\n{total} shard(s): {summary}")


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.fabric import (
        ShardQueue,
        init_queue,
        launch_workers,
        run_worker,
    )

    if args.fabric_command == "init":
        queue = init_queue(
            args.queue,
            _fabric_campaign(args),
            shards=args.shards,
            lease_ttl=args.lease_ttl,
            batch=args.batch,
            trace=args.trace,
        )
        manifest = queue.manifest()
        print(
            f"initialized queue {args.queue}: {manifest['cells']} cells "
            f"in {manifest['shards']} shard(s), plan {manifest['plan']}"
        )
        if manifest.get("trace"):
            print(f"trace: {manifest['trace']}")
        print("start workers with: repro fabric work "
              f"{args.queue} --worker <id>")
        return 0

    if args.fabric_command == "work":
        faults = (
            FaultInjector(FaultPlan.load(args.fault_plan))
            if args.fault_plan
            else None
        )
        report = run_worker(
            args.queue,
            args.worker,
            jobs=_jobs(args),
            faults=faults,
            wait=not args.no_wait,
            poll=args.poll,
            max_shards=args.max_shards,
            lease_ttl=args.lease_ttl,
        )
        print(
            f"worker {report.worker}: {len(report.shards_done)} shard(s) "
            f"done ({report.cells} cells), {report.reclaims} reclaimed, "
            f"{len(report.shards_lost)} lost"
        )
        return 0

    if args.fabric_command == "run":
        queue = init_queue(
            args.queue,
            _fabric_campaign(args),
            shards=args.shards,
            lease_ttl=args.lease_ttl,
            batch=args.batch,
            trace=args.trace,
            exist_ok=args.resume,
        )
        print(
            f"launching {args.workers} worker(s) against {args.queue} ..."
        )
        procs = launch_workers(
            args.queue,
            args.workers,
            jobs=_jobs(args),
            fault_plan=args.fault_plan,
        )
        codes = [p.wait() for p in procs]
        failed = [i + 1 for i, rc in enumerate(codes) if rc != 0]
        if failed or not queue.all_done():
            for i in failed:
                print(
                    f"worker w{i} exited {codes[i - 1]}", file=sys.stderr
                )
            undone = [
                st.shard for st in queue.status() if st.state != "done"
            ]
            print(
                f"error: fabric run incomplete; shards not done: {undone}",
                file=sys.stderr,
            )
            print(
                "completed cells persist in the queue's checkpoint store — "
                "re-run with --resume to reclaim stale leases and continue",
                file=sys.stderr,
            )
            return 3
        return _fabric_merge(args.queue, args.out, trace_out=args.trace_out)

    if args.fabric_command == "merge":
        return _fabric_merge(
            args.queue,
            args.out,
            journal_out=args.journal_out,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        )

    # status
    if args.watch:
        return _watch_fleet(args.queue, once=False, interval=args.interval)
    _fabric_print_status(ShardQueue(args.queue))
    return 0


def _fabric_merge(
    queue_dir: str,
    out: str,
    *,
    journal_out: str | None = None,
    metrics_out: str | None = None,
    trace_out: str | None = None,
) -> int:
    from repro.fabric import merge_queue

    result, info = merge_queue(
        queue_dir,
        journal_out=journal_out,
        metrics_out=metrics_out,
        trace_out=trace_out,
    )
    text = generate_report(result)
    with open(out, "w") as fh:
        fh.write(text)
    print(
        f"merged {info.shards} shard(s) / {info.cells} cells from "
        f"{', '.join(info.workers)}; {info.reclaims} reclaim(s), "
        f"{info.orphan_journals} orphan journal(s)"
    )
    print(f"wrote {out} ({len(text)} chars)")
    if journal_out:
        print(f"merged journal: {journal_out} ({info.events} events)")
    if metrics_out:
        print(f"merged metrics: {metrics_out}")
    if trace_out:
        print(
            f"merged trace: {trace_out} ({info.spans} spans; load at "
            "https://ui.perfetto.dev)"
        )
    return 0


def _abort_hint(args: argparse.Namespace) -> str:
    """Where an aborted command's completed cells are, if anywhere."""
    if args.command == "fabric":
        return (
            "completed cells persist in the queue's checkpoint store — "
            "re-run the workers to continue"
        )
    if getattr(args, "checkpoint", None):
        return (
            f"completed cells persist in {args.checkpoint} — re-run with "
            "--resume to continue"
        )
    if hasattr(args, "checkpoint"):
        return (
            "no completed cells were kept — pass --checkpoint DIR to keep "
            "them across a crash"
        )
    return "no completed cells were kept"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tables":
            return _cmd_tables()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "chr":
            return _cmd_chr(args)
        if args.command == "advise":
            return _cmd_advise(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "colocate":
            return _cmd_colocate(args)
        if args.command == "place":
            return _cmd_place(args)
        if args.command == "sensitivity":
            return _cmd_sensitivity(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "perf":
            return _cmd_perf(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "loadcurve":
            return _cmd_loadcurve(args)
        if args.command == "obs":
            return _cmd_obs(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "fabric":
            return _cmd_fabric(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ParallelExecutionError, InjectedFault) as exc:
        # a crashed/aborted campaign is distinguishable from a usage
        # error; the hint says whether completed cells were kept.
        print(f"error: {exc}", file=sys.stderr)
        print(f"campaign aborted; {_abort_hint(args)}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
