"""repro: a reproduction of "The Art of CPU-Pinning" (ICPP 2020).

The package rebuilds the paper's testbed — a many-core host running
bare-metal, KVM/QEMU VM, Docker container, and container-in-VM execution
platforms under vanilla (CPU-quota) or pinned (CPU-set) provisioning — as
a calibrated discrete-event simulation, together with models of the four
studied applications (FFmpeg, MPI, WordPress, Cassandra), the experiment
harness, and the analysis layer (overhead ratios, PTO/PSO decomposition,
CHR ranges, best-practice advisor).

Quickstart
----------
>>> from repro import (
...     Calibration, FfmpegWorkload, instance_type, make_platform, r830_host,
...     run_once,
... )
>>> platform = make_platform("CN", instance_type("4xLarge"), "pinned")
>>> result = run_once(FfmpegWorkload(), platform, r830_host())
>>> result.value > 0
True
"""

from repro.analysis.bestpractices import BestPracticeAdvisor, Recommendation
from repro.analysis.chr import chr_of, estimate_suitable_chr_range
from repro.analysis.figures import FigureSeries, figure_from_sweep, render_figure
from repro.analysis.model import predict_overhead_ratio
from repro.analysis.overhead import (
    classify_overhead,
    overhead_ratio,
    overhead_ratios,
)
from repro.analysis.stats import bootstrap_ci, confidence_interval, summarize
from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.hostmodel.topology import (
    HostTopology,
    make_host,
    r830_host,
    small_host,
)
from repro.platforms.base import ExecutionPlatform, PlatformKind
from repro.platforms.provisioning import (
    INSTANCE_TYPES,
    InstanceType,
    instance_type,
    instance_type_names,
    instance_types_upto,
)
from repro.platforms.registry import make_platform, paper_platform_set
from repro.run.calibration import Calibration
from repro.analysis.energy import EnergyModel
from repro.run.campaign import Campaign, run_campaign
from repro.run.colocation import ColocationResult, Tenant, run_colocated
from repro.run.distributed import run_mpi_cluster
from repro.run.execution import run_once
from repro.run.experiment import (
    ExperimentSpec,
    platform_sweep_spec,
    run_experiment,
    run_platform_sweep,
)
from repro.obs import (
    JournalEvent,
    JsonlJournal,
    MemoryJournal,
    MetricsRegistry,
    NullJournal,
    RunSummary,
    open_journal,
    read_journal,
    summarize_journal,
)
from repro.faults import FAULT_SITES, FaultInjector, FaultPlan, FaultSpec
from repro.run.parallel import CachedCell, ParallelRunner, default_jobs
from repro.run.persistence import CellStore
from repro.run.results import ExperimentResult, RunResult, SweepResult
from repro.sched.affinity import ProvisioningMode
from repro.workloads import (
    CassandraWorkload,
    DistributedMpiWorkload,
    FfmpegWorkload,
    MpiPrimeWorkload,
    MpiSearchWorkload,
    SyntheticWorkload,
    WordPressWorkload,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hosts
    "HostTopology",
    "r830_host",
    "small_host",
    "make_host",
    # platforms
    "ExecutionPlatform",
    "PlatformKind",
    "ProvisioningMode",
    "InstanceType",
    "INSTANCE_TYPES",
    "instance_type",
    "instance_type_names",
    "instance_types_upto",
    "make_platform",
    "paper_platform_set",
    # workloads
    "Workload",
    "FfmpegWorkload",
    "MpiSearchWorkload",
    "MpiPrimeWorkload",
    "DistributedMpiWorkload",
    "WordPressWorkload",
    "CassandraWorkload",
    "SyntheticWorkload",
    # running
    "Calibration",
    "run_once",
    "ExperimentSpec",
    "platform_sweep_spec",
    "run_experiment",
    "run_platform_sweep",
    "ParallelRunner",
    "CachedCell",
    "default_jobs",
    "CellStore",
    # fault injection / resume
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    # observability
    "JournalEvent",
    "JsonlJournal",
    "MemoryJournal",
    "NullJournal",
    "open_journal",
    "read_journal",
    "RunSummary",
    "summarize_journal",
    "MetricsRegistry",
    "Tenant",
    "ColocationResult",
    "run_colocated",
    "run_mpi_cluster",
    "Campaign",
    "run_campaign",
    "EnergyModel",
    "RunResult",
    "ExperimentResult",
    "SweepResult",
    # analysis
    "confidence_interval",
    "bootstrap_ci",
    "summarize",
    "overhead_ratio",
    "overhead_ratios",
    "classify_overhead",
    "chr_of",
    "estimate_suitable_chr_range",
    "predict_overhead_ratio",
    "BestPracticeAdvisor",
    "Recommendation",
    "figure_from_sweep",
    "render_figure",
    "FigureSeries",
    "render_table1",
    "render_table2",
    "render_table3",
]
