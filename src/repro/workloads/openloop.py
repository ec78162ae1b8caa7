"""Open-loop request-per-arrival variants of WordPress and Cassandra.

The paper's closed-loop workloads fire a fixed population at once and
report the mean drain time.  The open-loop variants here instead spawn
**one short request program per arrival** of a deterministic arrival
process (:mod:`repro.workloads.arrivals`) at a configurable offered
``rate``: when the platform keeps up, responses track the unloaded
service time; when it saturates, the queue grows and the p99/p999 tail
explodes — which is what the saturation-knee analysis
(:mod:`repro.analysis.loadcurve`) measures.

Their whole point is the per-request latency distribution, which the
run layer records for every repetition (as it does for every workload):
checkpointed open-loop cells always carry their sketches.

The request programs are scaled-down versions of the closed-loop
programs (same segment structure and IRQ story, shorter service times)
so a single xLarge-class instance saturates at rates in the hundreds of
requests per second rather than hundreds of thousands of simulated
processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.hostmodel.irq import IrqKind
from repro.hostmodel.storage import StorageModel
from repro.units import MB, MS
from repro.workloads.arrivals import arrival_process
from repro.workloads.base import (
    OpMark,
    ProcessSpec,
    ThreadSpec,
    Workload,
    WorkloadProfile,
)
from repro.workloads.segments import ComputeSegment, IoSegment, Segment

__all__ = ["OpenLoopCassandra", "OpenLoopWordPress"]


def _validate_open_loop(wl) -> None:
    if wl.n_requests < 1:
        raise WorkloadError("n_requests must be >= 1")
    if not wl.rate > 0:
        raise WorkloadError(f"rate must be > 0, got {wl.rate}")
    if wl.jitter_sigma < 0:
        raise WorkloadError("jitter_sigma must be >= 0")
    arrival_process(wl.arrivals)  # raises on unknown name


@dataclass
class OpenLoopWordPress(Workload):
    """WordPress requests arriving open-loop at ``rate`` per second.

    Parameters
    ----------
    rate:
        Offered load in requests per second.
    n_requests:
        Arrivals simulated per repetition (the latency sketches stream,
        so the count bounds simulation cost, not analysis memory).
    arrivals:
        Arrival-process name (``poisson``, ``bursty``, ``diurnal``).
    php_work / db_work:
        Core-seconds of PHP and MySQL work per request.
    net_io_time / disk_io_time:
        Unloaded device times of the socket and database IO.
    jitter_sigma:
        Log-normal sigma of per-request service-time jitter.
    """

    rate: float = 200.0
    n_requests: int = 200
    arrivals: str = "poisson"
    php_work: float = 3.5 * MS
    db_work: float = 2.0 * MS
    net_io_time: float = 0.5 * MS
    disk_io_time: float = 4.0 * MS
    jitter_sigma: float = 0.20

    name = "WordPressOpen"
    version = "5.3.2"
    metric = "mean_response"

    def __post_init__(self) -> None:
        _validate_open_loop(self)
        for attr in ("php_work", "db_work"):
            if getattr(self, attr) <= 0:
                raise WorkloadError(f"{attr} must be > 0")
        for attr in ("net_io_time", "disk_io_time"):
            if getattr(self, attr) < 0:
                raise WorkloadError(f"{attr} must be >= 0")

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.45,
            io_intensity=0.7,
            description="open-loop web serving; one short process per arrival",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        process = arrival_process(self.arrivals)
        arrivals = process.times(self.n_requests, self.rate, rng)
        jit = (
            np.exp(rng.normal(0.0, self.jitter_sigma, size=(self.n_requests, 4)))
            if self.jitter_sigma > 0
            else np.ones((self.n_requests, 4))
        )
        processes: list[ProcessSpec] = []
        for i in range(self.n_requests):
            program: list[Segment] = [
                IoSegment(
                    device_time=self.net_io_time * float(jit[i, 0]),
                    irqs=1,
                    kind=IrqKind.NET,
                ),
                ComputeSegment(
                    work=self.php_work * float(jit[i, 1]),
                    mem_intensity=0.30,
                    kernel_share=0.20,
                ),
                IoSegment(
                    device_time=self.disk_io_time * float(jit[i, 2]),
                    irqs=2,
                    kind=IrqKind.DISK,
                ),
                ComputeSegment(
                    work=self.db_work * float(jit[i, 3]),
                    mem_intensity=0.30,
                    kernel_share=0.15,
                ),
                IoSegment(
                    device_time=self.net_io_time,
                    irqs=1,
                    kind=IrqKind.NET,
                ),
            ]
            processes.append(
                ProcessSpec(
                    threads=[
                        ThreadSpec(
                            program=program,
                            arrival_time=float(arrivals[i]),
                            working_set_bytes=4 * MB,
                            name=f"wpo-req{i}",
                            op_marks=[
                                OpMark(
                                    seg_index=len(program) - 1,
                                    submitted_at=float(arrivals[i]),
                                )
                            ],
                        )
                    ],
                    name=f"wpo-req{i}",
                    memory_demand_bytes=6 * MB,
                )
            )
        return processes


@dataclass
class OpenLoopCassandra(Workload):
    """Cassandra operations arriving open-loop at ``rate`` per second.

    A scaled-down mixed read/write operation per arrival (75 % reads by
    default, like ``cassandra-stress``), each its own short process so
    the cgroup/pinning machinery sees the same per-request shape as the
    open-loop WordPress model; the storage profile keeps Cassandra's
    low-effective-concurrency random-IO character.
    """

    rate: float = 120.0
    n_requests: int = 200
    arrivals: str = "poisson"
    write_fraction: float = 0.25
    read_cpu_work: float = 6.0 * MS
    write_cpu_work: float = 4.0 * MS
    read_io_time: float = 6.0 * MS
    write_io_time: float = 3.5 * MS
    jitter_sigma: float = 0.18

    name = "CassandraOpen"
    version = "2.2"
    metric = "mean_response"

    def __post_init__(self) -> None:
        _validate_open_loop(self)
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction must be in [0, 1]")
        for attr in (
            "read_cpu_work",
            "write_cpu_work",
            "read_io_time",
            "write_io_time",
        ):
            if getattr(self, attr) <= 0:
                raise WorkloadError(f"{attr} must be > 0")

    def storage_model(self) -> StorageModel:
        """Cassandra's disk profile (random cache-missing IO, RAID1)."""
        return StorageModel(effective_concurrency=64, write_penalty=1.6)

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            cpu_duty_cycle=0.50,
            io_intensity=1.0,
            description="open-loop NoSQL operations; one process per arrival",
        )

    def build(self, n_cores: int, rng: np.random.Generator) -> list[ProcessSpec]:
        self.validate_cores(n_cores)
        process = arrival_process(self.arrivals)
        arrivals = process.times(self.n_requests, self.rate, rng)
        is_write = rng.random(self.n_requests) < self.write_fraction
        jit = (
            np.exp(rng.normal(0.0, self.jitter_sigma, size=(self.n_requests, 2)))
            if self.jitter_sigma > 0
            else np.ones((self.n_requests, 2))
        )
        processes: list[ProcessSpec] = []
        for i in range(self.n_requests):
            if is_write[i]:
                program: list[Segment] = [
                    ComputeSegment(
                        work=self.write_cpu_work * float(jit[i, 0]),
                        mem_intensity=0.35,
                        kernel_share=0.15,
                    ),
                    IoSegment(
                        device_time=self.write_io_time * float(jit[i, 1]),
                        irqs=2,
                        kind=IrqKind.DISK,
                        is_write=True,
                    ),
                ]
            else:
                program = [
                    ComputeSegment(
                        work=self.read_cpu_work * float(jit[i, 0]),
                        mem_intensity=0.35,
                        kernel_share=0.15,
                    ),
                    IoSegment(
                        device_time=self.read_io_time * float(jit[i, 1]),
                        irqs=3,
                        kind=IrqKind.DISK,
                    ),
                ]
            program.append(
                IoSegment(device_time=1.0 * MS, irqs=1, kind=IrqKind.NET)
            )
            processes.append(
                ProcessSpec(
                    threads=[
                        ThreadSpec(
                            program=program,
                            arrival_time=float(arrivals[i]),
                            working_set_bytes=8 * MB,
                            name=f"cso-op{i}",
                            op_marks=[
                                OpMark(
                                    seg_index=len(program) - 1,
                                    submitted_at=float(arrivals[i]),
                                )
                            ],
                        )
                    ],
                    name=f"cso-op{i}",
                    memory_demand_bytes=4 * MB,
                )
            )
        return processes
