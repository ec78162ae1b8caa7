"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses are scoped by subsystem so
that an experiment harness can distinguish a mis-specified platform from a
simulation-engine invariant violation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "AffinityError",
    "PlatformError",
    "WorkloadError",
    "SimulationError",
    "BatchPartitionError",
    "AttemptFailure",
    "ParallelExecutionError",
    "InjectedFault",
    "InjectedCrash",
    "LeaseLostError",
    "PersistenceConflictError",
    "CgroupError",
    "AnalysisError",
    "ConservationError",
]


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An experiment or calibration parameter is out of its valid domain."""


class TopologyError(ConfigurationError):
    """A host topology specification is inconsistent (e.g. zero cores)."""


class AffinityError(ConfigurationError):
    """A CPU-affinity (pinning) request cannot be satisfied by the host."""


class PlatformError(ConfigurationError):
    """An execution-platform specification is invalid or unsupported."""


class WorkloadError(ConfigurationError):
    """A workload specification is invalid (e.g. negative work)."""


class SimulationError(ReproError, RuntimeError):
    """The simulation engine detected a broken invariant at run time."""


class BatchPartitionError(SimulationError):
    """The batched engine's shape partition lost or duplicated a cell.

    Batching groups shape-compatible cells and runs the rest on the
    scalar engine.  If a cell matched no batch *and* was not routed to
    the scalar leg (or was routed twice), results would silently go
    missing from the campaign report — so the partition is checked and
    violations raise loudly instead of skipping cells."""


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt of a parallel task.

    Attributes
    ----------
    attempt:
        1-based attempt number.
    worker:
        Identity of the worker that ran the attempt (``"pid-<n>"``), or
        ``""`` when unknown (e.g. the pool broke before reporting).
    error:
        ``repr`` of the exception (or a short cause string for timeouts
        and pool breakage).
    """

    attempt: int
    worker: str
    error: str


class ParallelExecutionError(SimulationError):
    """A parallel campaign task failed permanently (retries exhausted,
    worker pool broken, or per-task timeout exceeded).

    Attributes
    ----------
    task_label:
        Human-readable identity of the failed task.
    attempts:
        How many times the task was attempted before giving up.
    reason:
        Short machine-readable cause: ``"exception"``, ``"timeout"`` or
        ``"broken-pool"``.
    failures:
        Per-attempt history (:class:`AttemptFailure` per failed
        attempt), so a failed campaign is diagnosable post-mortem.
    """

    def __init__(self, task_label: str, attempts: int, reason: str,
                 detail: str = "",
                 failures: tuple[AttemptFailure, ...] | list[AttemptFailure] = ()) -> None:
        self.task_label = task_label
        self.attempts = attempts
        self.reason = reason
        self.failures = tuple(failures)
        msg = (
            f"parallel task {task_label!r} failed after {attempts} "
            f"attempt(s) [{reason}]"
        )
        if detail:
            msg += f": {detail}"
        if self.failures:
            history = "; ".join(
                f"attempt {f.attempt}"
                + (f" on {f.worker}" if f.worker else "")
                + f": {f.error}"
                for f in self.failures
            )
            msg += f" (history: {history})"
        super().__init__(msg)


class InjectedFault(ReproError, RuntimeError):
    """A deterministic fault fired by :mod:`repro.faults`.

    Raised at the scheduled injection site in place of the real failure
    it models (transient pickle/IPC error, ENOSPC during persistence,
    ...).  Carries the site name so chaos tests can assert coverage.

    Attributes
    ----------
    site:
        The fault-site name (see :data:`repro.faults.FAULT_SITES`).
    label:
        Identity of the subject the fault hit (cell label, cache entry).
    detail:
        Optional free-form context.
    """

    def __init__(self, site: str, label: str = "", detail: str = "") -> None:
        self.site = site
        self.label = label
        self.detail = detail
        super().__init__(site, label, detail)

    def __str__(self) -> str:
        msg = f"injected fault [{self.site}]"
        if self.label:
            msg += f" at {self.label!r}"
        if self.detail:
            msg += f": {self.detail}"
        return msg


class InjectedCrash(InjectedFault):
    """A simulated process death (kill / power loss) from :mod:`repro.faults`.

    Unlike :class:`InjectedFault` this is never retried: it propagates
    straight out of the executor, aborting the campaign exactly where a
    real ``SIGKILL`` would have — so crash-safe resume can be exercised
    in-process, without actually killing the test runner.
    """


class LeaseLostError(ReproError, RuntimeError):
    """A fabric worker's shard lease vanished from under it.

    Raised by :meth:`repro.fabric.queue.ShardQueue.heartbeat` /
    :meth:`~repro.fabric.queue.ShardQueue.finalize` when the lease file
    is gone — another worker judged the lease stale and stole the shard.
    The correct reaction is to abandon the shard (its results belong to
    the thief's generation now) and claim the next one; the worker loop
    does exactly that, journaling a ``shard-lost`` event.
    """

    def __init__(self, shard: int, worker: str, detail: str = "") -> None:
        self.shard = shard
        self.worker = worker
        msg = f"worker {worker!r} lost the lease on shard {shard}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PersistenceConflictError(SimulationError):
    """Two writers produced *different* bytes for the same fingerprint.

    Content-addressed entries (cell checkpoints) are pure
    functions of their key, so two workers writing the same key must
    produce byte-identical payloads; a divergence means determinism is
    broken somewhere upstream (seed drift, version skew between
    workers), and silently letting the last write win would hide it.
    Corrupt existing entries are *not* conflicts — they are overwritten,
    preserving the resume semantics for torn writes.
    """


class CgroupError(ConfigurationError):
    """A control-group (quota / cpuset) specification is invalid."""


class AnalysisError(ReproError, ValueError):
    """Post-processing was asked to analyze inconsistent result sets."""


class ConservationError(AnalysisError):
    """An overhead-ledger decomposition failed to sum to the measured
    total core-seconds within tolerance (see
    :meth:`repro.analysis.ledger.OverheadLedger.check`)."""
