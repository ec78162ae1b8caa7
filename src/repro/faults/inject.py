"""The runtime half of fault injection: arming a plan at named sites.

A :class:`FaultInjector` wraps a :class:`~repro.faults.plan.FaultPlan`
with the mutable state parent-side sites need (per-site occurrence
counters, a record of fired faults, an optional journal).  It is
threaded — always behind an ``enabled`` check, so the off path costs one
attribute read — through :class:`~repro.run.parallel.ParallelRunner`,
:class:`~repro.run.persistence.CellStore` and
:class:`~repro.obs.journal.JsonlJournal`, which makes every built-in
site exercisable without monkeypatching.

Worker-side sites never touch the injector object: the pool entry point
ships the immutable plan into the worker and evaluates
:meth:`FaultPlan.worker_fault` there (see
:func:`repro.run.parallel._pool_task`).  :func:`raise_worker_fault` is
the shared interpretation of a matched worker spec.
"""

from __future__ import annotations

import os
import time

from repro.errors import InjectedCrash, InjectedFault
from repro.faults.plan import PARENT_SITES, FaultPlan, FaultSpec

__all__ = [
    "NULL_INJECTOR",
    "FaultInjector",
    "raise_worker_fault",
]


def raise_worker_fault(
    spec: FaultSpec, label: str, *, in_pool: bool
) -> None:
    """Interpret a matched worker-site spec at the point of execution.

    * ``worker.kill`` — ``os._exit`` in a pool worker (breaking the
      pool, exactly like a real SIGKILL); an
      :class:`~repro.errors.InjectedCrash` on the inline path, aborting
      the campaign the way the death of its only process would.
    * ``task.timeout`` — sleep past the runner's timeout in a pool
      worker (the parent raises the structured timeout error); an
      immediate :class:`~repro.errors.InjectedCrash` inline, where no
      timeout collector exists.
    * ``task.error`` — raise a transient
      :class:`~repro.errors.InjectedFault` (the retryable pickle/IPC
      analog) on either path.
    """
    if spec.site == "worker.kill":
        if in_pool:
            os._exit(17)
        raise InjectedCrash(spec.site, label, "simulated worker death")
    if spec.site == "task.timeout":
        if in_pool:
            time.sleep(spec.delay)
            return
        raise InjectedCrash(spec.site, label, "simulated stuck task")
    raise InjectedFault(spec.site, label, "transient injected error")


class FaultInjector:
    """Stateful arming of a fault plan in the coordinating process.

    Parameters
    ----------
    plan:
        The schedule to arm; ``None`` builds the permanently-disabled
        no-op injector (see :data:`NULL_INJECTOR`).

    Attributes
    ----------
    enabled:
        False only for the no-op injector; every instrumented call site
        checks this first, so an unarmed run executes the exact
        pre-fault code path.
    fired:
        ``(site, label)`` pairs of every fault this injector fired in
        this process, in firing order — chaos tests assert site
        coverage on it.
    journal:
        Optional :class:`~repro.obs.journal.Journal`; fired faults are
        recorded as ``fault-injected`` events (except ``journal.truncate``
        itself, whose whole point is that the write never completes).
    tracer:
        Optional :class:`~repro.obs.trace_spans.SpanTracer`; fired
        faults additionally become zero-length ``fault`` spans, so the
        merged campaign timeline shows exactly where the chaos landed
        (``journal.truncate`` excluded, as for the journal).
    """

    def __init__(self, plan: FaultPlan | None) -> None:
        self.plan = plan or FaultPlan()
        self.enabled = plan is not None
        self.fired: list[tuple[str, str]] = []
        self.journal = None
        self.tracer = None
        self._hits: dict[str, int] = {}

    # -- bookkeeping --------------------------------------------------------

    def record(self, site: str, label: str) -> None:
        """Note a fired fault (and journal/trace it, where that is safe)."""
        self.fired.append((site, label))
        jl = self.journal
        if jl is not None and jl.enabled and site != "journal.truncate":
            jl.record("fault-injected", label=label, detail=site)
        tracer = self.tracer
        if tracer is not None and tracer.enabled and site != "journal.truncate":
            tracer.emit_leaf(
                "fault", f"{site} {label}", start=time.time(), duration=0.0,
                site=site,
            )

    def fired_sites(self) -> set[str]:
        """Distinct sites fired so far in this process."""
        return {site for site, _ in self.fired}

    # -- parent-side sites --------------------------------------------------

    def fire(self, site: str, label: str) -> FaultSpec | None:
        """Count one check of a parent-side ``site`` and match the plan.

        Returns the firing spec (after recording it) or ``None``.  Call
        sites interpret the spec — corrupt a file, raise, truncate —
        because the right wrong thing to do is site-specific.
        """
        if not self.enabled or site not in PARENT_SITES:
            return None
        self._hits[site] = self._hits.get(site, 0) + 1
        spec = self.plan.parent_fault(site, label, self._hits[site])
        if spec is not None:
            self.record(site, label)
        return spec

    def maybe_disk_full(self, label: str) -> None:
        """``disk.full`` site: raise ENOSPC-style before a write."""
        if self.fire("disk.full", label) is not None:
            raise InjectedFault("disk.full", label, "no space left on device")

    def maybe_corrupt(self, path, label: str) -> bool:
        """``cache.corrupt`` site: tear a just-written entry in half.

        Returns True when the file at ``path`` was truncated.
        """
        if self.fire("cache.corrupt", label) is None:
            return False
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        return True

    # -- worker-side sites (inline path) ------------------------------------

    def worker_fault(self, label: str, attempt: int) -> FaultSpec | None:
        """Match (and record) a worker-site fault on the inline path.

        The inline executor runs tasks in the parent process, so the
        parent's injector both matches the spec and records the firing;
        the caller then interprets it via :func:`raise_worker_fault`.
        """
        if not self.enabled:
            return None
        spec = self.plan.worker_fault(label, attempt)
        if spec is not None:
            self.record(spec.site, label)
        return spec


#: Shared no-op injector; instrumented code compares ``faults.enabled``.
NULL_INJECTOR = FaultInjector(None)
