"""Deterministic fault injection for crash-safe campaign testing.

The paper's result grid (4 apps x 4 platforms x 6 sizes x 2 provisioning
modes x 6-20 reps) is exactly the shape of campaign the parallel
executor fans out — and at production scale long campaigns *will* lose
workers, hit timeouts, and die mid-write.  This package makes those
failures a scheduled, replayable input instead of an act of fate:

* :class:`~repro.faults.plan.FaultPlan` — a seeded, serializable
  schedule of :class:`~repro.faults.plan.FaultSpec` records naming a
  fault site (:data:`~repro.faults.plan.FAULT_SITES`: worker kill,
  per-task timeout, transient pickle/IPC error, cache-entry corruption,
  journal truncation mid-write, disk-full during persistence) and the
  deterministic instant it fires;
* :class:`~repro.faults.inject.FaultInjector` — the runtime shim
  threaded through :mod:`repro.run.parallel`,
  :mod:`repro.run.persistence`, :mod:`repro.run.campaign`, and
  :mod:`repro.obs.journal`, so every site is exercisable without
  monkeypatching and zero-cost when unarmed.

Together with the per-cell checkpoint store
(:class:`~repro.run.persistence.CellStore`) on the campaign's runner
(``run_campaign(..., runner=ParallelRunner(checkpoint=store))``), a
campaign killed at *any* injected site resumes to a report
byte-identical to the uninterrupted run.
"""

from repro.faults.inject import NULL_INJECTOR, FaultInjector, raise_worker_fault
from repro.faults.plan import (
    FABRIC_SITES,
    FAULT_SITES,
    PARENT_SITES,
    WORKER_SITES,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FABRIC_SITES",
    "FAULT_SITES",
    "PARENT_SITES",
    "WORKER_SITES",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "NULL_INJECTOR",
    "raise_worker_fault",
]
