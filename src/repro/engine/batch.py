"""Batched multi-cell execution: many shape-compatible simulations in
lock-step vectorized waves.

A campaign evaluates hundreds of *cells* that differ only in one knob —
platform overheads, CHR, seed, instance size — while sharing the same
compiled-program *shape* (identical segment kinds and per-thread segment
layout).  The scalar :class:`~repro.engine.simulator.Simulator` advances
one cell at a time, paying the interpreted-Python cost of every step per
cell.  :class:`BatchSimulator` stacks each cell's packed runnable set
(:class:`~repro.engine.calendar.RunnableIndex`: slot tids, remaining
work, platform penalty, contention coefficient) and the per-thread
segment pointers and pending re-warm work of B such cells into
``(B, n_threads)`` tables and advances all of them together, one *wave*
per iteration:

* the per-cell processor-sharing rate step (the hot loop's step 3/4) is
  computed for every cell of the wave with a handful of vectorized numpy
  expressions over the slots ``[:, :W]``, where ``W`` is the largest
  runnable count in the wave and lanes past a cell's own count are
  masked off;
* everything order-sensitive — wake-up delivery, barrier cascades,
  disk-queue feedback, segment transitions — runs through the *existing*
  scalar methods (``_advance``, ``_issue_io``), which keep working
  because each cell's ``Simulator`` and runnable set are rebound to row
  views of the stacked tables.

Cells are **not** synchronized in simulated time: each keeps its own
clock and event calendar, and a wave simply advances every cell by its
*own* next step.  Because every floating-point operation happens in the
same order on the same operands as the scalar loop (elementwise numpy
arithmetic is IEEE-identical per lane), the per-cell results are
**bit-for-bit identical** to running each cell alone.

Divergence and fallback
-----------------------
A cell leaves the wave ("diverges") when it can no longer be advanced
vectorized: it finishes, it hits an engine guard (deadlock, time limit),
or it is the last cell standing.  Divergent cells are *ejected*: their
accumulated counters are flushed back and the cell finishes on the
scalar ``Simulator.run()``, which continues exactly where the batch loop
stopped.  Cells that never qualified (traced, profiled, multi-group, or
unique shape) never enter a batch and run scalar from the start.

The partition of cells into batches + scalar leftovers is *checked*:
losing or duplicating a cell raises :class:`BatchPartitionError` instead
of silently dropping results (see :func:`run_batched`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.compile import KIND_COMPUTE
from repro.engine.simulator import (
    _CAUSE_IO,
    _EPS,
    _PRE,
    EngineResult,
    Simulator,
)
from repro.engine.tracing import NullTraceSink
from repro.errors import BatchPartitionError, SimulationError

__all__ = [
    "BatchSimulator",
    "batch_eligible",
    "partition_sims",
    "run_batched",
    "sim_shape_key",
]

# Accumulator planes for the counter fields charged by the rate step
# (simulator run() step 4).  These fields are touched *only* there, so
# they can accumulate in (B,)-arrays and be written back by assignment;
# every other counter (irqs, wake_migrations, blocked-seconds, the
# timeslice histogram) is written by the scalar advance paths directly.
_A_BUSY = 0
_A_USEFUL = 1
_A_EVENTS = 2
_A_MIG = 3
_A_CTX = 4
_A_CGROUP = 5
_A_MIGTIME = 6
_A_BG = 7
_A_WAIT = 8
_N_ACC = 9

# Rate-record planes, gathered per (cell, runnable-count):
# cfac, mig, num, busy, ev, useful, steady, background, migfac, wait
# (the _sg_record tuple minus the timeslice key and the raw share).
_N_REC = 10

# "never touched" sentinel of the timeslice first-touch table
_IT_MAX = np.iinfo(np.int64).max


def batch_eligible(sim: Simulator) -> bool:
    """True when ``sim`` may run inside a :class:`BatchSimulator`.

    Batching replays only the single-group uniform-weight fast path and
    cannot interleave per-event callbacks, so traced or profiled sims
    (and multi-group / weighted ones) must run scalar.
    """
    return (
        sim._single
        and type(sim.trace) is NullTraceSink
        and sim._profiler is None
    )


def sim_shape_key(sim: Simulator) -> tuple | None:
    """Structural fingerprint of a simulation, or ``None`` if ineligible.

    Two sims share a key exactly when their compiled programs have the
    same thread count and per-thread segment-kind layout — the condition
    for their dynamic state to stack into rectangular ``(B, n)`` tables.
    Work amounts, penalties and durations may differ freely.  The key
    reuses the digests :func:`~repro.engine.compile.compile_programs`
    took when it shared the ``kind`` and ``seg_base`` columns.
    """
    if not batch_eligible(sim):
        return None
    return (sim.n_threads, sim._compiled._layout)


def partition_sims(
    sims: list[Simulator], *, min_batch: int = 2
) -> tuple[list[list[int]], list[int]]:
    """Partition sim indices into batchable groups and a scalar remainder.

    Returns ``(batches, scalar)`` where each batch holds >= ``min_batch``
    indices of shape-identical eligible sims and ``scalar`` holds every
    other index (ineligible, or a shape matched by no peer).  The
    partition is validated: every input index must land in exactly one
    output slot, else :class:`BatchPartitionError` is raised — a cell
    must *explicitly* fall back to the scalar engine, never be skipped.
    """
    groups: dict[tuple, list[int]] = {}
    scalar: list[int] = []
    for i, sim in enumerate(sims):
        key = sim_shape_key(sim)
        if key is None:
            scalar.append(i)
        else:
            groups.setdefault(key, []).append(i)
    batches: list[list[int]] = []
    for idxs in groups.values():
        if len(idxs) >= min_batch:
            batches.append(idxs)
        else:
            scalar.extend(idxs)
    scalar.sort()
    seen: set[int] = set(scalar)
    count = len(scalar)
    for idxs in batches:
        seen.update(idxs)
        count += len(idxs)
    if count != len(sims) or seen != set(range(len(sims))):
        raise BatchPartitionError(
            f"batch partition covered {count} slot(s) over {len(seen)} "
            f"distinct cell(s), expected {len(sims)}"
        )
    return batches, scalar


def run_batched(sims: list[Simulator]) -> list[EngineResult]:
    """Run every sim to completion, batching shape-compatible ones.

    Results are returned in input order and are bit-for-bit identical to
    ``[s.run() for s in sims]``.  Sims that match no batch run on the
    scalar engine; a partition that would lose a cell raises
    :class:`BatchPartitionError`.
    """
    batches, scalar = partition_sims(sims)
    results: list[EngineResult | None] = [None] * len(sims)
    for idxs in batches:
        out = BatchSimulator([sims[i] for i in idxs]).run()
        for i, res in zip(idxs, out):
            results[i] = res
    for i in scalar:
        results[i] = sims[i].run()
    missing = [i for i, res in enumerate(results) if res is None]
    if missing:
        raise BatchPartitionError(
            f"batched execution produced no result for cell(s) {missing}"
        )
    return results  # type: ignore[return-value]


class BatchSimulator:
    """Advance B shape-identical simulations in lock-step waves.

    The constructor *adopts* the given fresh sims: their runnable sets
    and vectorized per-thread arrays are restacked into ``(B, n)``
    tables and each sim's attributes are rebound to row views, so the
    scalar advance methods keep mutating shared storage.  After
    :meth:`run` the sims are fully consistent scalar simulators again
    (ejected cells in fact finish via ``Simulator.run()``).

    Attributes
    ----------
    ejected:
        Indices (into the constructor's list) of cells that diverged
        from the wave and finished on the scalar engine.
    """

    def __init__(self, sims: list[Simulator]) -> None:
        if not sims:
            raise BatchPartitionError("cannot batch zero simulations")
        key0 = sim_shape_key(sims[0])
        if key0 is None:
            raise BatchPartitionError(
                "batch-ineligible simulation (traced, profiled, or "
                "multi-group) passed to BatchSimulator"
            )
        for sim in sims:
            if sim.t != 0.0 or sim.n_done != 0:
                raise BatchPartitionError(
                    "BatchSimulator requires fresh simulations "
                    f"(got t={sim.t}, n_done={sim.n_done})"
                )
            if sim_shape_key(sim) != key0:
                raise BatchPartitionError(
                    "shape-incompatible simulations in one batch"
                )
        self.sims = sims
        B = len(sims)
        n = sims[0].n_threads
        self.n_threads = n

        # Per-thread state the vectorized phases write (segment pointer,
        # pending re-warm work) and each cell's packed runnable set
        # (slot tids and the rate-step state of each slot), stacked with
        # a leading cell axis.  Each sim is rebound onto its row views,
        # so the scalar advance methods keep mutating shared storage.
        self._SP = np.stack([s.seg_ptr for s in sims])
        self._PE = np.stack([s.pending_extra for s in sims])
        self._TID = np.stack([s._index.tids for s in sims])
        self._REM = np.stack([s._index.rem for s in sims])
        self._PP = np.stack([s._index.pp for s in sims])
        self._GM = np.stack([s._index.gm for s in sims])
        for b, sim in enumerate(sims):
            sim.seg_ptr = self._SP[b]
            sim.pending_extra = self._PE[b]
            index = sim._index
            index.tids = self._TID[b]
            index.rem = self._REM[b]
            index.pp = self._PP[b]
            index.gm = self._GM[b]
        self._lanes = np.arange(n)

        # Per-cell scalars of the rate step.
        self._th = np.array([s._thrash0 for s in sims])
        self._pmig = np.array([s._p_mig0 for s in sims])
        self._ctx = np.array([s._ctx_cost for s in sims])
        self._cgsw = np.array([s._cgsw0 for s in sims])
        self._maxt = np.array([s.max_time for s in sims])
        self._maxsteps = np.array([s.max_steps for s in sims], dtype=np.int64)
        self._gamma_v = np.array([s._gamma for s in sims])

        # Compiled-program columns.  The kind layout and segment offsets
        # are identical across the batch (that is the shape key); the
        # per-row values (work, mem, penalty, marks) differ per cell and
        # are stacked with flat views for the cross-cell advance path.
        c0 = sims[0]._compiled
        self._kindv = np.asarray(c0.kind)
        self._segbase = np.asarray(c0.seg_base)
        self._CW = np.stack([np.asarray(s._compiled.work) for s in sims])
        self._CM = np.stack([np.asarray(s._compiled.mem) for s in sims])
        self._CP = np.stack([np.asarray(s._compiled.pp) for s in sims])
        self._MM = np.stack(
            [np.asarray(s._compiled.mark_mask) for s in sims]
        )
        self._total_rows = self._CW.shape[1]
        self._CWf = self._CW.reshape(-1)
        self._CMf = self._CM.reshape(-1)
        self._CPf = self._CP.reshape(-1)
        self._MMf = self._MM.reshape(-1)

        # Flat views of the stacked dynamic state (np.stack yields
        # C-contiguous arrays, so these alias the same storage): the
        # per-thread planes are indexed by cell * n + tid, the slot
        # planes by cell * n + slot.
        self._SPf = self._SP.reshape(-1)
        self._PEf = self._PE.reshape(-1)
        self._TIDf = self._TID.reshape(-1)
        self._REMf = self._REM.reshape(-1)
        self._PPf = self._PP.reshape(-1)
        self._GMf = self._GM.reshape(-1)

        # Rate records per (cell, runnable count), filled lazily from
        # each sim's own _sg_record so a gather replays the same bits.
        self._rec = np.zeros((_N_REC, B, n + 1))
        self._rec_ok = np.zeros((B, n + 1), dtype=bool)

        # Timeslice-histogram accumulation.  The scalar loop adds one
        # histogram term per step; here the busy weights accumulate per
        # (cell, key id) with one ``np.add.at`` per wave — the same
        # chronological addition order per key, so the final dict values
        # are bit-identical.  First-touch step numbers reproduce the
        # scalar dict's insertion order, and two runnable-counts with one
        # key share one accumulator slot (exactly the scalar collision
        # behaviour).
        self._tsb = np.zeros((B, n + 1))
        self._ts_first = np.full((B, n + 1), _IT_MAX, dtype=np.int64)
        self._ts_kid: list[dict[float, int]] = [dict() for _ in range(B)]
        self._ts_keys: list[list[float]] = [[] for _ in range(B)]
        self._kid = np.zeros((B, n + 1), dtype=np.int64)

        # Per-cell clocks, step counts, accumulators, cached next-wake
        # and cached runnable counts (both refreshed only after the
        # scalar paths that can change them).
        self._t = np.zeros(B)
        self._steps = np.zeros(B, dtype=np.int64)
        self._acc = np.zeros((_N_ACC, B))
        self._nwv = np.array([s._calendar.next_time() for s in sims])
        self._nrc = np.array(
            [s._index.count for s in sims], dtype=np.int64
        )
        self._it = 0

        self.ejected: list[int] = []

    # ------------------------------------------------------------------

    def _fill_rec(self, b: int, n_run: int) -> None:
        sim = self.sims[b]
        rec = sim._sg_cache.get(n_run)
        if rec is None:
            rec = sim._sg_record(n_run)
        (cfac, mig, num, busy, ev, useful, steady, bg, migfac, key,
         _share, wait) = rec
        self._rec[:, b, n_run] = (
            cfac, mig, num, busy, ev, useful, steady, bg, migfac, wait
        )
        self._rec_ok[b, n_run] = True
        kid_of = self._ts_kid[b]
        kid = kid_of.get(key)
        if kid is None:
            kid = len(kid_of)
            kid_of[key] = kid
            self._ts_keys[b].append(key)
        self._kid[b, n_run] = kid

    def _flush(self, b: int) -> None:
        """Write cell ``b``'s accumulated state back onto its sim."""
        sim = self.sims[b]
        cnt = sim.counters
        acc = self._acc
        cnt.busy_core_seconds = float(acc[_A_BUSY, b])
        cnt.useful_core_seconds = float(acc[_A_USEFUL, b])
        cnt.sched_events = float(acc[_A_EVENTS, b])
        cnt.migrations = float(acc[_A_MIG, b])
        cnt.ctx_switch_time = float(acc[_A_CTX, b])
        cnt.cgroup_time = float(acc[_A_CGROUP, b])
        cnt.migration_time = float(acc[_A_MIGTIME, b])
        cnt.background_time = float(acc[_A_BG, b])
        cnt.sched_wait_seconds = float(acc[_A_WAIT, b])
        first = self._ts_first[b]
        keys = self._ts_keys[b]
        touched = [kid for kid in range(len(keys)) if first[kid] != _IT_MAX]
        touched.sort(key=lambda kid: first[kid])
        for kid in touched:
            cnt.add_timeslice(keys[kid], float(self._tsb[b, kid]))
        sim.t = float(self._t[b])

    def _eject(self, b: int) -> EngineResult:
        """Flush cell ``b`` and finish it on the scalar engine."""
        self._flush(b)
        self.ejected.append(b)
        return self.sims[b].run()

    # ------------------------------------------------------------------

    def run(self) -> list[EngineResult]:
        """Run every cell to completion; results in constructor order."""
        sims = self.sims
        n = self.n_threads
        T = self._t
        NW = self._nwv
        steps = self._steps
        nrc = self._nrc
        SB = self._segbase
        KV = self._kindv
        total_rows = self._total_rows
        results: list[EngineResult | None] = [None] * len(sims)
        live = np.arange(len(sims), dtype=np.int64)

        while live.size:
            if live.size == 1:
                # Last cell standing: the wave machinery costs more than
                # it saves, so the straggler diverges to the scalar loop.
                b = int(live[0])
                results[b] = self._eject(b)
                break

            self._it += 1
            done_now: list[int] = []

            # Phase A: vectorized step guard and due-event screen; only
            # cells with a due wake-up (or an empty runnable set) run
            # the scalar delivery / time-jump paths (steps 1-2 of the
            # scalar loop).  A delivered cell sits this wave out.
            steps[live] += 1
            over_s = steps[live] > self._maxsteps[live]
            if over_s.any():
                b = int(live[int(np.argmax(over_s))])
                sim = sims[b]
                raise SimulationError(
                    f"exceeded {sim.max_steps} engine steps "
                    f"at t={float(T[b]):.3f}s"
                )
            due_m = NW[live] <= T[live] + _EPS
            if due_m.any():
                for b in live[due_m].tolist():
                    sim = sims[b]
                    tb = float(T[b])
                    cal = sim._calendar
                    due = cal.pop_due(tb + _EPS)
                    state = sim.state
                    blocked_cause = sim.blocked_cause
                    is_disk_io = sim.is_disk_io
                    wake = sim.wake
                    for j in due:
                        if state[j] != _PRE and blocked_cause[j] == _CAUSE_IO:
                            if is_disk_io[j]:
                                sim.outstanding_disk -= 1
                        wake[j] = math.inf
                        sim._advance(j, tb)
                    NW[b] = cal.next_time()
                    nrc[b] = sim._index.count
                    if due and sim.n_done == sim.n_threads:
                        self._flush(b)
                        results[b] = sim._build_result()
                        done_now.append(b)
            wave_m = ~due_m & (nrc[live] > 0)
            idle = live[~due_m & (nrc[live] == 0)]
            for b in idle.tolist():
                if not math.isfinite(NW[b]):
                    # Deadlock: eject so the scalar loop raises its own
                    # (identical) diagnostic.
                    results[b] = self._eject(b)
                    raise SimulationError("unreachable")  # pragma: no cover
                T[b] = max(float(T[b]), float(NW[b]))

            # Phase B: the vectorized rate step (scalar steps 3-4) for
            # every wave cell at once.
            w = live[wave_m]
            if w.size:
                nr = nrc[w]
                need = ~self._rec_ok[w, nr]
                if need.any():
                    for b, k in zip(w[need].tolist(), nr[need].tolist()):
                        self._fill_rec(b, int(k))
                g = self._rec[:, w, nr]
                # the packed slots [:W] of the fullest cell cover every
                # cell's runnable set; lanes past a cell's count are off
                W = int(nr.max())
                lane = self._lanes[:W] < nr[:, None]
                R = self._REM[w, :W]
                cont = 1.0 + self._GM[w, :W] * g[0][:, None]
                slow = self._PP[w, :W] * cont
                slow *= g[1][:, None]
                slow *= self._th[w][:, None]
                rate = g[2][:, None] / slow
                ttf = np.divide(
                    R, rate, out=np.full_like(R, np.inf), where=lane
                )
                dt_fin = ttf.min(axis=1)
                dt = np.minimum(dt_fin, NW[w] - T[w])
                dt = np.where(dt < 0.0, 0.0, dt)
                pos = dt > 0.0
                if pos.any():
                    upd = R - rate * dt[:, None]
                    np.copyto(R, upd, where=lane & pos[:, None])
                    self._REM[w, :W] = R
                    busy_dt = g[3] * dt
                    events = g[4] * dt
                    acc = self._acc
                    acc[_A_BUSY, w] += busy_dt
                    acc[_A_USEFUL, w] += g[5] * dt
                    acc[_A_EVENTS, w] += events
                    acc[_A_MIG, w] += events * self._pmig[w]
                    acc[_A_CTX, w] += events * self._ctx[w]
                    acc[_A_CGROUP, w] += g[6] * dt + events * self._cgsw[w]
                    acc[_A_MIGTIME, w] += busy_dt * g[8]
                    acc[_A_BG, w] += g[7] * dt
                    acc[_A_WAIT, w] += g[9] * dt
                    wp = w[pos]
                    kidv = self._kid[wp, nr[pos]]
                    np.add.at(self._tsb, (wp, kidv), busy_dt[pos])
                    np.minimum.at(self._ts_first, (wp, kidv), self._it)
                    T[w] += dt
                    over_t = T[w] > self._maxt[w]
                    if over_t.any():
                        b = int(w[int(np.argmax(over_t))])
                        sim = sims[b]
                        raise SimulationError(
                            f"exceeded max simulation time {sim.max_time}s "
                            f"({sim.n_done}/{sim.n_threads} threads done)"
                        )

                # Phase C: completed compute segments (scalar step 5).
                # An unmarked compute segment whose successor is another
                # compute segment transitions with pure per-thread and
                # per-slot array writes — no calendar, index, counter or
                # shared-state effects; the thread keeps its slot — so
                # those advance vectorized across all wave cells at once
                # through the flat views.  Everything else (thread done,
                # IO/comm issue, barriers, marked ops) runs the existing
                # order-sensitive scalar path, per cell in ascending tid
                # order as the scalar loop visits them.
                fin = ttf <= (dt + _EPS)[:, None]
                kc, ks = np.nonzero(fin)
                if kc.size:
                    bs = w[kc]
                    slot = bs * n + ks
                    js = self._TIDf[slot]
                    flat = bs * n + js
                    ptr = self._SPf[flat]
                    rows = SB[js] + ptr
                    nrows = rows + 1
                    not_end = nrows < SB[js + 1]
                    fast = (
                        not_end
                        & ~self._MMf[bs * total_rows + rows]
                        & (KV[np.where(not_end, nrows, 0)] == KIND_COMPUTE)
                    )
                    if fast.any():
                        fe = flat[fast]
                        fs = slot[fast]
                        fr = bs[fast] * total_rows + nrows[fast]
                        self._SPf[fe] = ptr[fast] + 1
                        self._REMf[fs] = self._CWf[fr] + self._PEf[fe]
                        self._PEf[fe] = 0.0
                        self._PPf[fs] = self._CPf[fr]
                        self._GMf[fs] = self._gamma_v[bs[fast]] * self._CMf[fr]
                    if not fast.all():
                        slow_i = np.nonzero(~fast)[0]
                        tids_of: dict[int, list[int]] = {}
                        for b, j in zip(
                            bs[slow_i].tolist(), js[slow_i].tolist()
                        ):
                            tids_of.setdefault(b, []).append(j)
                        for b, tids_b in tids_of.items():
                            tids_b.sort()
                            sim = sims[b]
                            tb = float(T[b])
                            for j in tids_b:
                                sim._advance(j, tb)
                            NW[b] = sim._calendar.next_time()
                            nrc[b] = sim._index.count
                            if sim.n_done == sim.n_threads:
                                self._flush(b)
                                results[b] = sim._build_result()
                                done_now.append(b)

            if done_now:
                gone = set(done_now)
                live = np.array(
                    [b for b in live.tolist() if b not in gone],
                    dtype=np.int64,
                )

        missing = [b for b, res in enumerate(results) if res is None]
        if missing:  # pragma: no cover - loop invariant
            raise BatchPartitionError(
                f"batch loop finished without results for cells {missing}"
            )
        return results  # type: ignore[return-value]
