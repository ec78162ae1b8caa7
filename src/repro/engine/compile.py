"""Program compiler: columnar segment tables for the engine hot path.

The simulator's inner loop used to re-discover each segment at every
transition — ``isinstance`` dispatch, attribute loads, and per-event
platform-penalty calls.  All of that is a pure function of the thread
programs and the deployment's overhead constants, so it can be evaluated
once, up front.  :func:`compile_programs` flattens every thread's segment
list into one set of columnar numpy tables indexed by
``seg_base[tid] + seg_ptr``:

* ``kind`` — segment kind code (:data:`KIND_COMPUTE` … :data:`KIND_BARRIER`);
* compute columns — ``work``, ``mem`` and the *precomputed* per-group
  platform penalty ``pp``;
* IO columns — write-penalty-adjusted device time, the fully precomputed
  duration of network IO, the group's IO scale factor, the fixed IRQ
  latency term, IRQ counts and the expected re-warm work / wake-migration
  increments per issue;
* comm columns — the fully precomputed exchange duration (local or
  remote path);
* barrier columns — an index into the interned rendezvous-key table;
* mark columns — a boolean mask plus submission times for marked
  operations, replacing per-thread dict lookups.

Every precomputed value is produced by evaluating *exactly the same
floating-point expression* the interpreted engine evaluated per event,
on the same operands, so compiled runs are bit-for-bit identical to the
historical per-segment dispatch.

Every column is *shared*: a module-level weak table keyed by (column
name, dtype, length, blake2b digest of the bytes) hands out one
read-only array per distinct column, so the many simulations of a
campaign that compile bitwise-identical columns (every platform of a
rep, every rate of a load-curve ladder under common random numbers)
hold one copy between them.  A column leaves the table when the last
simulation holding it is released.  Each shared column carries one
tuple mirror: the scalar advance path reads single elements, and plain
``float`` access through a tuple is several times faster than numpy
scalar indexing while remaining IEEE-identical.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.hostmodel.irq import IrqKind
from repro.hostmodel.network import NetworkModel
from repro.hostmodel.storage import StorageModel
from repro.workloads.segments import (
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    IoSegment,
    Segment,
)

__all__ = [
    "KIND_COMPUTE",
    "KIND_IO",
    "KIND_COMM",
    "KIND_BARRIER",
    "CompiledPrograms",
    "compile_programs",
]

# segment kind codes (values stored in CompiledPrograms.kind)
KIND_COMPUTE = 0
KIND_IO = 1
KIND_COMM = 2
KIND_BARRIER = 3


def _barrier_key(pidx: int, seg: BarrierSegment) -> tuple[int, int]:
    """Rendezvous key: global barriers share one namespace (-1)."""
    return (-1 if seg.scope == "global" else pidx, seg.barrier_id)


# Shared columns: key -> (weak reference to the read-only array, its
# tuple mirror).  An entry lives exactly as long as its array.
_COLUMNS: dict[tuple, tuple[weakref.ref, tuple]] = {}


def _release(key: tuple, ref: weakref.ref) -> None:
    entry = _COLUMNS.get(key)
    if entry is not None and entry[0] is ref:
        del _COLUMNS[key]


def _share(name: str, col: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
    """The shared copy of ``col``: ``(array, tuple mirror, key)``.

    A live column with the same key and the same bytes is reused;
    otherwise ``col`` is frozen and registered under the key.  Bytes are
    compared through a ``uint8`` view, so sharing is bitwise (``-0.0``
    and NaN payloads included).
    """
    key = (
        name,
        col.dtype.str,
        col.size,
        hashlib.blake2b(col.data, digest_size=32).digest(),
    )
    entry = _COLUMNS.get(key)
    if entry is not None:
        shared = entry[0]()
        if shared is not None and np.array_equal(
            shared.view(np.uint8), col.view(np.uint8)
        ):
            return shared, entry[1], key
    col.flags.writeable = False
    mirror = tuple(col.tolist())
    _COLUMNS[key] = (weakref.ref(col, partial(_release, key)), mirror)
    return col, mirror, key


@dataclass
class CompiledPrograms:
    """Columnar tables over all segments of all threads.

    Segment ``p`` of thread ``tid`` lives at flat row
    ``seg_base[tid] + p``; a thread's rows are contiguous and end at
    ``seg_base[tid + 1]``.  Columns not applicable to a row's kind hold
    zeros.  The columns are shared, read-only arrays; the ``*_l``
    attributes are their tuple mirrors for fast scalar access.
    """

    n_threads: int
    n_segments: int
    seg_base: np.ndarray  # int64, n_threads + 1 (prefix offsets)
    kind: np.ndarray  # int8
    work: np.ndarray  # float64: compute core-seconds
    mem: np.ndarray  # float64: compute mem_intensity
    pp: np.ndarray  # float64: per-group platform compute penalty
    io_disk: np.ndarray  # bool
    io_base: np.ndarray  # float64: device time, write penalty applied
    io_raw: np.ndarray  # float64: unscaled device time (custom storage)
    io_write: np.ndarray  # bool: disk IO is a write
    io_net_dur: np.ndarray  # float64: full duration of non-disk IO
    io_scale: np.ndarray  # float64: io_factor * thrash of the group
    io_fixed: np.ndarray  # float64: irqs * irq_latency of the group
    io_irqs: np.ndarray  # int64
    io_extra: np.ndarray  # float64: irqs * wake_extra_work of the group
    io_wakemig: np.ndarray  # float64: irqs * wake_migration_probability
    comm_dur: np.ndarray  # float64: full exchange duration
    bar_key: np.ndarray  # int32: index into bar_keys (-1 otherwise)
    bar_keys: list[tuple[int, int]]
    mark_mask: np.ndarray  # bool: segment completes a marked operation
    mark_submit: np.ndarray  # float64: submission time of the mark
    barrier_participants: dict[tuple[int, int], int] = field(
        default_factory=dict
    )

    # tuple mirrors (shared with the columns)
    seg_base_l: tuple[int, ...] = ()
    kind_l: tuple[int, ...] = ()
    work_l: tuple[float, ...] = ()
    mem_l: tuple[float, ...] = ()
    pp_l: tuple[float, ...] = ()
    io_disk_l: tuple[bool, ...] = ()
    io_base_l: tuple[float, ...] = ()
    io_raw_l: tuple[float, ...] = ()
    io_write_l: tuple[bool, ...] = ()
    io_net_dur_l: tuple[float, ...] = ()
    io_scale_l: tuple[float, ...] = ()
    io_fixed_l: tuple[float, ...] = ()
    io_irqs_l: tuple[int, ...] = ()
    io_extra_l: tuple[float, ...] = ()
    io_wakemig_l: tuple[float, ...] = ()
    comm_dur_l: tuple[float, ...] = ()
    bar_key_l: tuple[int, ...] = ()
    mark_mask_l: tuple[bool, ...] = ()
    mark_submit_l: tuple[float, ...] = ()
    # table keys of (kind, seg_base): equal exactly when the segment-kind
    # layouts are equal (see repro.engine.batch.sim_shape_key)
    _layout: tuple = field(default=(), repr=False)


def compile_programs(
    programs: list[list[Segment]],
    proc_of: list[int],
    group_of: list[int],
    op_marks: dict[int, dict[int, float]],
    deployments: list,
    *,
    storage: StorageModel,
    network: NetworkModel,
    g_wake_extra: np.ndarray,
    g_p_wake: np.ndarray,
    g_irq_latency: np.ndarray,
    g_io_factor: np.ndarray,
    g_thrash: np.ndarray,
    g_comm_factor: np.ndarray,
    g_net_factor: np.ndarray,
) -> CompiledPrograms:
    """Flatten thread programs into :class:`CompiledPrograms`.

    The per-group overhead scalars are taken as arguments (rather than
    recomputed) so the compiled values multiply exactly the operands the
    interpreted engine multiplied.
    """
    n = len(programs)
    seg_base = np.zeros(n + 1, dtype=np.int64)
    for tid, prog in enumerate(programs):
        seg_base[tid + 1] = seg_base[tid] + len(prog)
    total = int(seg_base[n])

    kind = np.zeros(total, dtype=np.int8)
    work = np.zeros(total)
    mem = np.zeros(total)
    pp = np.zeros(total)
    io_disk = np.zeros(total, dtype=bool)
    io_base = np.zeros(total)
    io_raw = np.zeros(total)
    io_write = np.zeros(total, dtype=bool)
    io_net_dur = np.zeros(total)
    io_scale = np.zeros(total)
    io_fixed = np.zeros(total)
    io_irqs = np.zeros(total, dtype=np.int64)
    io_extra = np.zeros(total)
    io_wakemig = np.zeros(total)
    comm_dur = np.zeros(total)
    bar_key = np.full(total, -1, dtype=np.int32)
    mark_mask = np.zeros(total, dtype=bool)
    mark_submit = np.zeros(total)

    bar_keys: list[tuple[int, int]] = []
    bar_index: dict[tuple[int, int], int] = {}
    barrier_participants: dict[tuple[int, int], int] = {}
    # platform penalties are pure in (group, mem_intensity, kernel_share);
    # memoise so 1000 identical request programs compile in O(1) lookups
    pp_cache: dict[tuple[int, float, float], float] = {}
    write_penalty = storage.write_penalty

    for tid, prog in enumerate(programs):
        g = group_of[tid]
        pidx = proc_of[tid]
        dep = deployments[g]
        platform = dep.overhead.platform
        calib = dep.overhead.calib
        base = int(seg_base[tid])
        marks = op_marks.get(tid)
        if marks:
            for seg_index, submitted in marks.items():
                if 0 <= seg_index < len(prog):
                    mark_mask[base + seg_index] = True
                    mark_submit[base + seg_index] = submitted
        for p, seg in enumerate(prog):
            row = base + p
            if isinstance(seg, ComputeSegment):
                kind[row] = KIND_COMPUTE
                work[row] = seg.work
                mem[row] = seg.mem_intensity
                key = (g, seg.mem_intensity, seg.kernel_share)
                penalty = pp_cache.get(key)
                if penalty is None:
                    penalty = platform.compute_penalty(
                        calib, seg.mem_intensity, seg.kernel_share
                    )
                    pp_cache[key] = penalty
                pp[row] = penalty
            elif isinstance(seg, IoSegment):
                kind[row] = KIND_IO
                disk = seg.kind is IrqKind.DISK
                io_disk[row] = disk
                # same products the interpreter evaluated per issue
                scale = g_io_factor[g] * g_thrash[g]
                fixed = seg.irqs * g_irq_latency[g]
                io_scale[row] = scale
                io_fixed[row] = fixed
                io_irqs[row] = seg.irqs
                io_extra[row] = seg.irqs * g_wake_extra[g]
                io_wakemig[row] = seg.irqs * g_p_wake[g]
                if disk:
                    io_base[row] = seg.device_time * (
                        write_penalty if seg.is_write else 1.0
                    )
                    io_raw[row] = seg.device_time
                    io_write[row] = seg.is_write
                else:
                    device = seg.device_time
                    device *= scale
                    io_net_dur[row] = device + fixed
            elif isinstance(seg, CommSegment):
                kind[row] = KIND_COMM
                if seg.remote:
                    comm_dur[row] = (
                        seg.base_latency * g_net_factor[g]
                        + seg.cpu_work
                        + network.transfer_time(
                            seg.message_bytes,
                            stack_factor=g_net_factor[g],
                        )
                    )
                else:
                    comm_dur[row] = (
                        seg.base_latency * g_comm_factor[g] + seg.cpu_work
                    )
            else:  # BarrierSegment
                kind[row] = KIND_BARRIER
                key = _barrier_key(pidx, seg)
                idx = bar_index.get(key)
                if idx is None:
                    idx = len(bar_keys)
                    bar_index[key] = idx
                    bar_keys.append(key)
                bar_key[row] = idx
                barrier_participants[key] = (
                    barrier_participants.get(key, 0) + 1
                )

    columns = {
        "seg_base": seg_base, "kind": kind, "work": work, "mem": mem,
        "pp": pp, "io_disk": io_disk, "io_base": io_base, "io_raw": io_raw,
        "io_write": io_write, "io_net_dur": io_net_dur,
        "io_scale": io_scale, "io_fixed": io_fixed, "io_irqs": io_irqs,
        "io_extra": io_extra, "io_wakemig": io_wakemig,
        "comm_dur": comm_dur, "bar_key": bar_key, "mark_mask": mark_mask,
        "mark_submit": mark_submit,
    }
    fields: dict[str, object] = {}
    keys: dict[str, tuple] = {}
    for name, col in columns.items():
        fields[name], fields[name + "_l"], keys[name] = _share(name, col)
    return CompiledPrograms(
        n_threads=n,
        n_segments=total,
        bar_keys=bar_keys,
        barrier_participants=barrier_participants,
        _layout=(keys["kind"], keys["seg_base"]),
        **fields,
    )
