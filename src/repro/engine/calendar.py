"""Indexed event calendar for the simulation engine.

Two small data structures replace the engine's per-step full-array
scans:

:class:`EventCalendar`
    A lazy-deletion binary heap over pending wake-ups (IO and
    communication completions) and thread arrivals.  The old loop
    recomputed ``wake[state != _DONE].min()`` and
    ``flatnonzero(wake <= t)`` over *all* threads at every step; the
    calendar answers both in O(log n) amortized.  An entry ``(time,
    tid)`` is valid iff ``time`` still equals the engine's
    ``wake[tid]`` — the engine invalidates a wake-up simply by setting
    ``wake[tid] = inf`` (delivery) or to a new value (reschedule), and
    stale heap entries are discarded whenever they surface at the top.

:class:`RunnableIndex`
    The runnable thread set as a packed array of slots: a runnable
    thread owns one slot ``0 .. count-1``, and the per-slot arrays hold
    its rate-step state (remaining work, platform penalty, contention
    coefficient).  Adding appends a slot; removing moves the last slot
    into the hole, so both are O(1) and the engine's rate step runs on
    contiguous ``[:count]`` views with no scan, gather or scatter over
    all threads.  The per-group counts double as the cache key for the
    engine's rate/efficiency/timeslice records: two steps with the same
    runnable multiset per group share one cached record.

Neither structure performs any floating-point arithmetic of its own —
times are stored and compared exactly as the engine computed them — so
they cannot perturb results.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

__all__ = ["EventCalendar", "RunnableIndex"]


class EventCalendar:
    """Lazy-deletion heap of ``(wake_time, tid)`` entries.

    Parameters
    ----------
    wake:
        The engine's per-thread wake times (shared by reference).  An entry is
        valid iff its stored time equals ``wake[tid]`` bitwise; setting
        ``wake[tid]`` to ``inf`` (or any other value) invalidates all
        of that thread's outstanding entries.
    """

    __slots__ = ("_heap", "_wake")

    def __init__(self, wake: list[float]) -> None:
        self._heap: list[tuple[float, int]] = []
        self._wake = wake

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return len(self._heap)

    def schedule(self, tid: int, time: float) -> None:
        """Register that thread ``tid`` wakes at ``time``.

        Must be called *after* the engine stored the same value in
        ``wake[tid]`` (the heap entry is valid only while they agree).
        """
        heappush(self._heap, (time, tid))

    def next_time(self) -> float:
        """Earliest valid pending wake-up, or ``inf`` when none.

        Pops stale entries encountered at the top; the valid head stays
        in the heap.
        """
        heap = self._heap
        wake = self._wake
        while heap:
            time, tid = heap[0]
            if wake[tid] == time:
                return time
            heappop(heap)
        return math.inf

    def pop_due(self, cutoff: float) -> list[int]:
        """Remove and return all threads with a valid wake ``<= cutoff``.

        Returned tids are sorted ascending (the delivery order the
        engine's sequential accounting depends on) and deduplicated —
        a thread re-blocking at the exact time of a previous wake-up can
        leave two simultaneously-valid entries for one tid.
        """
        heap = self._heap
        wake = self._wake
        due: list[int] = []
        seen: set[int] = set()
        while heap and heap[0][0] <= cutoff:
            time, tid = heappop(heap)
            if wake[tid] == time and tid not in seen:
                seen.add(tid)
                due.append(tid)
        due.sort()
        return due




class RunnableIndex:
    """The runnable thread set, packed into slots ``0 .. count-1``.

    Each runnable thread owns one slot; its rate-step state (remaining
    work, platform penalty, contention coefficient) lives in the per-slot
    arrays, so the engine's rate step is a handful of numpy expressions
    over ``[:count]`` views.  Slot order is insertion order, not tid
    order: callers whose arithmetic depends on thread order sort first.

    Attributes
    ----------
    tids:
        int64 tid of each slot (valid in ``[:count]``).
    pos:
        Slot of each tid, ``-1`` when not runnable (a list: the engine
        reads it one tid at a time).
    count:
        Number of runnable threads.
    group_counts:
        int64 per-group runnable counts; ``key()`` turns them into a
        hashable cache key for per-multiset rate records.
    rem, pp, gm:
        float64 per-slot remaining work of the current compute segment,
        its platform penalty, and ``gamma * mem_intensity``.
    """

    __slots__ = ("tids", "pos", "count", "group_counts", "rem", "pp", "gm")

    def __init__(self, n_threads: int, n_groups: int) -> None:
        self.tids = np.zeros(n_threads, dtype=np.int64)
        self.pos = [-1] * n_threads
        self.count = 0
        self.group_counts = np.zeros(n_groups, dtype=np.int64)
        self.rem = np.zeros(n_threads)
        # unused slots keep a finite penalty: a masked-out lane of the
        # batched step must not divide by zero
        self.pp = np.ones(n_threads)
        self.gm = np.zeros(n_threads)

    def add(
        self, tid: int, group: int, rem: float, pp: float, gm: float
    ) -> None:
        """Thread ``tid`` became runnable (caller checked it was not)."""
        k = self.count
        self.tids[k] = tid
        self.pos[tid] = k
        self.rem[k] = rem
        self.pp[k] = pp
        self.gm[k] = gm
        self.count = k + 1
        self.group_counts[group] += 1

    def remove(self, tid: int, group: int) -> None:
        """Thread ``tid`` stopped being runnable (caller checked it was).

        The last slot moves into the hole, with its per-slot state.
        """
        pos = self.pos
        k = pos[tid]
        last = self.count - 1
        if k != last:
            moved = int(self.tids[last])
            self.tids[k] = moved
            pos[moved] = k
            self.rem[k] = self.rem[last]
            self.pp[k] = self.pp[last]
            self.gm[k] = self.gm[last]
        pos[tid] = -1
        self.count = last
        self.group_counts[group] -= 1

    def key(self) -> bytes:
        """Hashable key of the per-group runnable multiset."""
        return self.group_counts.tobytes()
