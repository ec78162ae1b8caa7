"""The benchmark's workloads: the ``repro`` command each one times, and the
serial scalar leg of the same campaign whose output bytes it must match.

The reasons for each choice are in ``BENCHMARK.json`` and ``README.md``.
Sizes keep one run (set-up included) between about 3 and 5 s on a
2-vCPU host, so a 16-second measurement holds several runs; ``quick``
sizes are for the tests.  Two processes at most do work at once (two pool or fabric
workers while their parent waits).
"""

from __future__ import annotations

from dataclasses import dataclass

REPORT = "report.md"
KNEE = "knee.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``timed`` and ``reference`` are CLI arguments after ``--seed``; both
    write ``outputs`` into the run directory.  ``batched`` says whether
    the timed leg runs cells on the batched engine, and ``processes``
    how many processes of a traced run record spans.
    """

    name: str
    timed: tuple[str, ...]
    reference: tuple[str, ...]
    outputs: tuple[str, ...] = (REPORT,)
    batched: bool = False
    processes: int = 1

    def argv(self, seed: int, *, reference: bool = False) -> list[str]:
        return ["--seed", str(seed), *(self.reference if reference else self.timed)]


def workloads(quick: bool = False) -> dict[str, Workload]:
    """Every workload by name, in the order of ``BENCHMARK.json``."""
    fig3 = ("report", "--only", "fig3", "--reps-fast", "2" if quick else "20",
            "--out", REPORT)
    fig8 = ("report", "--only", "fig8", "--reps-fast", "2" if quick else "4",
            "--out", REPORT)
    ladder = ("loadcurve", "--reps", "1" if quick else "4",
              "--requests", "50" if quick else "200",
              "--knee-out", KNEE, "--out", REPORT)
    fig5 = ("report", "--only", "fig5", "--reps-io", "1", "--out", REPORT)
    fleet = ("--only", "fig3", "fig6", "--reps-fast", "1", "--reps-io", "1",
             "--out", REPORT)
    return {
        w.name: w
        for w in (
            Workload(
                "fig3-durable",
                (*fig3, "--journal", "journal.jsonl", "--checkpoint", "cells"),
                fig3,
            ),
            Workload("fig8-multitask", fig8, fig8),
            Workload(
                "loadcurve-batch", (*ladder, "--batch"), ladder,
                outputs=(REPORT, KNEE), batched=True,
            ),
            Workload("web-pool", ("--jobs", "2", *fig5), fig5, processes=3),
            Workload(
                "fabric-2w",
                ("fabric", "run", "queue", "--workers", "2", "--shards", "16",
                 *fleet),
                ("report", *fleet),
                processes=3,
            ),
        )
    }
