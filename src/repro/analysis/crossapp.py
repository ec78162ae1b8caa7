"""Cross-application overhead analysis — Section IV as a programmatic object.

Section IV of the paper builds its root-cause story by comparing the
*same* platform's overhead across the four applications.  This module
packages those comparisons so a campaign result can be interrogated the
way the paper argues:

* :meth:`CrossApplicationAnalysis.classification_table` — the PTO / PSO
  taxonomy per (application, platform) (Sections IV-1/IV-2);
* :meth:`CrossApplicationAnalysis.pso_vs_io_intensity` — Section IV-C's
  claim that the vanilla-container PSO grows with the application's IO
  intensity, returned with a rank correlation;
* :meth:`CrossApplicationAnalysis.pinning_gain` — how much pinning buys
  per application and size (the Figs. 3/5/6 comparison);
* :meth:`CrossApplicationAnalysis.chr_bands` — the Section IV-A bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.chr import ChrRange, estimate_suitable_chr_range
from repro.analysis.overhead import (
    OverheadClassification,
    classify_overhead,
    overhead_ratios,
)
from repro.errors import AnalysisError
from repro.hostmodel.topology import HostTopology, r830_host
from repro.run.results import SweepResult

__all__ = ["CrossApplicationAnalysis", "PsoCorrelation"]


@dataclass(frozen=True)
class PsoCorrelation:
    """Section IV-C: vanilla-CN PSO vs application IO intensity."""

    io_intensities: tuple[float, ...]
    pso_magnitudes: tuple[float, ...]
    spearman_rho: float

    @property
    def monotone_increasing(self) -> bool:
        """Whether PSO strictly grows with IO intensity across the apps."""
        return all(
            b >= a
            for a, b in zip(self.pso_magnitudes, self.pso_magnitudes[1:])
        )


class CrossApplicationAnalysis:
    """Joint analysis over several applications' sweeps.

    Parameters
    ----------
    sweeps:
        Mapping application name -> its platform/instance sweep.
    io_intensity:
        Mapping application name -> the profile's IO intensity (used by
        the Section IV-C correlation).
    host:
        The host the sweeps ran on (CHR denominators).
    """

    def __init__(
        self,
        sweeps: dict[str, SweepResult],
        io_intensity: dict[str, float],
        host: HostTopology | None = None,
    ) -> None:
        if not sweeps:
            raise AnalysisError("need at least one sweep")
        missing = set(sweeps) - set(io_intensity)
        if missing:
            raise AnalysisError(
                f"io_intensity missing for applications: {sorted(missing)}"
            )
        self.sweeps = sweeps
        self.io_intensity = io_intensity
        self.host = host or r830_host()

    # ------------------------------------------------------------------

    def classification_table(
        self,
    ) -> dict[tuple[str, str], OverheadClassification]:
        """PTO/PSO/negligible classification per (application, platform)."""
        out: dict[tuple[str, str], OverheadClassification] = {}
        for app, sweep in self.sweeps.items():
            for label in sweep.platform_order:
                if label == "Vanilla BM":
                    continue
                out[(app, label)] = classify_overhead(
                    overhead_ratios(sweep, label)
                )
        return out

    def pso_magnitude(self, app: str, platform_label: str = "Vanilla CN") -> float:
        """PSO magnitude of one app: smallest-size ratio minus largest-size
        ratio of the platform (the decay the paper charts)."""
        sweep = self._sweep(app)
        ratios = overhead_ratios(sweep, platform_label)
        return float(ratios[0] - ratios[-1])

    def pso_vs_io_intensity(
        self, platform_label: str = "Vanilla CN"
    ) -> PsoCorrelation:
        """Section IV-C: does the PSO grow with IO intensity?

        Applications are ordered by IO intensity; the magnitudes should
        rise with it (Spearman rho close to 1).
        """
        from scipy import stats as scipy_stats

        apps = sorted(self.sweeps, key=lambda a: self.io_intensity[a])
        if len(apps) < 2:
            raise AnalysisError("correlation needs at least two applications")
        ios = [self.io_intensity[a] for a in apps]
        psos = [self.pso_magnitude(a, platform_label) for a in apps]
        rho, _ = scipy_stats.spearmanr(ios, psos)
        return PsoCorrelation(
            io_intensities=tuple(ios),
            pso_magnitudes=tuple(psos),
            spearman_rho=float(rho),
        )

    def pinning_gain(self, app: str, kind: str = "CN") -> np.ndarray:
        """Vanilla/pinned time ratio per instance size for one platform
        kind (>1 where pinning helps)."""
        sweep = self._sweep(app)
        vanilla = sweep.means(f"Vanilla {kind}")
        pinned = sweep.means(f"Pinned {kind}")
        if np.any(pinned <= 0):
            raise AnalysisError("pinned series contains non-positive means")
        return vanilla / pinned

    def chr_bands(self, vanish_ratio: float = 1.15) -> dict[str, ChrRange]:
        """Section IV-A suitable-CHR bands for every application."""
        return {
            app: estimate_suitable_chr_range(
                sweep, self.host, vanish_ratio=vanish_ratio
            )
            for app, sweep in self.sweeps.items()
        }

    def render(self) -> str:
        """Readable multi-section summary of the cross-app analysis."""
        lines = ["Cross-application overhead analysis (Section IV)"]
        lines.append("\nPTO/PSO classification:")
        for (app, label), cls in sorted(self.classification_table().items()):
            lines.append(
                f"  {app:<11s} {label:<14s} {cls.kind.name:<11s} "
                f"x{cls.small_ratio:.2f} -> x{cls.large_ratio:.2f}"
            )
        corr = self.pso_vs_io_intensity()
        lines.append(
            f"\nPSO vs IO intensity (Section IV-C): spearman rho = "
            f"{corr.spearman_rho:.2f}"
        )
        lines.append("\nPinning gain (vanilla/pinned CN) at smallest size:")
        for app in self.sweeps:
            lines.append(f"  {app:<11s} x{self.pinning_gain(app)[0]:.2f}")
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def _sweep(self, app: str) -> SweepResult:
        try:
            return self.sweeps[app]
        except KeyError:
            raise AnalysisError(
                f"unknown application {app!r}; have {sorted(self.sweeps)}"
            ) from None
