"""Statistical treatment of repeated measurements.

The paper reports "the mean and 95% confidence interval" over 6-20
repetitions of each configuration (Sections III-B1..B4).  With samples
that small the normal approximation is wrong, so the confidence interval
uses the Student-t quantile; a bootstrap alternative is provided for
skewed metrics (response times under overload).

The 95% quantile for 2-101 samples comes from a pinned table of
scipy's values, so the default path never imports scipy; other levels
and larger samples import ``scipy.stats`` on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "StatSummary",
    "confidence_interval",
    "bootstrap_ci",
    "needs_more_samples",
    "summarize",
]


# ``float(scipy.stats.t.ppf(0.5 + 0.95 / 2.0, df))`` for df = 1..100,
# written with ``repr`` so each entry is the exact double scipy returns.
_T95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913,
    2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
    2.085963447265864, 2.0796138447276795, 2.0738730679040254,
    2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408,
    2.0369333434601016, 2.0345152974493383, 2.0322445093177186,
    2.030107928250343, 2.0280940009804502, 2.0261924630291093,
    2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824,
    2.0153675744437636, 2.014103388880846, 2.012895598919429,
    2.0117405137297655, 2.010634757624232, 2.0095752371292392,
    2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455,
    2.003240718847872, 2.002465459291007, 2.0017174841452356,
    2.000995378088267, 2.0002978220142604, 1.999623584994939,
    1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296,
    1.9954689314298435, 1.9949454151072374, 1.994437111771186,
    1.9939433678456255, 1.9934635666618719, 1.992997125889855,
    1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285,
    1.990063421254446, 1.9896863234569029, 1.989318557136572,
    1.9889597801751624, 1.9886096669757083, 1.9882679074772216,
    1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177,
    1.98608631695113, 1.9858018143458227, 1.985523441866604,
    1.9852510035054978, 1.984984311522457, 1.9847231860139845,
    1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def _t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value at ``confidence`` with ``df``
    degrees of freedom."""
    if confidence == 0.95 and 1 <= df <= len(_T95):
        return _T95[df - 1]
    from scipy import stats as scipy_stats

    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))


@dataclass(frozen=True)
class StatSummary:
    """Mean and confidence interval of one sample set."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_ci(self) -> float:
        """CI half-width relative to the mean (0 when the mean is 0)."""
        if self.mean == 0:
            return 0.0
        return self.ci_half_width / abs(self.mean)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.4g} +/- {self.ci_half_width:.2g} "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


def _validate(samples: np.ndarray) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise AnalysisError("cannot summarize an empty sample set")
    if not np.all(np.isfinite(arr)):
        raise AnalysisError("samples contain non-finite values")
    return arr


def confidence_interval(
    samples: np.ndarray | list[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval of the mean.

    A single sample yields a degenerate interval at the value.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    arr = _validate(np.asarray(samples))
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    if sem == 0.0:
        return (mean, mean)
    t = _t_critical(confidence, arr.size - 1)
    return (mean - t * sem, mean + t * sem)


def bootstrap_ci(
    samples: np.ndarray | list[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise AnalysisError(f"n_resamples must be >= 1, got {n_resamples}")
    arr = _validate(np.asarray(samples))
    if arr.size == 1:
        v = float(arr[0])
        return (v, v)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


def needs_more_samples(
    samples: np.ndarray | list[float],
    *,
    target_rel_ci: float | None = None,
    target_half_width: float | None = None,
    confidence: float = 0.95,
) -> bool:
    """True while the Student-t CI of the mean misses its target width.

    The stopping rule of the adaptive rep allocator
    (:mod:`repro.analysis.adaptive`): given the samples measured so far,
    is the confidence interval still wider than ``target_half_width``
    (absolute seconds) or ``target_rel_ci`` (fraction of the mean)?
    At least one target must be given; an absolute target wins when
    both are set.  A single sample yields a degenerate interval and never
    asks for more — callers enforce their own minimum rep count first.
    """
    if target_half_width is None and target_rel_ci is None:
        raise AnalysisError(
            "one of target_rel_ci / target_half_width is required"
        )
    s = summarize(samples, confidence)
    if target_half_width is not None:
        return s.ci_half_width > target_half_width
    return s.relative_ci > target_rel_ci


def summarize(
    samples: np.ndarray | list[float], confidence: float = 0.95
) -> StatSummary:
    """Mean, standard deviation and Student-t CI in one record."""
    arr = _validate(np.asarray(samples))
    lo, hi = confidence_interval(arr, confidence)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return StatSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )
