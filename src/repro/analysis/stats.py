"""Statistical helpers: confidence intervals and distribution tests.

Used by the experiments to report Monte-Carlo estimates honestly and by
the Lemma-1 invariance experiment (E10) to compare matrix distributions.

``scipy.stats`` costs about a second to import and ``repro.core`` imports
this module, so each function imports it on first use: no deployment
path (``repro serve/demo/chaos``, ``repro.net``) ever loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with a normal-approximation CI.

    Attributes:
        mean: Sample mean.
        half_width: Half-width of the confidence interval.
        n: Sample count.
        confidence: Confidence level used.
    """

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.5f} ± {self.half_width:.5f} (n={self.n})"


def _z_score(confidence: float) -> float:
    from scipy import stats as sp_stats

    return float(sp_stats.norm.ppf(0.5 + confidence / 2.0))


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> Estimate:
    """Sample mean with a normal-approximation confidence interval."""
    array = np.asarray(list(values), dtype=float)
    n = array.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(array.mean())
    if n == 1:
        return Estimate(mean=mean, half_width=float("inf"), n=1, confidence=confidence)
    sem = float(array.std(ddof=1)) / math.sqrt(n)
    z = _z_score(confidence)
    return Estimate(mean=mean, half_width=z * sem, n=n, confidence=confidence)


def proportion_ci(successes: int, trials: int, confidence: float = 0.95) -> Estimate:
    """Wilson-score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = _z_score(confidence)
    phat = successes / trials
    denominator = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denominator
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return Estimate(mean=centre, half_width=half, n=trials, confidence=confidence)


def chi_square_same_distribution(
    counts_a: Sequence[int],
    counts_b: Sequence[int],
) -> tuple[float, float]:
    """Two-sample chi-square homogeneity test.

    Returns ``(statistic, p_value)``.  Cells where both samples are empty
    are dropped; raises if fewer than two informative cells remain.
    """
    a = np.asarray(list(counts_a), dtype=float)
    b = np.asarray(list(counts_b), dtype=float)
    if a.shape != b.shape:
        raise ValueError("count vectors must have equal length")
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    if a.size < 2:
        raise ValueError("need at least two informative cells")
    from scipy import stats as sp_stats

    table = np.stack([a, b])
    statistic, p_value, _, _ = sp_stats.chi2_contingency(table)
    return float(statistic), float(p_value)


def ks_same_distribution(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
) -> tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov test; returns (statistic, p_value)."""
    from scipy import stats as sp_stats

    result = sp_stats.ks_2samp(list(samples_a), list(samples_b))
    return float(result.statistic), float(result.pvalue)
