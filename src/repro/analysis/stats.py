"""Statistical helpers: two-sample distribution tests.

Used by the Lemma-1 invariance experiment (E10) to compare matrix
distributions.

``scipy.stats`` costs about a second to import and ``repro.core`` imports
this module, so each function imports it on first use: no deployment
path (``repro serve/demo/chaos``, ``repro.net``) ever loads scipy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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
