"""Shared summary statistics for series and run reports.

One home for the mean/std/percentile helpers behind
:mod:`repro.sim.report`'s completion-slot summaries.  Every helper
returns a defined value for an empty input — 0.0, never numpy's
nan-plus-RuntimeWarning — so callers can summarise degenerate runs
(no finishers, no samples) without guarding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["maximum", "mean", "minimum", "percentile", "std", "summary"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    if len(values) == 0:
        return 0.0
    return float(np.mean(values))


def std(values: Sequence[float]) -> float:
    """Sample standard deviation, ddof=1 (0.0 below two samples)."""
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def minimum(values: Sequence[float]) -> float:
    """Smallest value (0.0 for an empty sequence)."""
    if len(values) == 0:
        return 0.0
    return float(np.min(values))


def maximum(values: Sequence[float]) -> float:
    """Largest value (0.0 for an empty sequence)."""
    if len(values) == 0:
        return 0.0
    return float(np.max(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, 0 <= q <= 100 (0.0 for an empty sequence)."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summary(values: Sequence[float]) -> dict[str, float]:
    """{mean, std, min, max, n} of one sample set (all-zero when empty)."""
    return {
        "mean": mean(values),
        "std": std(values),
        "min": minimum(values),
        "max": maximum(values),
        "n": float(len(values)),
    }
