"""Defect accounting — the quantities in Lemmas 2–7 and Theorem 4.

For a network state, ``B_j`` counts the d-tuples of hanging threads whose
edge-connectivity from the server is ``d − j``; the *total defect* is
``B = Σ j · B_j`` and ``A = C(k, d)`` is the number of tuples.  Theorem 4
says the steady-state ``E[B]/A`` stays below ``(1+ε)·p·d``.

Exact enumeration is exponential in ``d`` and is provided for small ``k``
(tests, the drift experiment E4).  Everything else uses the Monte-Carlo
estimator: sample tuples uniformly, average their defects — an unbiased
estimate of ``B/A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Optional

import numpy as np

from ..core.matrix import ThreadMatrix
from .connectivity import TupleConnectivitySolver


@dataclass(frozen=True)
class DefectSummary:
    """Result of a defect measurement.

    Attributes:
        mean_defect: Estimate of ``B/A`` (average tuple defect).
        bad_fraction: Estimate of ``(B_1 + .. + B_d)/A`` (fraction of
            tuples with any defect).
        histogram: ``histogram[j]`` estimates ``B_j/A`` for j = 0..d.
        samples: Number of tuples inspected.
        exact: True when every tuple was enumerated.
    """

    mean_defect: float
    bad_fraction: float
    histogram: tuple[float, ...]
    samples: int
    exact: bool

    @property
    def normalized_defect(self) -> float:
        """Mean defect per thread, ``(B/A)/d`` — the bandwidth-loss rate."""
        d = len(self.histogram) - 1
        return self.mean_defect / d if d else 0.0


#: The most tuples :func:`exact_defect` enumerates (the space is ``C(k, d)``).
MAX_EXACT_TUPLES = 200_000


def tuple_space_size(k: int, d: int) -> int:
    """``A = C(k, d)``, the number of d-tuples of hanging threads."""
    return math.comb(k, d)


def exact_defect(
    matrix: ThreadMatrix,
    d: int,
    failed: Optional[AbstractSet[int]] = None,
) -> DefectSummary:
    """Enumerate every d-tuple and compute the exact defect profile.

    Guarded by :data:`MAX_EXACT_TUPLES` because the space is ``C(k, d)``.
    """
    space = tuple_space_size(matrix.k, d)
    if space > MAX_EXACT_TUPLES:
        raise ValueError(
            f"C({matrix.k},{d}) = {space} tuples exceeds "
            f"MAX_EXACT_TUPLES={MAX_EXACT_TUPLES}; use sampled_defect instead"
        )
    solver = TupleConnectivitySolver(matrix, failed)
    counts = [0] * (d + 1)
    for columns in combinations(range(matrix.k), d):
        counts[solver.defect(columns)] += 1
    total = sum(counts)
    mean = sum(j * c for j, c in enumerate(counts)) / total
    bad = sum(c for j, c in enumerate(counts) if j > 0) / total
    histogram = tuple(c / total for c in counts)
    return DefectSummary(
        mean_defect=mean, bad_fraction=bad, histogram=histogram,
        samples=total, exact=True,
    )


def sampled_defect(
    matrix: ThreadMatrix,
    d: int,
    rng: np.random.Generator,
    samples: int = 200,
    failed: Optional[AbstractSet[int]] = None,
) -> DefectSummary:
    """Monte-Carlo estimate of the defect profile from uniform tuples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    solver = TupleConnectivitySolver(matrix, failed)
    counts = [0] * (d + 1)
    for _ in range(samples):
        columns = rng.choice(matrix.k, size=d, replace=False)
        counts[solver.defect([int(c) for c in columns])] += 1
    mean = sum(j * c for j, c in enumerate(counts)) / samples
    bad = sum(c for j, c in enumerate(counts) if j > 0) / samples
    histogram = tuple(c / samples for c in counts)
    return DefectSummary(
        mean_defect=mean, bad_fraction=bad, histogram=histogram,
        samples=samples, exact=False,
    )
