"""Defect trajectories: watch B^t/A evolve as the network grows.

Theorem 4 is a statement about a stochastic process; a single number
hides the dynamics.  This module runs the §4 arrival process and samples
the normalised defect on a fixed cadence, giving the time series the
drift analysis predicts: rise from 0, fluctuate around the attractor
a₁ ≈ pd, never wander toward the tipping point a₂ (at sane parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .defects import sampled_defect


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sample of the defect process."""

    arrivals: int
    normalized_defect: float  # B/A
    failed_rows: int


@dataclass
class DefectTrajectory:
    """A sampled run of the §4 process.

    Attributes:
        k, d, p: Process parameters.
        points: Samples in arrival order.
    """

    k: int
    d: int
    p: float
    points: list[TrajectoryPoint] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return [point.normalized_defect for point in self.points]

    def steady_state_mean(self) -> float:
        """Mean defect over the second half of the samples."""
        values = self.values
        start = len(values) // 2
        tail = values[start:] or values
        return float(np.mean(tail))

    def peak(self) -> float:
        return max(self.values) if self.points else 0.0


def measure_defect_trajectory(
    k: int,
    d: int,
    p: float,
    arrivals: int,
    sample_every: int = 25,
    seed: Optional[int] = None,
) -> DefectTrajectory:
    """Run ``arrivals`` §4 steps, sampling the defect periodically."""
    # Imported here, not at module scope: repro.core.overlay imports this
    # package's connectivity module, so a top-level import would cycle.
    from ..core.membership import sequential_arrivals
    from ..core.overlay import OverlayNetwork

    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    net = OverlayNetwork(k=k, d=d, seed=seed)
    rng = np.random.default_rng(None if seed is None else seed + 1)
    trajectory = DefectTrajectory(k=k, d=d, p=p)
    done = 0
    while done < arrivals:
        batch = min(sample_every, arrivals - done)
        sequential_arrivals(net, batch, p=p, rng=rng)
        done += batch
        summary = sampled_defect(net.matrix, d, rng, samples=200,
                                 failed=net.failed)
        trajectory.points.append(
            TrajectoryPoint(
                arrivals=done,
                normalized_defect=summary.mean_defect,
                failed_rows=len(net.failed),
            )
        )
    return trajectory
