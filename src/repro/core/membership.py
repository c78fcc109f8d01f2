"""Membership processes: the arrival/failure dynamics of §4.

The analysis builds ``M`` sequentially: each arriving node tosses a coin
*before* joining and enters as a failed node with probability ``p`` (the
paper's time-interchange trick).  These drivers reproduce that process
exactly, failed rows kept (the "no repair yet" snapshot the defect is
measured on), plus a steady-state churn variant with graceful leaves and
one repair sweep per epoch for the long-running experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .overlay import OverlayNetwork


@dataclass
class ArrivalRecord:
    """What happened at one sequential-arrival step."""

    step: int
    node_id: int
    failed_on_arrival: bool


def sequential_arrivals(
    net: OverlayNetwork,
    count: int,
    p: float,
    rng: Optional[np.random.Generator] = None,
) -> list[ArrivalRecord]:
    """Run the §4 process: ``count`` arrivals, each failed w.p. ``p``.

    Args:
        net: The overlay to grow.
        count: Number of arrivals.
        p: Probability an arrival is (or promptly becomes) a failed node
            within the repair interval.
        rng: Randomness for the failure coins (defaults to the net's rng).

    Returns the per-step records.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = rng or net.rng
    records = []
    for step in range(count):
        grant = net.join()
        failed = bool(rng.random() < p)
        if failed:
            net.fail(grant.node_id)
        record = ArrivalRecord(step=step, node_id=grant.node_id, failed_on_arrival=failed)
        records.append(record)
    return records


@dataclass
class ChurnEpochStats:
    """Summary of one churn epoch."""

    epoch: int
    joins: int
    graceful_leaves: int
    failures: int
    repairs: int
    population: int


def churn_epochs(
    net: OverlayNetwork,
    epochs: int,
    join_rate: int,
    leave_probability: float,
    failure_probability: float,
    min_population: int = 1,
) -> list[ChurnEpochStats]:
    """Steady-state churn: joins, graceful leaves and repaired failures.

    Each epoch: ``join_rate`` nodes join; every working node leaves
    gracefully w.p. ``leave_probability`` and fails w.p.
    ``failure_probability``; then all failures are repaired (one repair
    interval per epoch).  Population never drops below ``min_population``.
    """
    rng = net.rng
    history = []
    for epoch in range(epochs):
        joins = len(net.grow(join_rate))
        leaves = failures = 0
        for node_id in list(net.working_nodes):
            if net.population <= min_population:
                break
            roll = rng.random()
            if roll < failure_probability:
                net.fail(node_id)
                failures += 1
            elif roll < failure_probability + leave_probability:
                net.leave(node_id)
                leaves += 1
        repairs = len(net.server.failed)
        net.repair_all()
        history.append(
            ChurnEpochStats(
                epoch=epoch,
                joins=joins,
                graceful_leaves=leaves,
                failures=failures,
                repairs=repairs,
                population=net.population,
            )
        )
    return history
