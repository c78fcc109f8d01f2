"""Arrival-schedule generators for realistic workloads.

A schedule is a list of per-interval join counts; drivers feed it to the
overlay one repair interval at a time.  Two shapes cover the paper's
motivating scenarios: steady trickle (long-lived live channel) and flash
crowd (a release event — the BitTorrent/Redhat-9 story of §3).
"""

from __future__ import annotations

import math

import numpy as np


def steady_schedule(intervals: int, rate: float,
                    rng: np.random.Generator) -> list[int]:
    """Poisson(rate) joins per interval."""
    if intervals < 0 or rate < 0:
        raise ValueError("intervals and rate must be non-negative")
    return [int(x) for x in rng.poisson(rate, size=intervals)]


def flash_crowd_schedule(
    intervals: int,
    peak_rate: float,
    peak_at: int,
    width: float,
    rng: np.random.Generator,
    base_rate: float = 0.0,
) -> list[int]:
    """A Gaussian-shaped arrival spike over a small base rate.

    Models a content release: arrivals ramp up sharply around
    ``peak_at``, with spread ``width`` intervals.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    schedule = []
    for t in range(intervals):
        rate = base_rate + peak_rate * math.exp(-((t - peak_at) ** 2) / (2 * width**2))
        schedule.append(int(rng.poisson(rate)))
    return schedule
