"""Collapse dynamics (Theorem 5 / Lemma 8 / Corollary 9).

Two levels of model:

* :func:`measure_collapse_time` runs the *real* overlay process — repeated
  sequential arrivals with iid failures and periodic repairs — and reports
  when the sampled defect first crosses the tipping root ``a₂`` (or a
  caller-supplied threshold).  Exact but only feasible for small ``k``
  at the large ``p`` needed to see collapses at all.

* :func:`simulate_defect_walk` runs the paper's *abstract* 1-D random
  walk: the normalised defect takes a drift step bounded by Lemma 6 each
  arrival.  This reproduces the exponential-in-``k/d³`` scaling shape of
  Theorem 5 across a wide parameter range in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.defects import sampled_defect
from ..core.membership import sequential_arrivals
from ..core.overlay import OverlayNetwork
from .drift import DriftParameters, drift_roots


@dataclass(frozen=True)
class CollapseResult:
    """Outcome of one collapse run.

    Attributes:
        collapsed: Whether the defect crossed the threshold.
        steps: Arrival steps executed before stopping.
        threshold: The defect threshold used.
        peak_defect: Highest (sampled or walked) defect level observed.
    """

    collapsed: bool
    steps: int
    threshold: float
    peak_defect: float


def measure_collapse_time(
    k: int,
    d: int,
    p: float,
    seed: Optional[int] = None,
    max_steps: int = 20_000,
    defect_samples: int = 60,
    threshold: Optional[float] = None,
) -> CollapseResult:
    """Run the real arrival process until the defect crosses ``threshold``.

    The defect is estimated by tuple sampling every 25 arrivals.
    ``threshold`` defaults to the numeric tipping root ``a₂`` when the
    drift has roots, else 0.5.

    Failed rows persist, exactly the §4 process whose tags accumulate
    (the drift heals defects through later working arrivals, not through
    repairs).
    """
    if threshold is None:
        try:
            _, a2 = drift_roots(DriftParameters(k=k, d=d, p=p))
            threshold = a2
        except ValueError:
            threshold = 0.5
    net = OverlayNetwork(k=k, d=d, seed=seed)
    rng = np.random.default_rng(None if seed is None else seed + 1)
    steps = 0
    peak = 0.0
    while steps < max_steps:
        batch = min(25, max_steps - steps)
        sequential_arrivals(net, batch, p, rng=rng)
        steps += batch
        summary = sampled_defect(net.matrix, d, rng, samples=defect_samples,
                                 failed=net.failed)
        level = summary.mean_defect / d  # normalise into [0, 1]
        peak = max(peak, level)
        if level >= threshold:
            return CollapseResult(collapsed=True, steps=steps,
                                  threshold=threshold, peak_defect=peak)
    return CollapseResult(collapsed=False, steps=steps,
                          threshold=threshold, peak_defect=peak)


def simulate_defect_walk(
    k: int,
    d: int,
    p: float,
    rng: np.random.Generator,
    max_steps: int = 1_000_000,
) -> CollapseResult:
    """Run the abstract Lemma-8 walk on the normalised defect ``b`` from
    0 until it reaches the tipping root ``a₂`` (0.5 when the drift has
    no roots).

    Each arrival is a failure with probability ``p`` (defect jumps up by
    the Lemma 6 maximum ``d²/k``) or a working node (defect drops by the
    Lemma 7 expected contraction, floored at 0).  This walk *stochastically
    dominates* the real defect process — both the up-jump and the smallness
    of the down-step are worst-case — so its collapse times lower-bound
    the real system's and exhibit the Theorem 5 exponent.
    """
    try:
        _, threshold = drift_roots(DriftParameters(k=k, d=d, p=p))
    except ValueError:
        threshold = 0.5
    jump = d * d / k
    b = 0.0
    peak = b
    params_up = p
    contraction = lambda b_val: b_val * (d / k) * max(
        0.0, 1.0 - d * d / k - b_val ** ((d - 1.0) / d)
    )
    for step in range(1, max_steps + 1):
        if rng.random() < params_up:
            b = min(1.0, b + jump)
        else:
            b = max(0.0, b - contraction(b))
        peak = max(peak, b)
        if b >= threshold:
            return CollapseResult(collapsed=True, steps=step,
                                  threshold=threshold, peak_defect=peak)
    return CollapseResult(collapsed=False, steps=max_steps,
                          threshold=threshold, peak_defect=peak)


def mean_walk_collapse_time(
    k: int,
    d: int,
    p: float,
    runs: int,
    rng: np.random.Generator,
    max_steps: int = 1_000_000,
) -> tuple[float, int]:
    """Mean collapse step count of the abstract walk over ``runs`` trials.

    Returns ``(mean_steps, censored)`` where censored counts runs that hit
    ``max_steps`` without collapsing (their step count enters the mean as
    ``max_steps``, making the mean a lower bound — consistent with
    Theorem 5 being a lower bound).
    """
    times = []
    censored = 0
    for _ in range(runs):
        result = simulate_defect_walk(k, d, p, rng, max_steps=max_steps)
        times.append(result.steps)
        if not result.collapsed:
            censored += 1
    return float(np.mean(times)), censored
