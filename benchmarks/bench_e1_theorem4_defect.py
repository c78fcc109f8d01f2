"""E1 — Theorem 4: steady-state defect E[B^t]/A ≤ (1+ε)·p·d.

Grows a network by sequential arrivals (each failed with probability p,
tags persisting per the §4 process) and measures the normalised total
defect of the hanging-thread pool by Monte-Carlo tuple sampling.  The
measured level should track the paper's attractor a₁ ≈ pd, independent
of d and p across the sweep.
"""

import numpy as np

from repro.analysis import sampled_defect
from repro.core import OverlayNetwork, sequential_arrivals
from repro.theory import theorem4_prediction

from conftest import emit_table, run_once

SWEEP = [
    (2, 0.005), (2, 0.01), (2, 0.02),
    (3, 0.005), (3, 0.01), (3, 0.02),
]
ARRIVALS = 700
SAMPLES = 400


def _measure(d: int, p: float, seed: int) -> float:
    k = 8 * d * d
    # decorrelate streams across sweep points, not just across repeats
    seed = seed + 1000 * d + int(p * 100_000)
    net = OverlayNetwork(k=k, d=d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    sequential_arrivals(net, ARRIVALS, p=p, rng=rng)
    summary = sampled_defect(net.matrix, d, rng, samples=SAMPLES,
                             failed=net.failed)
    return summary.mean_defect


def experiment():
    rows = []
    for d, p in SWEEP:
        k = 8 * d * d
        measured = float(np.mean([_measure(d, p, seed) for seed in (1, 2, 3)]))
        prediction = theorem4_prediction(k, d, p)
        rows.append([
            k, d, p,
            measured,
            prediction.naive,           # pd
            prediction.attractor,       # numeric root a1
            measured <= 2.0 * max(prediction.attractor, prediction.naive),
        ])
    return rows


def test_e1_theorem4_defect(benchmark):
    rows = run_once(benchmark, experiment)
    emit_table(
        "e1_theorem4_defect",
        ["k", "d", "p", "measured B/A", "pd (paper)", "a1 (drift root)", "within bound"],
        rows,
        title="E1 — Theorem 4: steady-state normalised defect vs pd",
    )
    assert all(row[-1] for row in rows)
