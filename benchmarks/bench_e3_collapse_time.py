"""E3 — Theorem 5: collapse time grows exponentially in k/d³.

The abstract Lemma-8 walk (worst-case up-jumps, guaranteed contraction)
is run to collapse across a k sweep at fixed d and large pd, where
collapses are observable; log(mean steps) must grow roughly linearly in
k/d³.  One real-network collapse point (tiny k, extreme p) confirms the
full system collapses the same way.
"""

import math

import numpy as np

from repro.theory import (
    collapse_exponent,
    mean_walk_collapse_time,
    measure_collapse_time,
)

from conftest import emit_table, run_once

K_SWEEP = (10, 14, 18, 22, 26)
D = 2
# p is chosen so the walk has a shallow metastability barrier across the
# whole k sweep: collapses are observable at small k and grow steeply
# (exponentially) with k, which is the Theorem 5 shape.
P = 0.03
RUNS = 30
MAX_STEPS = 400_000


def experiment():
    rows = []
    rng = np.random.default_rng(314)
    for k in K_SWEEP:
        mean_steps, censored = mean_walk_collapse_time(
            k=k, d=D, p=P, runs=RUNS, rng=rng, max_steps=MAX_STEPS
        )
        rows.append([
            k, D, P, collapse_exponent(k, D),
            mean_steps, math.log(mean_steps), censored,
        ])
    real = measure_collapse_time(
        k=8, d=2, p=0.6, seed=5, max_steps=4000,
        defect_samples=40, threshold=0.5,
    )
    return rows, real


def test_e3_collapse_time(benchmark):
    rows, real = run_once(benchmark, experiment)
    emit_table(
        "e3_collapse_time",
        ["k", "d", "p", "k/d^3", "mean collapse steps", "log(steps)", "censored runs"],
        rows,
        title=(
            "E3 — Theorem 5: abstract-walk collapse time vs k/d^3\n"
            f"(real network k=8 d=2 p=0.6: collapsed={real.collapsed} "
            f"after {real.steps} steps)"
        ),
    )
    logs = [row[5] for row in rows]
    # log(steps) increases monotonically with k (exponential scaling shape)
    assert all(b > a for a, b in zip(logs, logs[1:]))
    # and the growth is at least roughly linear: total growth over the
    # sweep exceeds 1.5 nats
    assert logs[-1] - logs[0] > 1.5
    assert real.collapsed
