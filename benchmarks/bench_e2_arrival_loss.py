"""E2 — Lemmas 2 & 3: a fresh arrival's expected bandwidth loss ≈ pd.

Grows a network under the §4 process, then probes it: hypothetical
arrivals draw random d-tuples of hanging threads and we record their
connectivity shortfall.  Lemma 2 predicts the bad-tuple probability and
Lemma 3 the expected loss, both ≈ E[B]/A ≈ pd.
"""

import numpy as np

from repro.analysis import TupleConnectivitySolver
from repro.core import OverlayNetwork, sequential_arrivals

from conftest import emit_table, run_once

SWEEP = [(2, 0.01), (2, 0.03), (3, 0.01), (3, 0.03)]
ARRIVALS = 600
PROBES = 500


def _probe(d: int, p: float, seed: int) -> tuple[float, float]:
    k = 8 * d * d
    seed = seed + 7000 * d + int(p * 100_000)
    net = OverlayNetwork(k=k, d=d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    sequential_arrivals(net, ARRIVALS, p=p, rng=rng)
    solver = TupleConnectivitySolver(net.matrix, net.failed)
    losses = []
    for _ in range(PROBES):
        columns = [int(c) for c in rng.choice(k, size=d, replace=False)]
        losses.append(solver.defect(columns))
    losses = np.asarray(losses, dtype=float)
    return float(losses.mean()), float((losses > 0).mean())


def experiment():
    rows = []
    for d, p in SWEEP:
        means, bads = zip(*(_probe(d, p, seed) for seed in (1, 2, 3)))
        mean_loss = float(np.mean(means))
        bad_probability = float(np.mean(bads))
        rows.append([
            8 * d * d, d, p,
            mean_loss, p * d,
            bad_probability,
            mean_loss <= 2.5 * p * d + 0.01,
        ])
    return rows


def test_e2_arrival_loss(benchmark):
    rows = run_once(benchmark, experiment)
    emit_table(
        "e2_arrival_loss",
        ["k", "d", "p", "mean loss (threads)", "pd (Lemma 3)",
         "P(bad tuple) (Lemma 2)", "within bound"],
        rows,
        title="E2 — Lemmas 2/3: fresh-arrival expected loss vs pd",
    )
    assert all(row[-1] for row in rows)
