"""E12 — §5 congestion handling and §3 protocol costs.

Two measurements:

* protocol cost — messages per membership event over a long churn run:
  each hello / good-bye / repair must cost O(d) redirects, independent of
  N (the "very small data load on the server" claim);
* congestion hysteresis — a congested cohort sheds threads, the overlay
  stays consistent and fully connected at reduced degree, and the cohort
  recovers its nominal degree after calm.
"""

import numpy as np

from repro.core import CongestionController, OverlayNetwork, churn_epochs

from conftest import emit_table, run_once

K, D = 18, 3


def _protocol_cost(n: int, seed: int) -> tuple[float, float]:
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(n)
    start_redirects = net.stats.redirects
    start_events = 0
    history = churn_epochs(
        net, epochs=10, join_rate=5, leave_probability=0.03,
        failure_probability=0.03, min_population=20,
    )
    events = sum(h.joins + h.graceful_leaves + h.repairs for h in history)
    redirects = net.stats.redirects - start_redirects
    return redirects / events, float(net.population)


def _congestion_cycle(seed: int):
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(60)
    controller = CongestionController(net.server, restore_after=3)
    cohort = net.matrix.node_ids[10:25]
    # congestion phase: cohort reports congested for 6 rounds
    for _ in range(6):
        for node in cohort:
            controller.observe(node, congested=True)
    shed_degrees = [net.matrix.row(node).degree for node in cohort]
    net.matrix.check_invariants()
    connect_during = min(net.connectivities().values())
    # calm phase: 12 quiet rounds
    for _ in range(12):
        for node in cohort:
            controller.observe(node, congested=False)
    restored_degrees = [net.matrix.row(node).degree for node in cohort]
    return (
        float(np.mean(shed_degrees)),
        connect_during,
        float(np.mean(restored_degrees)),
        len(controller.events),
    )


def experiment():
    cost_rows = []
    for n in (100, 400):
        per_event, population = _protocol_cost(n, 1200 + n)
        cost_rows.append([n, per_event, float(D)])
    shed, connect_during, restored, events = _congestion_cycle(1300)
    congestion_rows = [[shed, connect_during, restored, events]]
    return cost_rows, congestion_rows


def test_e12_congestion(benchmark):
    cost_rows, congestion_rows = run_once(benchmark, experiment)
    emit_table(
        "e12_protocol_cost",
        ["initial N", "redirects / membership event", "d (O(d) claim)"],
        cost_rows,
        title=f"E12a — protocol cost under churn (k={K}, d={D})",
    )
    emit_table(
        "e12_congestion",
        ["mean degree after shedding", "min connectivity during",
         "mean degree after recovery", "controller events"],
        congestion_rows,
        title="E12b — §5 congestion shed/restore cycle (60 nodes, 15 congested)",
    )
    # O(d): redirects per event bounded by ~d and flat in N
    per_event = [row[1] for row in cost_rows]
    assert all(cost <= D + 1 for cost in per_event)
    assert abs(per_event[0] - per_event[1]) < 1.0
    shed, connect_during, restored, _ = congestion_rows[0]
    assert shed < D  # threads actually shed
    assert connect_during >= 1  # nobody fully disconnected by congestion
    assert restored == D  # nominal degree recovered after calm
