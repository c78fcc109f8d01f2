"""X9 — ergodic failures: bursty outages vs uniform packet loss.

§2 folds two different ergodic phenomena into one parameter: per-packet
loss and per-node *outages* (congestion episodes, competing traffic).
At equal long-run delivery ratio they are not equivalent for streaming:
an outage silences all of a node's threads *simultaneously and for
consecutive slots*, which is exactly the correlated burst that deadline-
driven playback hates, while uniform loss spreads the same damage thinly
across time and threads where RLNC shrugs it off.

We fix the average delivery ratio and compare download completion and
playback continuity under (a) uniform loss and (b) on/off outages of
increasing burst length.
"""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import LossModel, OutageModel, PlaybackMonitor, rlnc

from conftest import emit_table, run_once

K, D, N = 12, 3, 30
TARGET_UNAVAILABILITY = 0.10  # long-run fraction of node-time silenced
BURSTS = (2.0, 5.0, 10.0)  # mean outage durations in slots
SLOTS = 240


def _run(condition: str, mean_burst: float, seed: int):
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(N)
    rng = np.random.default_rng(seed + 1)
    content = bytes(rng.integers(0, 256, size=6000, dtype=np.uint8))
    loss = None
    outage = None
    if condition == "loss":
        loss = LossModel(TARGET_UNAVAILABILITY)
    else:
        recovery = 1.0 / mean_burst
        onset = TARGET_UNAVAILABILITY * recovery / (1.0 - TARGET_UNAVAILABILITY)
        outage = OutageModel(onset=onset, recovery=recovery)
    sim = rlnc(
        net, content, GenerationParams(10, 60), seed=seed + 2,
        loss=loss, outage=outage,
    )
    monitor = PlaybackMonitor(sim=sim, window=8, startup_delay=15)
    monitor.run(SLOTS)
    continuity = list(monitor.continuity_summary().values())
    report = sim.report()
    return (
        report.completion_fraction,
        float(np.mean(continuity)) if continuity else 0.0,
    )


def experiment():
    rows = []
    results = {}
    conditions = [("uniform loss", 0.0)] + [
        (f"outage bursts ~{int(b)} slots", b) for b in BURSTS
    ]
    for label, burst in conditions:
        condition = "loss" if burst == 0.0 else "outage"
        completions, continuities = zip(
            *(_run(condition, burst, 5100 + int(burst * 10) + r)
              for r in range(3))
        )
        results[label] = (float(np.mean(completions)),
                          float(np.mean(continuities)))
        rows.append([label, TARGET_UNAVAILABILITY, *results[label]])
    return rows, results


def test_x9_outages(benchmark):
    rows, results = run_once(benchmark, experiment)
    emit_table(
        "x9_outages",
        ["condition", "unavailability", "completion", "mean continuity"],
        rows,
        title=(
            f"X9 — equal {TARGET_UNAVAILABILITY:.0%} unavailability, "
            f"different burstiness (k={K}, d={D}, N={N}, {SLOTS} slots)"
        ),
    )
    uniform = results["uniform loss"]
    longest = results[f"outage bursts ~{int(BURSTS[-1])} slots"]
    # uniform loss barely dents continuity; long correlated bursts do
    assert uniform[1] >= longest[1]
    assert uniform[1] - longest[1] > 0.03
    # downloads still complete under every condition (RLNC robustness)
    for completion, _ in results.values():
        assert completion >= 0.9