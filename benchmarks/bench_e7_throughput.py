"""E7 — throughput: network coding vs every baseline, under failures.

One overlay geometry, escalating batch-failure fractions.  Conditions:

* RLNC on the curtain overlay (packet-level simulation) — download time
  and goodput;
* uncoded store-and-forward flooding on the same overlay (packet-level);
* Edmonds branching packing routed statically (flow-level: stripes whose
  tree paths survive);
* erasure multi-parent striping, strict (m = d) and protected (m = d-1);
* the unicast chain (closed-form delivery probability).

Expected shape: RLNC completes near the min-cut rate and degrades ∝ p;
flooding pays the coupon-collector tax even at p = 0; fixed trees and
per-column striping fall off much faster with p; chains are hopeless at
depth.
"""

import numpy as np

from repro.baselines import (
    ChainOverlay,
    curtain_tree_decomposition,
    evaluate_erasure_overlay,
    route_stripes,
)
from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.failures import RandomBatchFailures
from repro.sim import RarestFirstBehavior, rlnc, uncoded

from conftest import emit_table, run_once

K, D, N = 16, 2, 64
GENERATION = 16
PAYLOAD = 64
FAIL_FRACTIONS = (0.0, 0.05, 0.1)


def _build(seed):
    net = OverlayNetwork(k=K, d=D, seed=seed)
    net.grow(N)
    return net


BUDGET = 600


def _outcome(sim) -> tuple[float, float]:
    """(completion fraction, slot by which the last survivor finished)."""
    report = sim.run_until_complete(max_slots=BUDGET)
    slots = report.completion_slots()
    return report.completion_fraction, float(max(slots)) if slots else float(BUDGET)


def _rlnc(net, seed) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    content = bytes(rng.integers(0, 256, size=GENERATION * PAYLOAD, dtype=np.uint8))
    return _outcome(rlnc(net, content, GenerationParams(GENERATION, PAYLOAD), seed=seed))


def _flooding(net, seed) -> tuple[float, float]:
    return _outcome(uncoded(net, GENERATION, seed=seed))


def _rarest(net, seed) -> tuple[float, float]:
    return _outcome(uncoded(net, GENERATION, seed=seed, behavior=RarestFirstBehavior))


def experiment():
    rows = []
    for fraction in FAIL_FRACTIONS:
        seed = 700 + int(fraction * 1000)
        # build identical overlays per condition, inject identical failures
        trees_net = _build(seed)
        trees = curtain_tree_decomposition(trees_net.matrix)
        failure_rng = np.random.default_rng(seed + 1)
        victims = (
            RandomBatchFailures(fraction).select(trees_net, failure_rng)
            if fraction
            else []
        )

        rlnc_net = _build(seed)
        for victim in victims:
            rlnc_net.fail(victim)
        rlnc_completion, rlnc_last = _rlnc(rlnc_net, seed + 2)

        flood_net = _build(seed)
        for victim in victims:
            flood_net.fail(victim)
        flood_completion, flood_last = _flooding(flood_net, seed + 3)

        rarest_net = _build(seed)
        for victim in victims:
            rarest_net.fail(victim)
        _, rarest_last = _rarest(rarest_net, seed + 3)

        edmonds = route_stripes(trees, failed=set(victims))

        erasure_net = _build(seed)
        for victim in victims:
            erasure_net.fail(victim)
        strict = evaluate_erasure_overlay(
            erasure_net.matrix, erasure_net.failed, required=D
        )
        protected = evaluate_erasure_overlay(
            erasure_net.matrix, erasure_net.failed, required=max(1, D - 1)
        )

        chain = ChainOverlay(k=K, population=N)
        rows.append([
            fraction,
            rlnc_completion, rlnc_last,
            flood_completion, flood_last,
            rarest_last,
            edmonds.full_delivery_fraction,
            strict.decode_fraction,
            protected.decode_fraction,
            chain.mean_delivery(fraction),
        ])
    return rows


def test_e7_throughput(benchmark):
    rows = run_once(benchmark, experiment)
    emit_table(
        "e7_throughput",
        ["fail frac", "RLNC done", "RLNC last slot", "flood done",
         "flood last slot", "rarest-first last", "edmonds full",
         "erasure m=d", "erasure m=d-1", "chain delivery"],
        rows,
        title=(
            f"E7 — throughput vs baselines (k={K}, d={D}, N={N}, "
            f"g={GENERATION}, {BUDGET}-slot budget)"
        ),
    )
    by_fraction = {row[0]: row for row in rows}
    healthy = by_fraction[0.0]
    # RLNC completes for everyone, and strictly faster than uncoded
    # flooding (the coupon-collector tax)
    assert healthy[1] == 1.0
    assert healthy[2] < healthy[4]
    # BitTorrent-style rarest-first closes part of that gap but not all
    assert healthy[2] <= healthy[5] <= healthy[4]
    # under failures RLNC keeps (weakly) more nodes complete than static
    # Edmonds trees keep fully served
    stressed = by_fraction[0.1]
    assert stressed[1] >= stressed[6] - 0.05
    # erasure protection (m = d-1) beats strict striping under failures
    assert stressed[8] >= stressed[7]
