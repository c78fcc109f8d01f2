"""X8 — §5 end to end: heterogeneous classes + PET graceful degradation.

A mixed swarm (DSL d=2, cable d=4, T1 d=8) receives a 3-layer
priority-encoded broadcast (thresholds 2/4/8 stripes).  The data plane
is RLNC, so a node's deliverable rate equals its edge-connectivity from
the server (the network-coding theorem); by the MDS property, receiving
``r`` units of coded rate is as good as holding any ``r`` PET stripes.
Quality per node = the PET staircase evaluated at its connectivity.

Expected shape: at rest, quality equals bandwidth class exactly; under
batch failures degradation is a monotone staircase, and the *slack*
``d − m_base`` protects the base layer — T1 viewers essentially never
lose the broadcast, DSL viewers (zero slack) lose base exactly when a
parent dies.
"""

import numpy as np

from repro.core import BandwidthClass, OverlayNetwork, join_population
from repro.failures import RandomBatchFailures, apply_failures

from conftest import emit_table, run_once

from .pet import PETEncoder, PETLayer

K = 32
CLASSES = (
    BandwidthClass("dsl", 2),
    BandwidthClass("cable", 4),
    BandwidthClass("t1", 8),
)
THRESHOLDS = {"base": 2, "mid": 4, "full": 8}
POPULATION = 150
FAIL_SWEEP = (0.0, 0.1, 0.2)
REPEATS = 3


def _build_pet(rng) -> PETEncoder:
    layers = [
        PETLayer(name, threshold=m,
                 data=bytes(rng.integers(0, 256, size=50 * m, dtype=np.uint8)))
        for name, m in THRESHOLDS.items()
    ]
    return PETEncoder(layers, n=max(THRESHOLDS.values()))


def _class_quality(fraction: float, seed: int):
    net = OverlayNetwork(k=K, d=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    membership = join_population(net, list(CLASSES), weights=[3, 2, 1],
                                 count=POPULATION, rng=rng)
    encoder = _build_pet(rng)
    if fraction:
        apply_failures(net, RandomBatchFailures(fraction), rng)
    failed = net.failed
    connectivities = net.connectivities(
        [n for n in membership if n not in failed]
    )
    outcome = {cls.name: {name: 0 for name in THRESHOLDS} | {"n": 0}
               for cls in CLASSES}
    for node, cls in membership.items():
        if node in failed:
            continue
        rate_units = connectivities[node]
        outcome[cls.name]["n"] += 1
        for layer in encoder.decodable_layers(rate_units):
            outcome[cls.name][layer] += 1
    return outcome


def experiment():
    summary = {}
    for fraction in FAIL_SWEEP:
        for repeat in range(REPEATS):
            outcome = _class_quality(fraction,
                                     9000 + int(fraction * 100) + repeat)
            for cls in CLASSES:
                data = outcome[cls.name]
                key = (fraction, cls.name)
                previous = summary.get(key, (0.0, 0.0, 0.0, 0))
                n = data["n"]
                summary[key] = (
                    previous[0] + data["base"],
                    previous[1] + data["mid"],
                    previous[2] + data["full"],
                    previous[3] + n,
                )
    rows = []
    fractions = {}
    for (fraction, name), (base, mid, full, n) in sorted(summary.items()):
        cls = next(c for c in CLASSES if c.name == name)
        n = max(1, n)
        fractions[(fraction, name)] = (base / n, mid / n, full / n)
        rows.append([fraction, name, cls.degree, base / n, mid / n, full / n])
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows, fractions


def test_x8_pet(benchmark):
    rows, summary = run_once(benchmark, experiment)
    emit_table(
        "x8_pet",
        ["fail frac", "class", "d", "base (m=2)", "mid (m=4)", "full (m=8)"],
        rows,
        title=(
            f"X8 — PET quality by bandwidth class (RLNC rate = connectivity; "
            f"k={K}, N={POPULATION})"
        ),
    )
    # healthy network: quality == bandwidth class, exactly
    assert summary[(0.0, "dsl")] == (1.0, 0.0, 0.0)
    assert summary[(0.0, "cable")] == (1.0, 1.0, 0.0)
    assert summary[(0.0, "t1")] == (1.0, 1.0, 1.0)
    # slack protects the base layer: t1 (slack 6) never loses it, cable
    # (slack 2) keeps it more often than dsl (slack 0)
    for fraction in FAIL_SWEEP[1:]:
        assert summary[(fraction, "t1")][0] >= 0.95
        assert summary[(fraction, "cable")][0] >= summary[(fraction, "dsl")][0]
    # degradation is monotone in the failure rate (per class/layer)
    for cls in CLASSES:
        for layer_index in range(3):
            series = [summary[(f, cls.name)][layer_index] for f in FAIL_SWEEP]
            assert all(b <= a + 0.02 for a, b in zip(series, series[1:]))
