"""X5 — ablation: coding field size (GF(2) XOR-only vs GF(2⁸)).

The paper codes over a "large enough" field implicitly; practical
systems sometimes use plain XOR.  The price is innovation: a random
combination is non-innovative with probability q^(rank−g), so near
completion GF(2) wastes ~2× transmissions on the last dimensions.  We
measure packets-to-decode for both fields across generation sizes and
print the analytic expected overhead Σ 1/(1−q^{r−g}) next to it.
"""

import numpy as np

from repro.coding import Decoder, GenerationParams, SourceEncoder

from conftest import emit_table, run_once

from .binary import BinaryDecoder, BinaryEncoder, innovation_probability_q

GENERATIONS = (8, 16, 32)
PAYLOAD = 32
TRIALS = 25


def _analytic_cost(q: int, g: int) -> float:
    return sum(1.0 / innovation_probability_q(q, g, r) for r in range(g))


def _gf2_cost(g: int, rng) -> int:
    source = rng.integers(0, 256, size=(g, PAYLOAD), dtype=np.uint8)
    encoder = BinaryEncoder(source, rng)
    decoder = BinaryDecoder(g, PAYLOAD)
    while not decoder.is_complete:
        decoder.push(encoder.emit())
    return decoder.received


def _gf256_cost(g: int, rng) -> int:
    params = GenerationParams(g, PAYLOAD)
    content = bytes(rng.integers(0, 256, size=g * PAYLOAD, dtype=np.uint8))
    encoder = SourceEncoder(content, params, rng)
    decoder = Decoder(params, 1)
    while not decoder.is_complete:
        decoder.push(encoder.emit())
    return decoder.generations[0].received


def experiment():
    rows = []
    rng = np.random.default_rng(71)
    for g in GENERATIONS:
        gf2 = float(np.mean([_gf2_cost(g, rng) for _ in range(TRIALS)]))
        gf256 = float(np.mean([_gf256_cost(g, rng) for _ in range(TRIALS)]))
        rows.append([
            g,
            gf2, _analytic_cost(2, g),
            gf256, _analytic_cost(256, g),
            gf2 / gf256,
        ])
    return rows


def test_x5_field_size(benchmark):
    rows = run_once(benchmark, experiment)
    emit_table(
        "x5_field_size",
        ["g", "GF(2) packets", "GF(2) analytic", "GF(256) packets",
         "GF(256) analytic", "GF(2)/GF(256)"],
        rows,
        title="X5 — packets to decode one generation, by coding field",
    )
    for g, gf2, gf2_pred, gf256, gf256_pred, ratio in rows:
        # measured costs track the analytic coupon expectations
        assert abs(gf2 - gf2_pred) < 0.15 * gf2_pred + 0.5
        assert abs(gf256 - gf256_pred) < 0.05 * gf256_pred + 0.5
        # GF(2) overhead is real but bounded (≈ +1.6 packets for any g)
        assert gf256 < gf2 < gf256 + 4
