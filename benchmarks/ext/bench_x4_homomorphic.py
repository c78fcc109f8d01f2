"""X4 — §7's open problem implemented: homomorphic-hash jamming defence.

A relay chain carries one generation while a jammer injects garbage at
every hop.  Three configurations:

* unprotected GF(2⁸) plane (the E11 situation): decode completes but is
  poisoned;
* verified Z_q plane: every packet is checked against the source's
  published homomorphic hashes; jam packets die on contact and the
  decode is clean;
* verification micro-cost: hash checks per packet (pytest-benchmark).
"""

import numpy as np

from repro.coding import Decoder, GenerationParams, Recoder, SourceEncoder
from repro.coding.packet import CodedPacket

from conftest import emit_table, run_once

from .security import (
    HomomorphicHasher,
    PrimeDecoder,
    PrimeEncoder,
    VerifiedRelay,
    bytes_to_symbols,
    generate_params,
    make_jam_packet,
    symbols_to_bytes,
)

GENERATION, SYMBOLS = 12, 16
CONTENT = 500


def _unprotected(seed: int):
    """GF(256) relay chain with a jammer: completes but poisoned."""
    rng = np.random.default_rng(seed)
    content = bytes(rng.integers(0, 256, size=CONTENT, dtype=np.uint8))
    params = GenerationParams(GENERATION, 48)
    encoder = SourceEncoder(content, params, rng)
    relay = Recoder(params, encoder.generation_count, rng, node_id=1)
    sink = Decoder(params, encoder.generation_count)
    jam_rng = np.random.default_rng(seed + 1)
    injected = 0
    for _ in range(400):
        if sink.is_complete:
            break
        relay.receive(encoder.emit(0))
        jam = CodedPacket(
            generation=0,
            coefficients=jam_rng.integers(0, 256, size=GENERATION, dtype=np.uint8),
            payload=jam_rng.integers(0, 256, size=48, dtype=np.uint8),
        )
        if not jam.coefficients.any():
            jam.coefficients[0] = 1
        relay.receive(jam)
        injected += 1
        packet = relay.emit(0)
        if packet is not None:
            sink.push(packet)
    poisoned = True
    if sink.is_complete:
        poisoned = sink.recover(len(content)) != content
    return sink.is_complete, poisoned, injected


def _protected(seed: int):
    """Verified Z_q relay chain: jam packets rejected, decode clean."""
    rng = np.random.default_rng(seed)
    content = bytes(rng.integers(0, 256, size=CONTENT, dtype=np.uint8))
    source = bytes_to_symbols(content, SYMBOLS)
    g = source.shape[0]
    encoder = PrimeEncoder(source, rng)
    hasher = HomomorphicHasher(generate_params(SYMBOLS, seed=seed))
    hashes = hasher.hash_generation(source)
    relay = VerifiedRelay(hasher, hashes, g, SYMBOLS, rng, node_id=1)
    sink = PrimeDecoder(g, SYMBOLS)
    jam_rng = np.random.default_rng(seed + 1)
    injected = 0
    for _ in range(400):
        if sink.is_complete:
            break
        relay.receive(encoder.emit())
        relay.receive(make_jam_packet(g, SYMBOLS, jam_rng))
        injected += 1
        packet = relay.emit()
        if packet is not None:
            sink.push(packet)
    clean = (
        sink.is_complete
        and symbols_to_bytes(sink.recover(), len(content)) == content
    )
    return sink.is_complete, not clean, injected, relay.stats.rejected


def experiment():
    done_u, poisoned_u, injected_u = _unprotected(61)
    done_p, poisoned_p, injected_p, rejected = _protected(61)
    rows = [
        ["unprotected GF(256)", done_u, poisoned_u, injected_u, None],
        ["verified Z_q (KFM hash)", done_p, poisoned_p, injected_p, rejected],
    ]
    return rows


def test_x4_homomorphic_defence(benchmark):
    rows = run_once(benchmark, experiment)
    emit_table(
        "x4_homomorphic",
        ["data plane", "decode complete", "decode poisoned",
         "jam packets injected", "jam packets rejected"],
        rows,
        title="X4 — jamming with and without homomorphic-hash verification",
    )
    unprotected, protected = rows
    assert unprotected[2] is True  # jammer wins without verification
    assert protected[1] is True and protected[2] is False  # defence works
    assert protected[4] == protected[3]  # every injected jam rejected


def test_x4_verification_cost(benchmark):
    """Micro-cost of verifying one packet (hash + homomorphic combine)."""
    rng = np.random.default_rng(9)
    source = rng.integers(0, 2**31 - 1, size=(GENERATION, SYMBOLS))
    encoder = PrimeEncoder(source, rng)
    hasher = HomomorphicHasher(generate_params(SYMBOLS, seed=9))
    hashes = hasher.hash_generation(source)
    packet = encoder.emit()
    ok = benchmark(hasher.verify, packet, hashes)
    assert ok
