#!/usr/bin/env python
"""Stopping jammers with homomorphic hashes (§7's open problem).

The paper: a jamming attacker injects random packets that *claim* to be
valid combinations; after in-network mixing they contaminate nearly
every decode, and "it is an open problem whether such a [combinable
signature] scheme is possible."

It is — Krohn–Freedman–Mazières (Oakland 2004).  This demo runs the
same relay pipeline twice:

1. unprotected GF(2⁸): one jammer per hop; receivers decode garbage
   without knowing it;
2. the verified Z_q plane: the source publishes one homomorphic hash
   per original packet; every relay checks every packet — including
   *mixtures produced by other relays* — and garbage dies on contact.

Run:  python examples/verified_streaming.py
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.coding import Decoder, GenerationParams, Recoder, SourceEncoder
from repro.coding.packet import CodedPacket

# The Z_q codec and the hash live beside their experiment (X4), not in
# the library: benchmarks/ext/security.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from ext.security import (  # noqa: E402
    HomomorphicHasher,
    PrimeDecoder,
    PrimeEncoder,
    VerifiedRelay,
    bytes_to_symbols,
    generate_params,
    make_jam_packet,
    symbols_to_bytes,
)

CONTENT_BYTES = 1_500
SYMBOLS = 24  # 72 bytes of payload per packet on the verified plane
SEED = 7


def unprotected() -> None:
    rng = np.random.default_rng(SEED)
    content = rng.integers(0, 256, size=CONTENT_BYTES, dtype=np.uint8).tobytes()
    params = GenerationParams(generation_size=15, payload_size=100)
    encoder = SourceEncoder(content, params, rng)
    relay = Recoder(params, encoder.generation_count, rng, node_id=1)
    sink = Decoder(params, encoder.generation_count)
    jam_rng = np.random.default_rng(SEED + 1)
    while not sink.is_complete:
        relay.receive(encoder.emit(0))
        jam = CodedPacket(
            generation=0,
            coefficients=jam_rng.integers(1, 256, size=15, dtype=np.uint8),
            payload=jam_rng.integers(0, 256, size=100, dtype=np.uint8),
        )
        relay.receive(jam)  # the relay cannot tell — it mixes the poison in
        packet = relay.emit(0)
        if packet is not None:
            sink.push(packet)
    poisoned = sink.recover(len(content)) != content
    print(f"[unprotected] decode finished; poisoned: {poisoned}")


def protected() -> None:
    rng = np.random.default_rng(SEED)
    content = rng.integers(0, 256, size=CONTENT_BYTES, dtype=np.uint8).tobytes()
    source = bytes_to_symbols(content, SYMBOLS)
    g = source.shape[0]
    encoder = PrimeEncoder(source, rng)

    t0 = time.perf_counter()
    params = generate_params(SYMBOLS, seed=SEED)
    hasher = HomomorphicHasher(params)
    hashes = hasher.hash_generation(source)
    setup = time.perf_counter() - t0
    print(f"[verified]    published {g} source hashes "
          f"(group modulus {params.modulus.bit_length()} bits, "
          f"setup {setup * 1000:.1f} ms)")

    relay = VerifiedRelay(hasher, hashes, g, SYMBOLS, rng, node_id=1)
    sink = PrimeDecoder(g, SYMBOLS)
    jam_rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    while not sink.is_complete:
        relay.receive(encoder.emit())
        relay.receive(make_jam_packet(g, SYMBOLS, jam_rng))
        packet = relay.emit()
        if packet is not None:
            sink.push(packet)
    elapsed = time.perf_counter() - t0
    clean = symbols_to_bytes(sink.recover(), len(content)) == content
    checks = relay.stats.accepted + relay.stats.rejected
    print(f"[verified]    decode finished; bit-exact: {clean}")
    print(f"[verified]    {relay.stats.rejected} jam packets rejected on "
          f"contact ({checks} verifications, "
          f"{elapsed / checks * 1000:.2f} ms each at demo parameters)")


def main() -> None:
    print(f"streaming {CONTENT_BYTES} bytes through a relay with a jammer "
          "injecting one garbage packet per slot\n")
    unprotected()
    print()
    protected()
    print("\nthe hash composes under mixing — H(au+bv) = H(u)^a H(v)^b — so\n"
          "any relay can verify any mixture from the source hashes alone.\n"
          "Production deployments use >=1024-bit groups and batched checks.")


if __name__ == "__main__":
    main()
