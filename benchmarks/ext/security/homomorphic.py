"""Homomorphic hashing for network coding — §7's open problem, realised.

The paper: "to prevent a jamming attack in an open system that uses
network coding, one would need a signature scheme such that the
signature of a mixed packet can be easily derived from the signatures
of the packets contributing to the mixture.  It is an open problem
whether such a scheme is possible."

It is — Krohn, Freedman and Mazières published exactly this
construction ("On-the-fly verification of rateless erasure codes",
Oakland 2004, contemporaneous with the paper).  This module implements
it:

* public parameters: a prime ``P`` with ``q | P − 1`` (``q`` the coding
  field modulus) and ``S`` generators of the order-``q`` subgroup of
  ``Z_P*``;
* hash of a packet ``v ∈ Z_q^S``:  ``H(v) = ∏ gᵢ^{vᵢ} mod P``;
* homomorphism:  ``H(a·u + b·v) = H(u)^a · H(v)^b mod P``, so any node
  can verify any *mixture* given only the source packets' hashes — no
  trust in intermediate mixers required.

The source publishes (signs, out of band) the per-generation hash
vector; every peer verifies incoming packets before mixing, and jammed
packets are detected immediately instead of contaminating the swarm.
Discrete-log hardness in the subgroup makes forging a packet with a
matching hash infeasible (the 62-bit default modulus here is
demonstration-scale; production would use ≥ 1024-bit ``P``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import PrimePacket
from .modmath import Q

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for n < 3.3e24 (fixed witness set)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(witness, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def find_group_modulus(q: int = Q, start: int = 2) -> int:
    """Smallest prime ``P = 2·c·q + 1`` with ``c >= start``.

    ``q | P − 1`` guarantees an order-``q`` subgroup of ``Z_P*``.
    """
    c = start
    while True:
        candidate = 2 * c * q + 1
        if _is_prime(candidate):
            return candidate
        c += 1


@dataclass(frozen=True)
class HashParams:
    """Public parameters of the homomorphic hash.

    Attributes:
        modulus: The group prime ``P``.
        order: The subgroup order ``q`` (the coding field modulus).
        generators: ``S`` generators of the order-``q`` subgroup, one per
            payload symbol.
    """

    modulus: int
    order: int
    generators: tuple[int, ...]

    @property
    def symbol_count(self) -> int:
        return len(self.generators)


def generate_params(symbol_count: int, seed: int | None = None,
                    q: int = Q) -> HashParams:
    """Generate public hash parameters for ``symbol_count`` symbols."""
    if symbol_count < 1:
        raise ValueError("symbol_count must be >= 1")
    modulus = find_group_modulus(q)
    cofactor = (modulus - 1) // q
    rng = np.random.default_rng(seed)
    generators = []
    while len(generators) < symbol_count:
        h = int(rng.integers(2, modulus - 1))
        g = pow(h, cofactor, modulus)
        if g != 1:
            generators.append(g)
    return HashParams(modulus=modulus, order=q, generators=tuple(generators))


class HomomorphicHasher:
    """Hash, combine and verify packets under fixed public parameters."""

    def __init__(self, params: HashParams) -> None:
        self.params = params

    def hash_payload(self, payload: np.ndarray) -> int:
        """``H(v) = ∏ gᵢ^{vᵢ} mod P`` for a symbol vector ``v``."""
        payload = np.asarray(payload, dtype=np.int64)
        if payload.shape[0] != self.params.symbol_count:
            raise ValueError("payload length does not match generator count")
        result = 1
        modulus = self.params.modulus
        for generator, symbol in zip(self.params.generators, payload):
            result = (result * pow(generator, int(symbol) % self.params.order,
                                   modulus)) % modulus
        return result

    def hash_generation(self, source: np.ndarray) -> list[int]:
        """Per-source-packet hashes the server publishes (and signs)."""
        return [self.hash_payload(row) for row in np.asarray(source)]

    def combine_hashes(self, hashes: list[int],
                       coefficients: np.ndarray) -> int:
        """``H(∑ cⱼ·vⱼ) = ∏ Hⱼ^{cⱼ}`` — the homomorphism itself."""
        coefficients = np.asarray(coefficients, dtype=np.int64)
        if len(hashes) != coefficients.shape[0]:
            raise ValueError("one coefficient per source hash required")
        result = 1
        modulus = self.params.modulus
        for h, c in zip(hashes, coefficients):
            exponent = int(c) % self.params.order
            if exponent:
                result = (result * pow(int(h), exponent, modulus)) % modulus
        return result

    def verify(self, packet: PrimePacket, source_hashes: list[int]) -> bool:
        """True iff the packet really is the combination it claims to be."""
        expected = self.combine_hashes(source_hashes, packet.coefficients)
        return self.hash_payload(packet.payload) == expected
