"""The verified relay: drop jammed packets at first contact.

Combines the Z_q codec and the homomorphic hash into the §7 defence: a
:class:`VerifiedRelay` wraps a recoder and verifies every incoming
packet against the source's published generation hashes before letting
it into the buffer.  Because verified inputs combine into verifiable
outputs (the homomorphism), an overlay of verified relays confines a
jammer's garbage to its immediate links — the exact dual of the
unprotected system, where one jammer contaminates nearly every decode
(experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import PrimePacket, PrimeRecoder
from .homomorphic import HomomorphicHasher


@dataclass
class RelayStats:
    """Verification accounting for one relay."""

    accepted: int = 0
    rejected: int = 0

    @property
    def rejection_rate(self) -> float:
        total = self.accepted + self.rejected
        return self.rejected / total if total else 0.0


class VerifiedRelay:
    """A peer that verifies, buffers and remixes packets over Z_q.

    Args:
        hasher: Shared public hash parameters.
        source_hashes: The generation's published source-packet hashes.
        generation_size: g.
        symbol_count: S.
        rng: Mixing randomness.
        node_id: Identifier stamped on emissions.
    """

    def __init__(
        self,
        hasher: HomomorphicHasher,
        source_hashes: list[int],
        generation_size: int,
        symbol_count: int,
        rng: np.random.Generator,
        node_id: int = -1,
    ) -> None:
        self.hasher = hasher
        self.source_hashes = list(source_hashes)
        self.recoder = PrimeRecoder(generation_size, symbol_count, rng, node_id)
        self.stats = RelayStats()

    def receive(self, packet: PrimePacket) -> bool:
        """Verify then ingest; returns True iff accepted AND innovative.

        Invalid packets are rejected before touching the buffer — the
        jamming payload never mixes into this relay's emissions.
        """
        if not self.hasher.verify(packet, self.source_hashes):
            self.stats.rejected += 1
            return False
        self.stats.accepted += 1
        return self.recoder.receive(packet)

    def emit(self) -> Optional[PrimePacket]:
        """A fresh mixture of the (all-verified) buffer."""
        return self.recoder.emit()

    @property
    def is_complete(self) -> bool:
        return self.recoder.decoder.is_complete


def make_jam_packet(generation_size: int, symbol_count: int,
                    rng: np.random.Generator, origin: int = -2) -> PrimePacket:
    """A garbage packet whose header claims a valid combination."""
    from .modmath import Q

    coefficients = rng.integers(0, Q, size=generation_size, dtype=np.int64)
    if not coefficients.any():
        coefficients[0] = 1
    payload = rng.integers(0, Q, size=symbol_count, dtype=np.int64)
    return PrimePacket(coefficients=coefficients, payload=payload, origin=origin)
