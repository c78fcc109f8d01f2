"""RLNC codec over the prime field Z_q — the hash-verifiable data plane.

Mirrors :mod:`repro.coding` but with coefficients and symbols in
Z_q (q = 2³¹−1), which is what the homomorphic hash of
:mod:`ext.security.homomorphic` can verify.  Single-generation API:
the §7 defence is per-generation anyway (the source publishes one hash
vector per generation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .modmath import Q, as_field, matmul_mod, rref_mod


@dataclass
class PrimePacket:
    """A coded packet over Z_q.

    Attributes:
        coefficients: length-g int64 vector in Z_q.
        payload: length-S int64 symbol vector in Z_q.
        origin: emitting node id (diagnostics).
    """

    coefficients: np.ndarray
    payload: np.ndarray
    origin: int = -1

    def __post_init__(self) -> None:
        self.coefficients = as_field(self.coefficients)
        self.payload = as_field(self.payload)

    @property
    def generation_size(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def symbol_count(self) -> int:
        return int(self.payload.shape[0])


class PrimeEncoder:
    """Source encoder over Z_q for one generation.

    Args:
        source: ``(g, S)`` int64 matrix of source symbol vectors.
        rng: Coding randomness.
    """

    def __init__(self, source: np.ndarray, rng: np.random.Generator) -> None:
        self.source = as_field(source)
        if self.source.ndim != 2:
            raise ValueError("source must be a (g, S) matrix")
        self._rng = rng

    @property
    def generation_size(self) -> int:
        return int(self.source.shape[0])

    def source_packet(self, index: int) -> PrimePacket:
        """The ``index``-th original packet in systematic form."""
        coefficients = np.zeros(self.generation_size, dtype=np.int64)
        coefficients[index] = 1
        return PrimePacket(coefficients=coefficients,
                           payload=self.source[index].copy())

    def emit(self) -> PrimePacket:
        """A fresh uniformly random combination of the source."""
        coefficients = self._rng.integers(0, Q, size=self.generation_size,
                                          dtype=np.int64)
        if not coefficients.any():
            coefficients[0] = 1
        payload = matmul_mod(coefficients[None, :], self.source)[0]
        return PrimePacket(coefficients=coefficients, payload=payload)


class PrimeDecoder:
    """Progressive Gaussian-elimination decoder over Z_q."""

    def __init__(self, generation_size: int, symbol_count: int) -> None:
        if generation_size < 1 or symbol_count < 1:
            raise ValueError("generation_size and symbol_count must be >= 1")
        self.generation_size = generation_size
        self.symbol_count = symbol_count
        self._rows = np.zeros((0, generation_size + symbol_count), dtype=np.int64)
        self.rank = 0
        self.received = 0

    @property
    def is_complete(self) -> bool:
        return self.rank == self.generation_size

    def push(self, packet: PrimePacket) -> bool:
        """Consume a packet; True iff innovative."""
        if packet.generation_size != self.generation_size:
            raise ValueError("generation size mismatch")
        if packet.symbol_count != self.symbol_count:
            raise ValueError("symbol count mismatch")
        self.received += 1
        if self.is_complete:
            return False
        row = np.concatenate([packet.coefficients, packet.payload])[None, :]
        candidate = np.concatenate([self._rows, row], axis=0)
        reduced, pivots = rref_mod(candidate, ncols=self.generation_size)
        if len(pivots) > self.rank:
            self._rows = reduced[: len(pivots)]
            self.rank = len(pivots)
            return True
        return False

    def recover(self) -> np.ndarray:
        """The decoded ``(g, S)`` source matrix; requires completeness."""
        if not self.is_complete:
            raise RuntimeError(f"rank {self.rank}/{self.generation_size}")
        # rows are in RREF with pivots 0..g-1 -> coefficient part is I
        return self._rows[:, self.generation_size:].copy()


class PrimeRecoder:
    """Buffer-and-mix over Z_q (verified packets only, in the defence)."""

    def __init__(self, generation_size: int, symbol_count: int,
                 rng: np.random.Generator, node_id: int = -1) -> None:
        self.decoder = PrimeDecoder(generation_size, symbol_count)
        self._rng = rng
        self.node_id = node_id

    def receive(self, packet: PrimePacket) -> bool:
        return self.decoder.push(packet)

    def emit(self) -> Optional[PrimePacket]:
        """A fresh random mixture of the buffered basis."""
        if self.decoder.rank == 0:
            return None
        scalars = self._rng.integers(1, Q, size=self.decoder.rank, dtype=np.int64)
        mixed = matmul_mod(scalars[None, :], self.decoder._rows)[0]
        g = self.decoder.generation_size
        return PrimePacket(coefficients=mixed[:g], payload=mixed[g:],
                           origin=self.node_id)
