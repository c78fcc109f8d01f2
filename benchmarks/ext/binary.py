"""Binary (GF(2)) network coding — the field-size ablation.

Some practical systems mix packets with plain XOR (coefficients in
GF(2)) to avoid finite-field multiplies.  The cost is innovation: a
random GF(q) combination is non-innovative with probability
``q^(rank − g)``, so q = 2 wastes measurably more transmissions near
completion than q = 256.  This module provides a minimal GF(2) codec —
coefficients are bit vectors, payloads are XOR combinations — so the
X-series ablation can measure that gap on the real decoder machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BinaryPacket:
    """A packet whose coefficient vector lives in GF(2)^g.

    ``payload`` is the XOR of the selected source packets.
    """

    coefficients: np.ndarray  # uint8 in {0, 1}
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = (np.asarray(self.coefficients) & 1).astype(np.uint8)
        self.payload = np.asarray(self.payload, dtype=np.uint8)

    @property
    def generation_size(self) -> int:
        return int(self.coefficients.shape[0])


class BinaryEncoder:
    """Source encoder: uniform random nonzero subsets, XOR payloads."""

    def __init__(self, source: np.ndarray, rng: np.random.Generator) -> None:
        self.source = np.asarray(source, dtype=np.uint8)
        if self.source.ndim != 2:
            raise ValueError("source must be a (g, L) byte matrix")
        self._rng = rng

    @property
    def generation_size(self) -> int:
        return int(self.source.shape[0])

    def emit(self) -> BinaryPacket:
        coefficients = self._rng.integers(
            0, 2, size=self.generation_size, dtype=np.uint8
        )
        if not coefficients.any():
            coefficients[int(self._rng.integers(0, self.generation_size))] = 1
        selected = np.nonzero(coefficients)[0]
        payload = np.zeros(self.source.shape[1], dtype=np.uint8)
        for index in selected:
            payload ^= self.source[index]
        return BinaryPacket(coefficients=coefficients, payload=payload)


class BinaryDecoder:
    """Progressive GF(2) Gaussian elimination (pure XOR)."""

    def __init__(self, generation_size: int, payload_size: int) -> None:
        self.generation_size = generation_size
        self.payload_size = payload_size
        self._rows: list[np.ndarray] = []  # rows kept in echelon form
        self._pivots: list[int] = []
        self.rank = 0
        self.received = 0
        self.innovative = 0

    @property
    def is_complete(self) -> bool:
        return self.rank == self.generation_size

    def push(self, packet: BinaryPacket) -> bool:
        self.received += 1
        if self.is_complete:
            return False
        row = np.concatenate([packet.coefficients, packet.payload]).astype(np.uint8)
        for pivot, basis in zip(self._pivots, self._rows):
            if row[pivot]:
                row ^= basis
        pivot = -1
        for col in range(self.generation_size):
            if row[col]:
                pivot = col
                break
        if pivot < 0:
            return False
        # back-substitute the new pivot out of existing rows
        for i, basis in enumerate(self._rows):
            if basis[pivot]:
                self._rows[i] = basis ^ row
        self._rows.append(row)
        self._pivots.append(pivot)
        self.rank += 1
        self.innovative += 1
        return True

    def recover(self) -> np.ndarray:
        """The decoded (g, L) source matrix; requires completeness."""
        if not self.is_complete:
            raise RuntimeError(f"rank {self.rank}/{self.generation_size}")
        out = np.zeros((self.generation_size, self.payload_size), dtype=np.uint8)
        for pivot, row in zip(self._pivots, self._rows):
            out[pivot] = row[self.generation_size:]
        return out

    @property
    def efficiency(self) -> float:
        """Fraction of received packets that were innovative."""
        return self.innovative / self.received if self.received else 1.0


def innovation_probability_q(q: int, generation_size: int, have_rank: int) -> float:
    """P(a uniform GF(q) combination is innovative | receiver rank).

    ``1 − q^(have_rank − generation_size)``: the chance a uniform vector
    of GF(q)^g misses a fixed ``have_rank``-dimensional subspace.
    """
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if have_rank >= generation_size:
        return 0.0
    return 1.0 - float(q) ** (have_rank - generation_size)
