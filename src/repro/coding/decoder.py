"""Progressive Gaussian-elimination decoder.

The decoder maintains, per generation, an augmented matrix
``[coefficients | payload]`` kept permanently in reduced row echelon form.
Each arriving packet is reduced against the current basis; *innovative*
packets (those that increase rank) are inserted, everything else is
discarded.  When the rank reaches the generation size the original block
is recovered directly from the RREF.

Every inner loop routes through :mod:`repro.gf.kernels`, one call per
step: a packet's whole insertion — copy into the free basis row,
elimination, pivot search, normalisation, back-substitution — is
:func:`~repro.gf.kernels.insert_row`, and
:meth:`GenerationDecoder.random_combination` draws its scalars with
:func:`~repro.gf.kernels.draw_rows` and mixes the basis into a
preallocated output buffer; see ``docs/performance.md``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gf.kernels import combine_rows, draw_rows, insert_row, mix_rows
from .generation import GenerationParams, join_content
from .packet import CodedPacket, SourceBlock


class GenerationDecoder:
    """Decoder state for a single generation."""

    def __init__(self, generation: int, params: GenerationParams) -> None:
        self.generation = generation
        self.params = params
        size = params.generation_size
        width = size + params.payload_size
        # Row i < rank has its pivot at column _pivot_cols[i]; row rank
        # is where insert_row writes the next packet.
        self._rows = np.zeros((size, width), dtype=np.uint8)
        self._pivot_cols = np.zeros(size, dtype=np.intp)
        self._scalars = np.empty((1, size), dtype=np.uint8)
        self._mix_out = np.empty(width, dtype=np.uint8)
        self.rank = 0
        self.received = 0
        self.innovative = 0

    @property
    def is_complete(self) -> bool:
        """True once the generation can be fully decoded."""
        return self.rank == self.params.generation_size

    def push(self, packet: CodedPacket) -> bool:
        """Consume a packet; returns True iff it was innovative."""
        if packet.generation != self.generation:
            raise ValueError("packet belongs to a different generation")
        self.received += 1
        if self.is_complete:
            return False
        if insert_row(self._rows, self._pivot_cols, self.rank,
                      packet.coefficients, packet.payload) < 0:
            return False  # non-innovative
        self.rank += 1
        self.innovative += 1
        return True

    def decoded_block(self) -> SourceBlock:
        """Recover the original source block; requires completeness."""
        if not self.is_complete:
            raise RuntimeError(
                f"generation {self.generation} rank {self.rank}"
                f"/{self.params.generation_size}: not decodable yet"
            )
        size = self.params.generation_size
        data = np.zeros((size, self.params.payload_size), dtype=np.uint8)
        # The RREF rows are a permutation of the identity: one vectorised
        # scatter puts row i's payload at its pivot position.
        data[self._pivot_cols[:size]] = self._rows[:, size:]
        return SourceBlock(generation=self.generation, data=data)

    def random_combination(self, rng: np.random.Generator) -> Optional[CodedPacket]:
        """Fresh uniform random mixture of the current basis (fast path).

        Computes the combination with one batched kernel call into a
        preallocated buffer — no per-row packet materialisation and no
        intermediate temporaries.  Returns None when the basis is empty.
        """
        if self.rank == 0:
            return None
        scalars = self._scalars[:, : self.rank]
        draw_rows(rng, scalars, 1)
        combined = mix_rows(scalars[0], self._rows[: self.rank], out=self._mix_out)
        size = self.params.generation_size
        return CodedPacket(
            generation=self.generation,
            coefficients=combined[:size].copy(),
            payload=combined[size:].copy(),
        )

    def mixture_rows(self, scalars: np.ndarray) -> np.ndarray:
        """Raw mixture matrix ``(m, size + payload)`` for pre-drawn scalars.

        One :func:`~repro.gf.kernels.combine_rows` gemm; row ``i`` is
        ``[coefficients | payload]`` of mixture ``i``.  The returned
        array is freshly allocated, so callers may keep views into it — this is the
        zero-copy source both for batched packets (:meth:`mixtures`)
        and for direct wire-frame encoding
        (:func:`repro.net.framing.encode_mixture_frames`).
        """
        return combine_rows(scalars, self._rows[: self.rank])

    def basis_packet(self, index: int) -> CodedPacket:
        """One buffered basis row as a packet (no full-list materialisation)."""
        if not 0 <= index < self.rank:
            raise IndexError(f"basis row {index} out of range (rank {self.rank})")
        size = self.params.generation_size
        row = self._rows[index]
        return CodedPacket(
            generation=self.generation,
            coefficients=row[:size].copy(),
            payload=row[size:].copy(),
        )

    def coefficient_rows(self) -> np.ndarray:
        """Read-only view of the basis coefficient rows (rank x size)."""
        return self._rows[: self.rank, : self.params.generation_size]


class Decoder:
    """Multi-generation decoder for a whole content object."""

    def __init__(self, params: GenerationParams, generation_count: int) -> None:
        if generation_count < 1:
            raise ValueError("generation_count must be >= 1")
        self.params = params
        self.generations = [GenerationDecoder(g, params) for g in range(generation_count)]

    def push(self, packet: CodedPacket) -> bool:
        """Route a packet to its generation decoder; True iff innovative."""
        if not 0 <= packet.generation < len(self.generations):
            raise ValueError(f"unknown generation {packet.generation}")
        return self.generations[packet.generation].push(packet)

    @property
    def is_complete(self) -> bool:
        """True once every generation decodes."""
        return all(g.is_complete for g in self.generations)

    @property
    def total_rank(self) -> int:
        """Sum of per-generation ranks (degrees of freedom collected)."""
        return sum(g.rank for g in self.generations)

    @property
    def total_dof(self) -> int:
        """Total degrees of freedom needed for full decoding."""
        return len(self.generations) * self.params.generation_size

    def progress(self) -> float:
        """Fraction of degrees of freedom collected, in [0, 1]."""
        return self.total_rank / self.total_dof

    def recover(self, content_length: int) -> bytes:
        """Reassemble the original content bytes; requires completeness."""
        blocks = [g.decoded_block() for g in self.generations]
        return join_content(blocks, content_length)
