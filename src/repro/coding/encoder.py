"""Source encoder: the server side of the RLNC data plane.

The encoder owns the original :class:`~repro.coding.packet.SourceBlock` of
each generation and emits either systematic packets (the originals, sent
once each at the start — standard practice from [5]) or uniformly random
linear combinations.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..gf.kernels import combine_rows, draw_rows
from .generation import GenerationParams, split_content
from .packet import CodedPacket, SourceBlock


class SourceEncoder:
    """Emits coded packets for a piece of content.

    Args:
        content: The raw bytes to broadcast.
        params: Generation geometry.
        rng: Seeded generator; all coding randomness flows through it.
        systematic_first: If true, the first ``generation_size`` packets
            emitted for each generation are the unmixed originals.
    """

    def __init__(
        self,
        content: bytes,
        params: GenerationParams,
        rng: np.random.Generator,
        systematic_first: bool = False,
    ) -> None:
        self.params = params
        self.content_length = len(content)
        self.blocks: list[SourceBlock] = split_content(content, params)
        self._rng = rng
        self._systematic_first = systematic_first
        self._systematic_cursor = {block.generation: 0 for block in self.blocks}

    @property
    def generation_count(self) -> int:
        """Number of generations the content was split into."""
        return len(self.blocks)

    def emit(self, generation: Optional[int] = None) -> CodedPacket:
        """Emit one coded packet.

        If ``generation`` is None the encoder round-robins over
        generations in proportion to a uniform draw (every generation is
        equally hot; schedulers that want sequential delivery pass an
        explicit generation).
        """
        if generation is None:
            generation = int(self._rng.integers(0, self.generation_count))
        return self.emit_batch(1, generation)[0]

    def emit_batch(self, count: int, generation: int) -> list[CodedPacket]:
        """Emit ``count`` packets of ``generation`` with one mixing gemm.

        RNG-stream identical to ``count`` sequential ``emit(generation)``
        calls (``emit`` is this with ``count=1``): systematic packets
        first, then one uniform coefficient vector per packet, a zero
        vector replaced by a single 1 at a drawn position the moment it
        is drawn.  :func:`~repro.gf.kernels.draw_rows` makes the draws in
        one call per zero vector met, and one
        :func:`~repro.gf.kernels.combine_rows` mixes every payload.
        """
        block = self.blocks[generation]
        size = block.generation_size
        packets: list[CodedPacket] = []
        cursor = self._systematic_cursor[generation]
        while self._systematic_first and cursor < size and len(packets) < count:
            packet = block.source_packet(cursor)
            packet.origin = -1
            packets.append(packet)
            cursor += 1
        self._systematic_cursor[generation] = cursor
        mixed = count - len(packets)
        if mixed <= 0:
            return packets
        coeffs = np.empty((mixed, size), dtype=np.uint8)
        drawn = 0
        while drawn < mixed:
            drawn += draw_rows(self._rng, coeffs[drawn:], 0)
            if not coeffs[drawn - 1].any():
                # A zero vector carries nothing; force one nonzero entry.
                coeffs[drawn - 1, int(self._rng.integers(0, size))] = 1
        # combine_rows allocates a fresh output, so packets keep row views.
        payloads = combine_rows(coeffs, block.data)
        trusted = CodedPacket.trusted
        return packets + [
            trusted(generation, coeffs[i], payloads[i], origin=-1)
            for i in range(mixed)
        ]

    def stream(self, generation: Optional[int] = None) -> Iterator[CodedPacket]:
        """Infinite iterator of coded packets (``emit`` in a loop)."""
        while True:
            yield self.emit(generation)
