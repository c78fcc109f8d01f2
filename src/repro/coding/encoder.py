"""Source encoder: the server side of the RLNC data plane.

The encoder owns the original :class:`~repro.coding.packet.SourceBlock` of
each generation and emits uniformly random linear combinations of it.
"""

from __future__ import annotations

from typing import Optional

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
    """

    def __init__(
        self,
        content: bytes,
        params: GenerationParams,
        rng: np.random.Generator,
    ) -> None:
        self.params = params
        self.content_length = len(content)
        self.blocks: list[SourceBlock] = split_content(content, params)
        self._rng = rng

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
        calls (``emit`` is this with ``count=1``): one uniform
        coefficient vector per packet, a zero vector replaced by a single
        1 at a drawn position the moment it is drawn.
        :func:`~repro.gf.kernels.draw_rows` makes the draws in one call
        per zero vector met, and one :func:`~repro.gf.kernels.combine_rows`
        mixes every payload.
        """
        if count <= 0:
            return []
        block = self.blocks[generation]
        size = block.generation_size
        coeffs = np.empty((count, size), dtype=np.uint8)
        drawn = 0
        while drawn < count:
            drawn += draw_rows(self._rng, coeffs[drawn:], 0)
            if not coeffs[drawn - 1].any():
                # A zero vector carries nothing; force one nonzero entry.
                coeffs[drawn - 1, int(self._rng.integers(0, size))] = 1
        # combine_rows allocates a fresh output, so packets keep row views.
        payloads = combine_rows(coeffs, block.data)
        trusted = CodedPacket.trusted
        return [trusted(generation, coeffs[i], payloads[i])
                for i in range(count)]
