"""In-network recoder: the peer side of the RLNC data plane.

Per Chou–Wu–Jain, every intermediate node buffers the packets it has
received for each generation and, whenever it must transmit, emits a fresh
uniformly random linear combination of its buffer.  Crucially the node
never needs to decode; the coefficient headers compose under mixing.

The buffer here is the decoder's RREF basis (rather than raw packets), so
buffer size is bounded by the generation size and non-innovative arrivals
cost nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gf.kernels import draw_rows
from .decoder import Decoder
from .generation import GenerationParams
from .packet import CodedPacket


class Recoder:
    """Buffer-and-mix node logic for all generations of one content object.

    Attributes:
        node_id: Identifier stamped on emitted packets' ``origin`` field.
        decoder: The underlying rank-tracking buffer; exposed so peers that
            also want the content (every peer, in broadcast) reuse it.
    """

    def __init__(
        self,
        params: GenerationParams,
        generation_count: int,
        rng: np.random.Generator,
        node_id: int = -1,
    ) -> None:
        self.params = params
        self.decoder = Decoder(params, generation_count)
        self._rng = rng
        self.node_id = node_id

    def receive(self, packet: CodedPacket) -> bool:
        """Ingest a packet into the buffer; True iff it was innovative."""
        return self.decoder.push(packet)

    def rank(self, generation: int) -> int:
        """Current rank held for ``generation``."""
        return self.decoder.generations[generation].rank

    def _pick_generation(self) -> Optional[int]:
        """Choose the generation to serve.

        Half the time: the lowest-index generation *we* have not finished
        (approximates the sequential delivery a streaming receiver
        wants).  The other half: uniform over every generation we hold
        any rank in — including completed ones.  The uniform component is
        essential, not cosmetic: a node that only ever serves its own
        earliest-incomplete generation stops serving a generation the
        moment it completes it, which can permanently starve neighbours
        who still need it (observed as a rank plateau in cyclic and
        server-detached topologies).
        """
        ranks = [g.rank for g in self.decoder.generations]
        nonzero = [g for g, r in enumerate(ranks) if r > 0]
        if not nonzero:
            return None
        incomplete = [
            g for g in nonzero if not self.decoder.generations[g].is_complete
        ]
        if incomplete and self._rng.random() < 0.5:
            return incomplete[0]
        return int(self._rng.choice(nonzero))

    def emit(self, generation: Optional[int] = None) -> Optional[CodedPacket]:
        """Emit a random mixture from the buffer, or None if it is empty."""
        if generation is None:
            generation = self._pick_generation()
            if generation is None:
                return None
        packet = self.decoder.generations[generation].random_combination(self._rng)
        if packet is None:
            return None
        packet.origin = self.node_id
        return packet

    def emit_rows(self, count: int, generation: int) -> np.ndarray:
        """Draw ``count`` mixtures of ``generation`` as one raw matrix.

        Row ``j`` is ``[coefficients | payload]`` of mixture ``j`` (the
        :meth:`~repro.coding.decoder.GenerationDecoder.mixture_rows`
        gemm output), ready to be framed without building packets.
        RNG-stream identical to ``count`` sequential ``emit(generation)``
        calls: :func:`~repro.gf.kernels.draw_rows` draws the scalar
        vectors as one ``integers`` call each, in the same order, with
        one native call; only the GF mixing is batched.  No rows when
        the buffer holds nothing of ``generation``.
        """
        decoder = self.decoder.generations[generation]
        rank = decoder.rank
        if rank == 0 or count <= 0:
            params = self.params
            return np.empty((0, params.generation_size + params.payload_size),
                            dtype=np.uint8)
        scalars = np.empty((count, rank), dtype=np.uint8)
        draw_rows(self._rng, scalars, 1)
        return decoder.mixture_rows(scalars)

    def emit_batch(self, count: int, generation: int) -> list[CodedPacket]:
        """:meth:`emit_rows` as packets: ``count`` fresh mixtures of
        ``generation`` with one gemm, bit-for-bit the packets of
        ``count`` sequential ``emit(generation)`` calls."""
        rows = self.emit_rows(count, generation)
        size = self.params.generation_size
        # Splitting the matrix once keeps the per-packet indexing to two
        # integer lookups.
        coeffs = rows[:, :size]
        payloads = rows[:, size:]
        origin = self.node_id
        trusted = CodedPacket.trusted
        return [
            trusted(generation, coeffs[j], payloads[j], origin=origin)
            for j in range(rows.shape[0])
        ]

    def emit_trivial(self) -> Optional[CodedPacket]:
        """Emit a *non-mixed* packet: replay one buffered basis row.

        This models the §7 *entropy destruction attack* — a malicious or
        lazy node that forwards trivial combinations instead of fresh
        mixtures, silently destroying the innovation its subtree receives.
        """
        generation = self._pick_generation()
        if generation is None:
            return None
        decoder = self.decoder.generations[generation]
        if decoder.rank == 0:
            return None
        # Deterministic replay of row 0: maximally unhelpful.  Copies just
        # the one row instead of materialising the whole basis as packets.
        packet = decoder.basis_packet(0)
        packet.origin = self.node_id
        return packet
