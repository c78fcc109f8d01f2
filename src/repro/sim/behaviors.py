"""Node behaviours for the unified slotted runtime.

A behaviour owns all per-node data-plane state (codec buffers or piece
sets) and answers the runtime's three questions: what does the server
put on an edge, what does a peer put on an edge, and what happens when a
payload lands.  Three families cover the repo:

* :class:`RlncBehavior` — RLNC recode-and-forward, with the §7
  behavioural attacker roles (entropy replay, garbage jamming) folded in
  as per-node :class:`NodeRole` assignments;
* :class:`StoreForwardBehavior` — uncoded uniform-random piece
  forwarding (baseline 5, the coupon-collector floor);
* :class:`RarestFirstBehavior` — uncoded forwarding with BitTorrent's
  local rarest-first piece selection (baseline 6).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

import numpy as np

from ..coding.encoder import SourceEncoder
from ..coding.generation import GenerationParams
from ..coding.packet import CodedPacket
from ..coding.recoder import Recoder
from ..dataplane import (
    EmitToChildren,
    MarkComplete,
    PacketArrived,
    PullEmit,
    RelayEngine,
    SourceEngine,
)
from ..gf.tables import FIELD_SIZE
from .report import NodeReport
from .rng import RngStreams

__all__ = [
    "NodeRole",
    "RarestFirstBehavior",
    "RlncBehavior",
    "StoreForwardBehavior",
]


class NodeRole(enum.Enum):
    """Behavioural role of a peer in the data plane."""

    HONEST = "honest"
    ENTROPY_ATTACKER = "entropy"  # §7: forwards trivial combinations
    JAMMER = "jammer"  # §7: injects random garbage packets


class RlncBehavior:
    """RLNC at every node: a fresh random mixture on every outgoing edge
    every slot — the paper's constant per-thread flow.

    Since the data-plane unification this class is a pull-mode driver of
    :class:`~repro.dataplane.RelayEngine` (one per contacted node) and
    one :class:`~repro.dataplane.SourceEngine`: the engines own the
    receive gate, the emissions, and the received/innovative/
    completion bookkeeping; the behaviour keeps only what the engines
    cannot know — role dispatch (attackers bypass the honest data
    plane) and the slot at which each completion landed.

    Args:
        content: Bytes the server broadcasts.
        params: Generation geometry.
        streams: The simulation's named RNG streams (the behaviour uses
            the ``encoder``, ``node-<id>``, and ``jammer-<id>`` streams).
        roles: Optional ``node_id -> NodeRole`` for attack experiments.
    """

    def __init__(
        self,
        content: bytes,
        params: GenerationParams,
        streams: RngStreams,
        *,
        roles: Optional[dict[int, NodeRole]] = None,
    ) -> None:
        self.content = content
        self.params = params
        self.streams = streams
        self.roles = dict(roles or {})
        self.encoder = SourceEncoder(content, params, streams.get("encoder"))
        self.generation_count = self.encoder.generation_count
        self.source = SourceEngine(self.encoder)
        #: ``node -> engine`` for every node contacted so far.
        self.engines: dict[int, RelayEngine] = {}
        self._completed_at: dict[int, int] = {}
        self._jammer_rngs: dict[int, np.random.Generator] = {}

    # -- roles and codec state -----------------------------------------

    def role_of(self, node_id: int) -> NodeRole:
        return self.roles.get(node_id, NodeRole.HONEST)

    def engine_of(self, node_id: int) -> RelayEngine:
        """The node's data-plane engine, created on first contact."""
        engine = self.engines.get(node_id)
        if engine is None:
            recoder = Recoder(
                self.params,
                self.generation_count,
                self.streams.get(f"node-{node_id}"),
                node_id=node_id,
            )
            engine = self.engines[node_id] = RelayEngine(recoder)
        return engine

    def _jammer_rng(self, node_id: int) -> np.random.Generator:
        """Per-node jammer stream, cached off the per-emission path."""
        rng = self._jammer_rngs.get(node_id)
        if rng is None:
            rng = self.streams.get(f"jammer-{node_id}")
            self._jammer_rngs[node_id] = rng
        return rng

    def _jam_packet(self, node_id: int, generation: int) -> CodedPacket:
        """A garbage packet: random coefficients over a random payload.

        The coefficient header *claims* a valid combination, so honest
        receivers cannot distinguish it — the §7 jamming scenario.
        """
        rng = self._jammer_rng(node_id)
        coefficients = rng.integers(0, FIELD_SIZE, size=self.params.generation_size,
                                    dtype=np.uint8)
        if not coefficients.any():
            coefficients[0] = 1
        payload = rng.integers(0, FIELD_SIZE, size=self.params.payload_size,
                               dtype=np.uint8)
        return CodedPacket(generation=generation, coefficients=coefficients,
                           payload=payload, origin=node_id)

    # -- runtime protocol ----------------------------------------------

    def server_emit(self, destination: int) -> CodedPacket:
        for effect in self.source.handle(PullEmit(destination)):
            if isinstance(effect, EmitToChildren):
                return effect.packets[0]
        return None

    def emit(self, sender: int, destination: int) -> Optional[CodedPacket]:
        engine = self.engine_of(sender)
        role = self.role_of(sender)
        if role is NodeRole.HONEST:
            for effect in engine.handle(PullEmit(destination)):
                if isinstance(effect, EmitToChildren):
                    return effect.packets[0]
            return None
        if role is NodeRole.JAMMER:
            rng = self._jammer_rng(sender)
            generation = int(rng.integers(0, self.generation_count))
            return self._jam_packet(sender, generation)
        return engine.recoder.emit_trivial()

    def deliver(self, destination: int, payload: CodedPacket, slot: int) -> None:
        for effect in self.engine_of(destination).handle(
            PacketArrived(payload, now=slot)
        ):
            if isinstance(effect, MarkComplete):
                self._completed_at[destination] = slot

    def completed_at(self) -> dict[int, int]:
        return self._completed_at

    def node_report(self, node_id: int) -> NodeReport:
        needed = self.generation_count * self.params.generation_size
        engine = self.engines.get(node_id)
        if engine is None:
            return NodeReport(node_id=node_id, rank=0, needed=needed,
                              completed_at=None, received=0, innovative=0,
                              decoded_ok=None)
        decoded_ok: Optional[bool] = None
        completed = self._completed_at.get(node_id)
        if completed is not None:
            try:
                decoded_ok = (
                    engine.recoder.decoder.recover(len(self.content))
                    == self.content
                )
            except Exception:
                decoded_ok = False
        decoders = engine.recoder.decoder.generations
        return NodeReport(
            node_id=node_id,
            rank=engine.rank,
            needed=needed,
            completed_at=completed,
            received=sum(g.received for g in decoders),
            innovative=sum(g.innovative for g in decoders),
            decoded_ok=decoded_ok,
        )

    # -- §6 self-sustainability ----------------------------------------

    def swarm_has_full_rank(self, nodes: Iterable[int]) -> bool:
        """True if the given peers collectively hold all content DoF.

        Checked per generation: the union of the peers' coefficient
        bases must span the full generation space.  This is the §6
        self-sustainability condition — once true, the server is
        redundant (in a loss-free network).
        """
        from ..gf.linalg import rank as gf_rank

        engines = [self.engines[n] for n in nodes if n in self.engines]
        for generation in range(self.generation_count):
            rows = []
            complete = False
            for engine in engines:
                decoder = engine.recoder.decoder.generations[generation]
                if decoder.is_complete:
                    complete = True  # someone already decodes: full rank
                    break
                if decoder.rank:
                    rows.append(decoder.coefficient_rows())
            if complete:
                continue
            if not rows:
                return False
            if gf_rank(np.concatenate(rows, axis=0)) < self.params.generation_size:
                return False
        return True


class StoreForwardBehavior:
    """Uncoded random forwarding of ``packet_count`` distinct pieces.

    Pieces are abstract indices (payload content is irrelevant to the
    collection dynamics).  The server sends a uniformly random piece
    index on each of its edges each slot (cycling deterministically per
    edge would trap each column in a residue class of the piece indices
    whenever gcd(k, packet_count) > 1); peers forward a uniformly random
    buffered index per edge per slot.
    """

    def __init__(self, packet_count: int, streams: RngStreams) -> None:
        if packet_count < 1:
            raise ValueError("packet_count must be >= 1")
        self.packet_count = packet_count
        self.streams = streams
        self._server_rng = streams.get("server")
        self._forward_rng = streams.get("forward")
        self._buffers: dict[int, set[int]] = {}
        self._received: dict[int, int] = {}
        self._completed_at: dict[int, int] = {}
        self.server_cursor = 0

    def buffer_of(self, node_id: int) -> set[int]:
        buffer = self._buffers.get(node_id)
        if buffer is None:
            buffer = set()
            self._buffers[node_id] = buffer
            self._received[node_id] = 0
        return buffer

    def server_emit(self, destination: int) -> int:
        self.server_cursor += 1
        return int(self._server_rng.integers(0, self.packet_count))

    def emit(self, sender: int, destination: int) -> Optional[int]:
        buffer = self.buffer_of(sender)
        if not buffer:
            return None
        items = sorted(buffer)
        return items[int(self._forward_rng.integers(0, len(items)))]

    def deliver(self, destination: int, payload: int, slot: int) -> None:
        buffer = self.buffer_of(destination)
        self._received[destination] += 1
        if payload not in buffer:
            buffer.add(payload)
            if (
                len(buffer) == self.packet_count
                and destination not in self._completed_at
            ):
                self._completed_at[destination] = slot

    def completed_at(self) -> dict[int, int]:
        return self._completed_at

    def node_report(self, node_id: int) -> NodeReport:
        buffer = self._buffers.get(node_id, set())
        return NodeReport(
            node_id=node_id,
            rank=len(buffer),
            needed=self.packet_count,
            completed_at=self._completed_at.get(node_id),
            received=self._received.get(node_id, 0),
            innovative=len(buffer),
            decoded_ok=None,
        )


class RarestFirstBehavior(StoreForwardBehavior):
    """Uncoded forwarding with local rarest-first piece selection.

    Each node scores every piece by how often it has seen it arrive
    **plus how often it has already forwarded it** and sends the
    lowest-scoring buffered piece, ties broken randomly.  Counting own
    transmissions is essential — score receipts alone and a node
    fixates on its newest piece, re-sending it slot after slot
    (measurably *worse* than random forwarding).
    """

    def __init__(self, packet_count: int, streams: RngStreams) -> None:
        super().__init__(packet_count, streams)
        self._seen_counts: dict[int, np.ndarray] = {}

    def buffer_of(self, node_id: int) -> set[int]:
        buffer = self._buffers.get(node_id)
        if buffer is None:
            buffer = set()
            self._buffers[node_id] = buffer
            self._seen_counts[node_id] = np.zeros(self.packet_count, dtype=np.int64)
            self._received[node_id] = 0
        return buffer

    def _pick_piece(self, node_id: int, rng: np.random.Generator) -> int:
        """The buffered piece with the lowest seen+sent score.

        The pick is immediately scored as a transmission so a node
        rotates through its buffer instead of fixating on one piece.
        """
        buffer = self._buffers[node_id]
        counts = self._seen_counts[node_id]
        items = np.fromiter(buffer, dtype=np.int64)
        rarity = counts[items]
        rarest = items[rarity == rarity.min()]
        pick = int(rarest[rng.integers(0, rarest.size)])
        counts[pick] += 1
        return pick

    def emit(self, sender: int, destination: int) -> Optional[int]:
        buffer = self.buffer_of(sender)
        if not buffer:
            return None
        return self._pick_piece(sender, self._forward_rng)

    def deliver(self, destination: int, payload: int, slot: int) -> None:
        self.buffer_of(destination)  # ensure counts exist before scoring
        self._seen_counts[destination][payload] += 1
        super().deliver(destination, payload, slot)
