"""Effects: everything a data-plane engine can ask its driver to do.

Effects are data, not actions, returned by ``engine.handle(event)`` in
the exact order the driver must perform them (a seed-burst overtaking
the fan-out that followed it would reorder mixtures on the wire).
Drivers translate each effect into their transport's vocabulary — a
frame enqueued on a :class:`~repro.net.streams.PacketSender`, a payload
placed on a slotted edge — or ignore effects that have no meaning
there.  No effect asks a driver to poll: every push pump asks its
engine :class:`~repro.dataplane.events.IdlePoll` on its own keep-alive
timer, and an engine with nothing to send answers ``[]``.

:class:`Ingested` is a notification effect in the
:class:`~repro.protocol.effects.ComplaintNoted` tradition: it carries
no obligation, but it is what makes effect traces comparable across
incarnations (every transport ingests the same packets through the
same gate) and what :class:`~repro.obs.DataplaneInstruments`
classifies.

Payload-bearing effects repr their packets and mixture-row groups as
``g<generation>#<crc32>`` digests rather than raw numpy arrays, so an
:class:`~repro.protocol.trace.EngineLog` trace stays golden-file
friendly while still pinning every byte.

Like :mod:`repro.dataplane.events`, these records are built on the
per-packet hot path (at least one :class:`Ingested` per arrival, one
:class:`EmitToChildren` per fan-out), so they are
:class:`~typing.NamedTuple` subclasses — same field names, reprs, and
equality as frozen dataclasses, at C-level construction cost.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple, Optional

__all__ = [
    "Effect",
    "EmitToChildren",
    "GenerationComplete",
    "Ingested",
    "MarkComplete",
]


def _packet_digest(packet) -> str:
    """``g<generation>#<crc32 of coefficients+payload>`` for one packet."""
    crc = zlib.crc32(bytes(packet.coefficients))
    crc = zlib.crc32(bytes(packet.payload), crc)
    return f"g{packet.generation}#{crc & 0xFFFFFFFF:08x}"


def _group_digest(group) -> str:
    """Digest of one ``(generation, rows)`` group: generation, row
    count, and a CRC over the raw mixture rows."""
    generation, rows = group
    crc = zlib.crc32(rows.tobytes())
    return f"g{generation}x{rows.shape[0]}#{crc & 0xFFFFFFFF:08x}"


class EmitToChildren(NamedTuple):
    """Put fresh coded data on the wire toward ``children``, in order.

    Exactly one of the payload forms is set:

    * ``packets`` — one :class:`~repro.coding.packet.CodedPacket` per
      child (seed-bursts, idle fills, pull-mode slots, source
      rounds).  ``children`` may repeat one child (a burst).
    * ``rows`` — ``(generation, rows)`` groups, each ``rows`` one
      :meth:`~repro.coding.recoder.Recoder.emit_rows` matrix, whose
      rows taken group after group are the ``len(children)`` mixtures
      in child order (the relay's push fan-out: drivers frame them with
      ``encode_mixture_frames`` without building packet objects).
    """

    children: tuple
    packets: Optional[tuple] = None
    rows: Optional[tuple] = None

    @property
    def count(self) -> int:
        """Mixtures carried (== packets fanned out by the driver)."""
        if self.rows is not None:
            return sum(rows.shape[0] for _, rows in self.rows)
        return len(self.packets) if self.packets is not None else 0

    def __repr__(self) -> str:  # noqa: D105 - digest form, see module doc
        if self.rows is not None:
            payload = "rows=[" + ", ".join(
                _group_digest(group) for group in self.rows) + "]"
        else:
            payload = "packets=[" + ", ".join(
                _packet_digest(packet) for packet in self.packets or ()) + "]"
        return f"EmitToChildren(children={self.children!r}, {payload})"


class GenerationComplete(NamedTuple):
    """This node just reached full rank in ``generation``.  Emitted
    once per generation, before any :class:`MarkComplete`; push drivers
    tell their parents (the node's completed set is
    :attr:`~repro.dataplane.RelayEngine.completed_generations`),
    clocked drivers ignore it."""

    generation: int


class MarkComplete(NamedTuple):
    """This node holds every degree of freedom: ``rank == needed``.
    Emitted exactly once; drivers fire their completion callbacks /
    record the completion slot."""

    needed: int


class Ingested(NamedTuple):
    """Notification: one packet passed the receive gate.  ``innovative``
    is the gate's verdict, ``rank`` the post-ingest degrees of freedom.
    No driver obligation — this is the conformance/observability
    backbone of the receive path."""

    generation: int
    innovative: bool
    rank: int


#: Anything ``handle`` returns.
Effect = object
