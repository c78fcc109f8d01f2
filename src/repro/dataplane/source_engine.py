"""The server side of the RLNC data plane as a sans-IO engine.

:class:`SourceEngine` owns the source's scheduling decisions around a
:class:`~repro.coding.encoder.SourceEncoder` it is handed, one rule per
driver shape:

* **clocked stream drivers** (the live ``ServerNode`` loop) feed one
  :class:`EmitRound` per send interval; each attached target is sent
  one packet of the lowest generation it has not reported complete
  (:class:`ChildAttached` carries the set it dialed in with,
  :class:`ChildCompleted` every update), and a target that has
  everything — or is not attached — is skipped.  Targets that share a
  choice — served in order, nearly always all of them — are one
  :meth:`SourceEncoder.emit_batch` (one mixing gemm);
* **slotted pull drivers** (the simulator's ``server_emit``) ask per
  edge with :class:`PullEmit`; the engine answers with the encoder's
  uniform generation draw, one ``encoder.emit()`` — the paper's
  constant per-thread flow.
"""

from __future__ import annotations

from typing import Hashable

from ..protocol.trace import TappedEngine
from .effects import Effect, EmitToChildren
from .events import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    EmitRound,
    Event,
    PullEmit,
)
from .needs import CompletedSet

__all__ = ["SourceEngine"]


class SourceEngine(TappedEngine):
    """Pure event-in/effect-out source data-plane state machine.

    Args:
        encoder: The content owner.  Owned by the engine; drivers route
            every emission through :meth:`handle`.
    """

    def __init__(self, encoder) -> None:
        super().__init__()
        self.encoder = encoder
        #: emission rounds scheduled (``ServerStats.rounds`` reads it)
        self.rounds = 0
        #: attached child -> its completed set
        self._needs: dict[Hashable, CompletedSet] = {}

    @property
    def generation_count(self) -> int:
        return self.encoder.generation_count

    # ------------------------------------------------------------------

    def _dispatch(self, event: Event) -> list[Effect]:
        if isinstance(event, EmitRound):
            return self._on_round(event)
        if isinstance(event, PullEmit):
            return self._on_pull(event)
        if isinstance(event, ChildCompleted):
            need = self._needs.get(event.child)
            if need is not None:  # else: outlived its connection
                need.update(event.base, event.extras)
        elif isinstance(event, ChildAttached):
            self._needs[event.child] = CompletedSet(*event.completed)
        elif isinstance(event, ChildDetached):
            self._needs.pop(event.child, None)
        return []

    # ------------------------------------------------------------------

    def _on_round(self, event: EmitRound) -> list[Effect]:
        self.rounds += 1
        count = self.encoder.generation_count
        served: dict[int, list] = {}
        for target in event.targets:
            need = self._needs.get(target)
            generation = None if need is None else need.lowest_missing(count)
            if generation is not None:
                served.setdefault(generation, []).append(target)
        children: list = []
        packets: list = []
        for generation, members in served.items():
            children += members
            packets += self.encoder.emit_batch(len(members), generation)
        skipped = len(event.targets) - len(children)
        if skipped and self._obs is not None:
            self._obs.withheld += skipped
        if not packets:
            return []
        return [EmitToChildren(tuple(children), packets=tuple(packets))]

    def _on_pull(self, event: PullEmit) -> list[Effect]:
        packet = self.encoder.emit()
        return [EmitToChildren((event.destination,), packets=(packet,))]
