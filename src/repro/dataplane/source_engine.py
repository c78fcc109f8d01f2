"""The server side of the RLNC data plane as a sans-IO engine.

:class:`SourceEngine` owns the source's scheduling decisions around a
:class:`~repro.coding.encoder.SourceEncoder` it is handed:

* **clocked stream drivers** (the live ``ServerNode`` loop) feed one
  :class:`EmitRound` per send interval; the engine serves generations
  round-robin off its round counter — which advances even when no
  column is attached, because generation scheduling is time-based, not
  demand-based — and emits one packet per attached target through
  :meth:`SourceEncoder.emit_batch` (one mixing gemm per round);
* **slotted pull drivers** (the simulator's ``server_emit``) ask per
  edge with :class:`PullEmit`; the engine answers with a uniform
  generation draw, exactly the pre-refactor ``encoder.emit()`` call;
* :class:`ChildAttached` optionally seed-bursts a fresh subscriber
  (``seed_burst`` packets; default 0 — the live server has no burst,
  its round cadence reaches a new column within one interval).
"""

from __future__ import annotations

from .effects import Effect, EmitToChildren
from .events import ChildAttached, EmitRound, Event, PullEmit

__all__ = ["SourceEngine"]


class SourceEngine:
    """Pure event-in/effect-out source data-plane state machine.

    Args:
        encoder: The content owner.  Owned by the engine; drivers route
            every emission through :meth:`handle`.
        seed_burst: Packets emitted toward a freshly attached child
            (default 0: rely on the round cadence).
    """

    def __init__(self, encoder, *, seed_burst: int = 0) -> None:
        if seed_burst < 0:
            raise ValueError("seed_burst must be >= 0")
        self.encoder = encoder
        self.seed_burst = seed_burst
        #: data-plane counters — ServerStats reads these now
        self.rounds = 0
        self.packets_sent = 0
        #: optional event/effect recorder (conformance and replay tests)
        self.log = None
        #: optional bounded ring of recent steps (duck-typed ``record``)
        self.flight = None
        #: optional instrument bundle (duck-typed ``record_step``)
        self.obs = None

    @property
    def generation_count(self) -> int:
        return self.encoder.generation_count

    # ------------------------------------------------------------------

    def handle(self, event: Event) -> list[Effect]:
        """Advance the state machine by one event."""
        effects = self._dispatch(event)
        if self.log is not None:
            self.log.record(event, effects)
        if self.flight is not None:
            self.flight.record(event, effects)
        if self.obs is not None:
            self.obs.record_step(event, effects)
        return effects

    def _dispatch(self, event: Event) -> list[Effect]:
        if isinstance(event, EmitRound):
            return self._on_round(event)
        if isinstance(event, PullEmit):
            return self._on_pull(event)
        if isinstance(event, ChildAttached):
            return self._on_attach(event)
        return []

    # ------------------------------------------------------------------

    def _on_round(self, event: EmitRound) -> list[Effect]:
        generation = self.rounds % self.encoder.generation_count
        self.rounds += 1
        targets = tuple(event.targets)
        if not targets:
            return []
        packets = tuple(self.encoder.emit_batch(len(targets), generation))
        self.packets_sent += len(packets)
        return [EmitToChildren(targets, packets=packets)]

    def _on_pull(self, event: PullEmit) -> list[Effect]:
        packet = self.encoder.emit()
        self.packets_sent += 1
        return [EmitToChildren((event.destination,), packets=(packet,))]

    def _on_attach(self, event: ChildAttached) -> list[Effect]:
        if self.seed_burst <= 0:
            return []
        packets = tuple(
            self.encoder.emit() for _ in range(self.seed_burst)
        )
        self.packets_sent += len(packets)
        return [EmitToChildren(
            (event.child,) * len(packets), packets=packets
        )]
