"""The peer side of the §3 protocol as a sans-IO engine.

:class:`PeerEngine` holds a peer's view of its threads — which parent
feeds each column — and implements every peer-side protocol decision
exactly once:

* **clip / re-clip** — a grant or ``SetParent`` push retargets a
  thread's upstream pump (the live Lemma 1 repair on the child side);
* **silence detection** — the driver applies its read timeout to each
  upstream session and reports the ending
  (:class:`~repro.protocol.events.UpstreamDown`); a session that saw
  no traffic is a silent thread;
* **complaint emission** — at most one complaint per column per
  silence episode, re-armed by ``SetParent``, suppressed after the
  server itself is lost (§6) and never against the server;
* **reconnect backoff** — a per-column
  :class:`~repro.protocol.backoff.ReconnectBackoff` schedule, stepped
  on every failed session and reset by a healthy one or a re-clip.

Whom the peer feeds is not the control plane's business: a child dials
its parent, and the parent's data plane serves whoever dialed.

Driver: :class:`repro.net.peer.PeerNode`, on real or virtual asyncio
streams.
"""

from __future__ import annotations

from typing import Optional

from ..core.matrix import SERVER
from .backoff import ReconnectBackoff
from .effects import (
    Backoff,
    Clip,
    Effect,
    Send,
    StopThread,
)
from .events import (
    Event,
    MessageReceived,
    ServerLost,
    UpstreamDown,
)
from .messages import (
    ComplaintMsg,
    JoinGrant,
    Probe,
    ProbeAck,
    SetParent,
    ThreadRemoved,
)
from .trace import TappedEngine

__all__ = ["PeerEngine"]


class PeerEngine(TappedEngine):
    """Pure event-in/effect-out peer state machine.

    Args:
        node_id: Server-assigned id (assignable after construction for
            drivers that learn it from the grant).
        reconnect_base, reconnect_max: Bounds of the per-column
            exponential redial schedule.
    """

    def __init__(
        self,
        node_id: Optional[int] = None,
        *,
        reconnect_base: float = 0.05,
        reconnect_max: float = 2.0,
    ) -> None:
        super().__init__()
        self.node_id = node_id
        self.reconnect_base = reconnect_base
        self.reconnect_max = reconnect_max
        self.server_lost = False
        #: column -> parent we currently receive from
        self.parents: dict[int, int] = {}
        #: columns already complained about this silence episode
        self.complained: set[int] = set()
        self._backoffs: dict[int, ReconnectBackoff] = {}

    # ------------------------------------------------------------------

    def _dispatch(self, event: Event) -> list[Effect]:
        if isinstance(event, MessageReceived):
            return self._on_message(event.message)
        if isinstance(event, UpstreamDown):
            return self._on_upstream_down(
                event.column, event.parent, event.saw_traffic
            )
        if isinstance(event, ServerLost):
            self.server_lost = True
            return []
        return []

    # ------------------------------------------------------------------
    # Control messages

    def _on_message(self, message: object) -> list[Effect]:
        if isinstance(message, JoinGrant):
            return [
                self._clip(column, parent)
                for column, parent in message.assignments
            ]
        if isinstance(message, SetParent):
            self.complained.discard(message.column)
            return [self._clip(message.column, message.parent)]
        if isinstance(message, ThreadRemoved):
            self.parents.pop(message.column, None)
            self._backoffs.pop(message.column, None)
            self.complained.discard(message.column)
            return [StopThread(column=message.column)]
        if isinstance(message, Probe):
            return [Send(SERVER, ProbeAck(
                node_id=self.node_id, nonce=message.nonce))]
        return []

    def _clip(self, column: int, parent: int) -> Effect:
        """Retarget one thread's upstream; fresh backoff schedule."""
        self.parents[column] = parent
        self._backoffs[column] = ReconnectBackoff(
            self.reconnect_base, self.reconnect_max
        )
        return Clip(column=column, parent=parent)

    # ------------------------------------------------------------------
    # Silence detection -> complaints

    def _on_upstream_down(
        self, column: int, parent: int, saw_traffic: bool
    ) -> list[Effect]:
        """A session on ``column`` ended; a silent one is a complaint."""
        backoff = self._backoffs.setdefault(
            column, ReconnectBackoff(self.reconnect_base, self.reconnect_max)
        )
        if saw_traffic:
            backoff.reset()
            return []  # healthy session: redial immediately
        effects: list[Effect] = []
        if self.parents.get(column) == parent:
            effects.extend(self._complain(column, parent))
        effects.append(Backoff(column=column, delay=backoff.next()))
        return effects

    def _complain(self, column: int, suspect: int) -> list[Effect]:
        """One complaint per column per silence episode, re-armed by
        ``SetParent``; never after the server is lost, never against
        the server itself."""
        if self.server_lost or suspect == SERVER:
            return []
        if column in self.complained:
            if self._obs is not None:
                self._obs.complaints_suppressed.inc()
            return []
        self.complained.add(column)
        return [Send(SERVER, ComplaintMsg(
            reporter=self.node_id, column=column, suspect=suspect))]
