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

# Effects are built with ``tuple.__new__``: one C call, no Python frame.
_new = tuple.__new__


class PeerEngine(TappedEngine):
    """Pure event-in/effect-out peer state machine.

    The driver assigns :attr:`node_id` once the join grant names it.

    Args:
        reconnect_base, reconnect_max: Bounds of the per-column
            exponential redial schedule.
    """

    def __init__(
        self,
        *,
        reconnect_base: float = 0.05,
        reconnect_max: float = 2.0,
    ) -> None:
        super().__init__()
        self.node_id: Optional[int] = None
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
        # Exact-type table dispatch, as in ``RelayEngine``: the event and
        # message vocabularies are closed (no driver subclasses one).
        if event.__class__ is MessageReceived:
            message = event.message
            handler = _MESSAGE_HANDLERS.get(message.__class__)
            return handler(self, message) if handler is not None else []
        handler = _EVENT_HANDLERS.get(event.__class__)
        return handler(self, event) if handler is not None else []

    def _on_server_lost(self, event: ServerLost) -> list[Effect]:
        self.server_lost = True
        return []

    # ------------------------------------------------------------------
    # Control messages

    def _on_grant(self, message: JoinGrant) -> list[Effect]:
        return [self._clip(column, parent) for column, parent in message.assignments]

    def _on_set_parent(self, message: SetParent) -> list[Effect]:
        self.complained.discard(message.column)
        return [self._clip(message.column, message.parent)]

    def _on_thread_removed(self, message: ThreadRemoved) -> list[Effect]:
        self.parents.pop(message.column, None)
        self._backoffs.pop(message.column, None)
        self.complained.discard(message.column)
        return [_new(StopThread, (message.column,))]

    def _on_probe(self, message: Probe) -> list[Effect]:
        return [_new(Send, (SERVER, _new(ProbeAck, (self.node_id, message.nonce))))]

    def _clip(self, column: int, parent: int) -> Effect:
        """Retarget one thread's upstream; fresh backoff schedule."""
        self.parents[column] = parent
        self._backoffs[column] = ReconnectBackoff(
            self.reconnect_base, self.reconnect_max
        )
        return _new(Clip, (column, parent))

    # ------------------------------------------------------------------
    # Silence detection -> complaints

    def _on_upstream_down(self, event: UpstreamDown) -> list[Effect]:
        """A session on ``column`` ended; a silent one is a complaint."""
        column, parent, saw_traffic = event
        backoff = self._backoffs.setdefault(
            column, ReconnectBackoff(self.reconnect_base, self.reconnect_max)
        )
        if saw_traffic:
            backoff.reset()
            return []  # healthy session: redial immediately
        effects: list[Effect] = []
        if self.parents.get(column) == parent:
            effects.extend(self._complain(column, parent))
        effects.append(_new(Backoff, (column, backoff.next())))
        return effects

    def _complain(self, column: int, suspect: int) -> list[Effect]:
        """One complaint per column per silence episode, re-armed by
        ``SetParent``; never after the server is lost, never against
        the server itself."""
        if self.server_lost or suspect == SERVER:
            return []
        if column in self.complained:
            if self._obs is not None:
                self._obs.complaints_suppressed += 1
            return []
        self.complained.add(column)
        return [_new(Send, (SERVER, _new(ComplaintMsg, (
            self.node_id, column, suspect))))]


_EVENT_HANDLERS = {
    UpstreamDown: PeerEngine._on_upstream_down,
    ServerLost: PeerEngine._on_server_lost,
}

_MESSAGE_HANDLERS = {
    JoinGrant: PeerEngine._on_grant,
    SetParent: PeerEngine._on_set_parent,
    ThreadRemoved: PeerEngine._on_thread_removed,
    Probe: PeerEngine._on_probe,
}
