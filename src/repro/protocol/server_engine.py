"""The server side of the §3/§5 control protocol as a sans-IO engine.

:class:`ServerEngine` owns the matrix authority
(:class:`~repro.core.server.CoordinationServer`) and implements every
server-side protocol decision exactly once:

* **hello** — admit a joiner, grant its thread assignments and (under
  §5 uniform insertion) redirect the children its row displaced;
* **good-bye** — splice the leaver out, re-clipping each of its
  children onto the corresponding parent (Lemma 1);
* **EOF-crash fast path** — a control connection dying without a
  good-bye is a crash: splice immediately;
* **complaint → probe → repair slow path** — a child's complaint about
  a silent thread opens a failure episode, probes the suspect once (one
  probe in flight per suspect), and splices it out when the probe timer
  fires unanswered; a complaint counts only when the suspect is the
  reporter's parent on the named column;
* **§5 congestion** — shed one thread from a congested node / hand one
  back, re-clipping the affected child.

The engine writes only to nodes whose own parents moved — the joiner, a
redirected child, a congested node and its child — and to a probed
suspect.  A parent learns each child from the child's own dial
(``DataHello``) and loses it when that connection ends, so no message
ever tells a node whom it feeds.

The engine consumes :mod:`~repro.protocol.events` and returns
:mod:`~repro.protocol.effects`; it never touches a socket, a clock, or
an event loop.  One driver pumps it, :mod:`repro.net.server`, over
real sockets or the virtual network; the chaos harness asserts
invariants against :attr:`core` directly.
"""

from __future__ import annotations

from collections.abc import Iterator, Set

from ..core.server import CoordinationServer
from .effects import (
    Admitted,
    CloseConnection,
    ComplaintNoted,
    Effect,
    PeerDeparted,
    Send,
    StartTimer,
)
from .events import ConnectionLost, Event, MessageReceived, TimerFired
from .messages import (
    ComplaintMsg,
    CongestionDrop,
    CongestionRestore,
    JoinGrant,
    JoinRequest,
    LeaveRequest,
    Probe,
    ProbeAck,
    SetParent,
    ThreadRemoved,
)
from .trace import TappedEngine

__all__ = ["ServerEngine"]


def _speaker(event: MessageReceived) -> int:
    """The node a first-person message (leave, complaint, probe ack,
    congestion) speaks for: the authenticated owner of the connection
    when the driver has one, else the id the message claims.  A peer
    must not be able to leave, complain, answer a probe or shed a thread
    for another."""
    if isinstance(event.sender, int):
        return event.sender
    message = event.message
    if isinstance(message, ComplaintMsg):
        return message.reporter
    return message.node_id


class _Departed(Set):
    """Read-only set of every id that left or was spliced out.

    Ids never recycle and both departures (good-bye, splice) pop the id
    from the registry, so "departed" is exactly "issued and no longer
    registered".  Deriving it keeps the engine's state bounded by the
    live population over unbounded uptime.
    """

    __slots__ = ("_core",)

    def __init__(self, core: CoordinationServer) -> None:
        self._core = core

    def __contains__(self, node_id: object) -> bool:
        # Drivers ask before admission, when the id is still ``None``.
        return (isinstance(node_id, int)
                and 0 <= node_id < self._core.issued
                and node_id not in self._core.registry)

    def __len__(self) -> int:
        return self._core.issued - len(self._core.registry)

    def __iter__(self) -> Iterator[int]:
        registry = self._core.registry
        return (n for n in range(self._core.issued) if n not in registry)

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        """``&``, ``|``, ``-`` and ``^`` return plain sets."""
        return frozenset(iterable)


class ServerEngine(TappedEngine):
    """Pure event-in/effect-out server state machine.

    Args:
        core: The matrix authority.  Owned by the engine; drivers read
            it (population, matrix rows) but route every mutation
            through :meth:`handle`.
        probe_timeout: Grace period a probed suspect has to answer
            before being spliced out.
    """

    def __init__(
        self, core: CoordinationServer, *, probe_timeout: float = 0.5
    ) -> None:
        super().__init__()
        self.core = core
        self.probe_timeout = probe_timeout
        #: suspect -> probe nonce currently outstanding
        self.pending_probes: dict[int, int] = {}
        #: every node that left or was spliced out (ids never recycle)
        self.departed: Set[int] = _Departed(core)
        #: suspects with an open (complained, not yet repaired) episode
        self._open_episodes: set[int] = set()
        self._nonce = 0

    # ------------------------------------------------------------------

    def _dispatch(self, event: Event) -> list[Effect]:
        if isinstance(event, MessageReceived):
            message = event.message
            if isinstance(message, JoinRequest):
                return self._on_join()
            if isinstance(message, LeaveRequest):
                return self._on_leave(_speaker(event))
            if isinstance(message, ComplaintMsg):
                return self._on_complaint(
                    _speaker(event), message.column, message.suspect)
            if isinstance(message, ProbeAck):
                return self._on_probe_ack(_speaker(event), message.nonce)
            if isinstance(message, CongestionDrop):
                return self._on_congestion_drop(_speaker(event))
            if isinstance(message, CongestionRestore):
                return self._on_congestion_restore(_speaker(event))
            return []
        if isinstance(event, ConnectionLost):
            return self._on_connection_lost(event.node_id)
        if isinstance(event, TimerFired):
            if event.key and event.key[0] == "probe":
                _, suspect, nonce = event.key
                return self._on_probe_timeout(suspect, nonce)
            return []
        return []

    # ------------------------------------------------------------------
    # Hello

    def _on_join(self) -> list[Effect]:
        grant = self.core.hello()
        node_id = grant.node_id
        assignments = tuple(
            (a.column, a.parent) for a in grant.assignments
        )
        # Uniform insertion (§5) may splice the newcomer mid-column: the
        # displaced children re-clip onto it.
        return [
            Admitted(node_id=node_id, assignments=assignments),
            Send(node_id, JoinGrant(node_id=node_id, assignments=assignments)),
            *self._redirect_sends(grant.redirects),
        ]

    # ------------------------------------------------------------------
    # Good-bye

    def _on_leave(self, node_id: int) -> list[Effect]:
        if node_id not in self.core.registry or node_id in self.core.failed:
            return []
        self._open_episodes.discard(node_id)
        redirects = self.core.goodbye(node_id)
        return [
            PeerDeparted(node_id=node_id, reason="leave"),
            *self._redirect_sends(redirects),
        ]

    # ------------------------------------------------------------------
    # Failure detection and repair

    def _on_complaint(self, reporter: int, column: int,
                      suspect: int) -> list[Effect]:
        if suspect not in self.core.registry or suspect in self.core.failed:
            return []
        # Only the suspect's child on that column may name it: anyone
        # else could get a briefly unreachable bystander spliced out.
        matrix = self.core.matrix
        if (reporter not in matrix
                or column not in matrix.row(reporter).columns
                or matrix.parent_in_column(reporter, column) != suspect):
            return []
        effects: list[Effect] = []
        if suspect not in self._open_episodes:
            self._open_episodes.add(suspect)
            effects.append(ComplaintNoted(suspect=suspect))
        if suspect in self.pending_probes:
            return effects  # probe already in flight
        self._nonce += 1
        self.pending_probes[suspect] = self._nonce
        effects.append(Send(suspect, Probe(nonce=self._nonce)))
        effects.append(StartTimer(
            key=("probe", suspect, self._nonce), delay=self.probe_timeout,
        ))
        return effects

    def _on_probe_ack(self, node_id: int, nonce: int) -> list[Effect]:
        if self.pending_probes.get(node_id) == nonce:
            del self.pending_probes[node_id]
        return []

    def _on_probe_timeout(self, suspect: int, nonce: int) -> list[Effect]:
        if self.pending_probes.get(suspect) != nonce:
            return []  # the suspect answered: spurious complaint
        del self.pending_probes[suspect]
        if suspect not in self.core.registry:
            return []
        return [CloseConnection(node_id=suspect),
                *self._fail_and_splice(suspect)]

    def _on_connection_lost(self, node_id: int) -> list[Effect]:
        if node_id not in self.core.registry:
            return []
        return self._fail_and_splice(node_id)

    def _fail_and_splice(self, node_id: int) -> list[Effect]:
        """Splice a crashed peer out of every column (Lemma 1)."""
        self._open_episodes.discard(node_id)
        self.core.fail(node_id)
        redirects = self.core.repair(node_id)
        return [
            PeerDeparted(node_id=node_id, reason="crash"),
            *self._redirect_sends(redirects),
        ]

    def _redirect_sends(self, redirects) -> list[Effect]:
        """Re-clip every child a redirect moved onto its new parent."""
        return [
            Send(redirect.child,
                 SetParent(column=redirect.column, parent=redirect.parent))
            for redirect in redirects if redirect.child is not None
        ]

    # ------------------------------------------------------------------
    # §5 congestion handling

    def _on_congestion_drop(self, node_id: int) -> list[Effect]:
        if node_id not in self.core.registry or node_id in self.core.failed:
            return []
        matrix = self.core.matrix
        if matrix.row(node_id).degree <= 1:
            return []  # never strand a node with zero threads
        # Capture the neighbourhood BEFORE the splice: the dropped
        # column's parent must be retargeted at the dropped column's
        # child, both read from the pre-drop state.
        parents_before = matrix.parents_of(node_id)
        children_before = matrix.children_of(node_id)
        column = self.core.congestion_drop(node_id)
        parent = parents_before[column]
        child = children_before[column]
        effects: list[Effect] = [
            Send(node_id, ThreadRemoved(column=column)),
        ]
        if child is not None:
            effects.append(Send(
                child, SetParent(column=column, parent=parent)))
        return effects

    def _on_congestion_restore(self, node_id: int) -> list[Effect]:
        if node_id not in self.core.registry or node_id in self.core.failed:
            return []
        matrix = self.core.matrix
        if matrix.row(node_id).degree >= matrix.k:
            return []
        column = self.core.congestion_restore(node_id)
        parent = matrix.parent_in_column(node_id, column)
        child = matrix.child_in_column(node_id, column)
        effects: list[Effect] = [
            Send(node_id, SetParent(column=column, parent=parent)),
        ]
        if child is not None:
            effects.append(Send(
                child, SetParent(column=column, parent=node_id)))
        return effects
