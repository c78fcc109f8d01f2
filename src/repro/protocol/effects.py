"""Effects: everything a protocol engine can ask its driver to do.

Effects are data, not actions.  ``engine.handle(event)`` returns a list
of them, in the exact order the driver must perform them (send order is
part of the protocol: two ``SetParent`` pushes for one column must reach
the child in the order the server decided them, or it re-clips to a
stale parent).  The driver translates each effect into its transport's
vocabulary — a stream write, an asyncio task, a clock timer.

Notification effects (``Admitted``, ``ComplaintNoted``,
``PeerDeparted``) carry no protocol obligation; they exist so drivers
can keep their own bookkeeping (stats counters, peer handles) without
reimplementing the decision logic.

Effects are :class:`~typing.NamedTuple` subclasses, which the engines
build with ``tuple.__new__(cls, fields)``: no Python frame.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "Admitted",
    "Backoff",
    "Clip",
    "CloseConnection",
    "ComplaintNoted",
    "Effect",
    "PeerDeparted",
    "Send",
    "StartTimer",
    "StopThread",
]


class Send(NamedTuple):
    """Deliver ``message`` to node ``to`` (:data:`~repro.core.matrix.SERVER`
    means the coordination server)."""

    to: int
    message: object


class StartTimer(NamedTuple):
    """Arrange for ``TimerFired(key)`` after ``delay`` seconds."""

    key: tuple
    delay: float


class CloseConnection(NamedTuple):
    """Server driver: tear down this peer's control connection (probe
    timed out; the suspect is being spliced away)."""

    node_id: int


class Admitted(NamedTuple):
    """Hello protocol completed: ``node_id`` joined with these
    ``(column, parent)`` assignments.  Emitted before the grant and
    redirect sends so the driver can set up per-peer state first."""

    node_id: int
    assignments: tuple[tuple[int, int], ...]


class ComplaintNoted(NamedTuple):
    """First complaint of a failure episode against ``suspect`` was
    accepted (repair-latency bookkeeping hook)."""

    suspect: int


class PeerDeparted(NamedTuple):
    """``node_id`` is out of the matrix: ``"leave"`` for a graceful
    good-bye, ``"crash"`` for an EOF or probe-timeout splice."""

    node_id: int
    reason: str


class Clip(NamedTuple):
    """Peer driver: (re)connect the upstream pump for ``column`` to
    ``parent`` — the live Lemma 1 re-clip."""

    column: int
    parent: int


class StopThread(NamedTuple):
    """Peer driver: stop the upstream pump for ``column`` entirely."""

    column: int


class Backoff(NamedTuple):
    """Peer driver: wait ``delay`` seconds before redialing ``column``
    (one step of the exponential reconnect schedule)."""

    column: int
    delay: float


#: Anything ``handle`` returns.
Effect = object
