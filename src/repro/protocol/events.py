"""Events: everything the outside world can tell a protocol engine.

An event is a plain :class:`~typing.NamedTuple`; the engines never look
at a socket, a clock, or an event loop — whatever happened out there is
narrated to them through one of these.  Drivers construct events from
their transport (delivered control frames, stream EOFs, fired
timers, read timeouts) and feed them to ``engine.handle``.

Engines are clockless: whatever is time-based (read timeouts, probe
timers, backoff sleeps) the driver times and narrates as an event.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = [
    "ConnectionLost",
    "Event",
    "MessageReceived",
    "ServerLost",
    "TimerFired",
    "UpstreamDown",
]


class MessageReceived(NamedTuple):
    """A control message arrived.

    ``sender`` is the authenticated transport identity when the driver
    has one (the node id owning the control connection); ``None`` when
    the message speaks for itself (e.g. a fresh ``JoinRequest``).
    """

    message: object
    sender: Optional[object] = None


class ConnectionLost(NamedTuple):
    """A peer's control connection died without a good-bye (EOF-crash
    fast path — only transports with connections emit this)."""

    node_id: int


class TimerFired(NamedTuple):
    """A timer the engine previously requested (``StartTimer``) fired.
    The ``key`` round-trips verbatim; stale keys are ignored."""

    key: tuple


class UpstreamDown(NamedTuple):
    """A peer's upstream connection on ``column`` ended — closed by the
    parent or cut by the driver's read timeout.  ``saw_traffic`` is
    True if any packet or keep-alive arrived during the session — a
    healthy session resets the reconnect backoff."""

    column: int
    parent: int
    saw_traffic: bool


class ServerLost(NamedTuple):
    """The peer's control connection to the server is gone: no more
    membership repair, but the data plane keeps flowing (§6)."""

    def __bool__(self) -> bool:
        # A record is truthy: a fieldless tuple would not be.
        return True


#: Anything ``handle`` accepts.
Event = object
