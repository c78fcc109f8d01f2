"""Protocol messages for the hello / good-bye / repair procedures (§3).

The server is a thin coordination point: it owns the matrix ``M`` and, for
every membership event, tells the affected peers how to re-aim their
streams.  These :class:`~typing.NamedTuple` records are the messages it
exchanges; the simulator and the examples use them, and
:class:`MessageStats` provides the message accounting reported by
experiment E12 (repair cost is O(d) messages per event).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional


class ThreadAssignment(NamedTuple):
    """One thread handed to a node: receive ``column`` from ``parent``.

    ``parent == SERVER`` means the stream comes directly from the server.
    """

    column: int
    parent: int


class HelloGrant(NamedTuple):
    """Server response to a join: the new node's id and thread set.

    ``redirects`` is non-empty only under random row insertion (§5): when
    the new row lands mid-matrix it splices into existing thread segments,
    and the displaced children must be told to receive from the newcomer.
    """

    node_id: int
    assignments: tuple[ThreadAssignment, ...]
    redirects: tuple["Redirect", ...] = ()


class Redirect(NamedTuple):
    """Instruction: on ``column``, ``parent`` now streams to ``child``.

    ``child is None`` means the thread becomes hanging (the parent stops
    forwarding on it and reports the free slot to the server pool).
    """

    column: int
    parent: int
    child: Optional[int]


class Complaint(NamedTuple):
    """A child reporting a dead incoming thread to the server."""

    reporter: int
    column: int
    suspect: int


@dataclass
class MessageStats:
    """Counters for every protocol message the server sends or receives."""

    hello_requests: int = 0
    hello_grants: int = 0
    goodbye_requests: int = 0
    complaints: int = 0
    redirects: int = 0
    congestion_notices: int = 0

    def total(self) -> int:
        """Total protocol messages exchanged."""
        return (
            self.hello_requests
            + self.hello_grants
            + self.goodbye_requests
            + self.complaints
            + self.redirects
            + self.congestion_notices
        )
