"""Protocol messages of the §3/§5 control plane.

These are the protocol's concrete messages, shared by the sans-IO
engines in this package and their driver (:mod:`repro.net`, which also
serialises them to wire frames).  They are :class:`~typing.NamedTuple`
subclasses, built on hot paths with ``tuple.__new__(cls, fields)``.
"""

from __future__ import annotations

from typing import NamedTuple


class JoinRequest(NamedTuple):
    """A prospective peer asks to join (the hello protocol)."""

    reply_to: int  # provisional transport address chosen by the joiner


class JoinGrant(NamedTuple):
    """Server -> new peer: your id and your thread assignments."""

    node_id: int
    assignments: tuple[tuple[int, int], ...]  # (column, parent)


class SetParent(NamedTuple):
    """Server -> child: your stream on ``column`` now comes from ``parent``."""

    column: int
    parent: int


class LeaveRequest(NamedTuple):
    """Peer -> server: graceful good-bye."""

    node_id: int


class KeepAlive(NamedTuple):
    """Parent -> child, per thread per interval: the stream is alive.

    Stands in for the data packets themselves — a child detects a dead
    thread by their absence.
    """

    column: int
    sender: int


class CongestionDrop(NamedTuple):
    """Peer -> server: I am congested; splice me out of one thread."""

    node_id: int


class CongestionRestore(NamedTuple):
    """Peer -> server: congestion cleared; give me a thread back."""

    node_id: int


class ThreadRemoved(NamedTuple):
    """Server -> peer: you no longer hold ``column`` at all (shed)."""

    column: int


class ComplaintMsg(NamedTuple):
    """Child -> server: my incoming thread on ``column`` went silent."""

    reporter: int
    column: int
    suspect: int


class Probe(NamedTuple):
    """Server -> suspect: are you alive?"""

    nonce: int


class ProbeAck(NamedTuple):
    """Suspect -> server: alive (cancels the pending repair)."""

    node_id: int
    nonce: int
