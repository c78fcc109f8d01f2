"""Protocol messages of the §3/§5 control plane.

These are the protocol's concrete messages, shared by the sans-IO
engines in this package and their driver (:mod:`repro.net`, which also
serialises them to wire frames).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class JoinRequest:
    """A prospective peer asks to join (the hello protocol)."""

    reply_to: int  # provisional transport address chosen by the joiner


@dataclass(frozen=True)
class JoinGrant:
    """Server -> new peer: your id and your thread assignments."""

    node_id: int
    assignments: tuple[tuple[int, int], ...]  # (column, parent)


@dataclass(frozen=True)
class SetParent:
    """Server -> child: your stream on ``column`` now comes from ``parent``."""

    column: int
    parent: int


@dataclass(frozen=True)
class LeaveRequest:
    """Peer -> server: graceful good-bye."""

    node_id: int


@dataclass(frozen=True)
class KeepAlive:
    """Parent -> child, per thread per interval: the stream is alive.

    Stands in for the data packets themselves — a child detects a dead
    thread by their absence.
    """

    column: int
    sender: int


@dataclass(frozen=True)
class CongestionDrop:
    """Peer -> server: I am congested; splice me out of one thread."""

    node_id: int


@dataclass(frozen=True)
class CongestionRestore:
    """Peer -> server: congestion cleared; give me a thread back."""

    node_id: int


@dataclass(frozen=True)
class ThreadRemoved:
    """Server -> peer: you no longer hold ``column`` at all (shed)."""

    column: int


@dataclass(frozen=True)
class ComplaintMsg:
    """Child -> server: my incoming thread on ``column`` went silent."""

    reporter: int
    column: int
    suspect: int


@dataclass(frozen=True)
class Probe:
    """Server -> suspect: are you alive?"""

    nonce: int


@dataclass(frozen=True)
class ProbeAck:
    """Suspect -> server: alive (cancels the pending repair)."""

    node_id: int
    nonce: int
