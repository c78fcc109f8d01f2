"""Events: everything a driver can tell a data-plane engine.

As in :mod:`repro.protocol.events`, an event is a plain immutable
record narrating something that happened in the outside world — a
coded packet arrived, a downstream subscriber attached or told us what
it has finished, a clocked slot wants an emission.  The engines never
look at a socket or a clock; connection drivers feed arrival-shaped
events (:class:`PacketArrived`, and — all from one place, the live
:class:`~repro.net.streams.PumpSet` — a child connection's
:class:`ChildAttached`, :class:`ChildCompleted`, :class:`IdlePoll` and
:class:`ChildDetached`) and clocked drivers feed schedule-shaped ones
(:class:`EmitRound`, :class:`PullEmit`).

``child``/``destination`` identities are opaque hashables owned by the
driver — a ``(node_id, column)`` pair at a live peer, a column at the
server, a bare node id in the slotted simulator.  The engines only use
them to keep fan-out order and each child's completed set.

A child's *completed set* is written ``(base, extras)`` throughout:
every generation below ``base`` is complete and ``extras`` names the
complete ones above it, so a child served in order is one integer, and
a child that has reported nothing holds ``(0, ())``.

Unlike the control-plane vocabulary these records ride the per-packet
hot path (one event per arrival, per pull, per slot edge), so they are
:class:`~typing.NamedTuple` subclasses rather than frozen dataclasses:
construction is a C-level tuple fill, with the same field names, repr
format, equality, and hashability.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

__all__ = [
    "ChildAttached",
    "ChildCompleted",
    "ChildDetached",
    "EmitRound",
    "Event",
    "IdlePoll",
    "PacketArrived",
    "PullEmit",
]


class PacketArrived(NamedTuple):
    """An upstream coded packet landed at this node.

    ``now`` is the driver's clock (slot number, virtual seconds, wall
    seconds) and is only echoed into bookkeeping — the engines are
    clockless.
    """

    packet: object
    now: float = 0.0


class ChildAttached(NamedTuple):
    """A downstream subscriber attached (a child dialed its data
    connection; a repaired node re-clipped below us).  A relay answers
    with its seed-burst.

    ``completed`` is the ``(base, extras)`` set the child reported as
    it dialed, so a re-clipped child is never re-sent what it holds; a
    child that reported nothing yet holds the empty set ``(0, ())``."""

    child: Hashable
    completed: tuple


class ChildCompleted(NamedTuple):
    """An attached child reported its completed set (cumulative: the
    engine takes the union with what it already knew).  From now on
    the child is served the lowest generation it lacks and the sender
    holds, or nothing."""

    child: Hashable
    base: int
    extras: tuple = ()


class ChildDetached(NamedTuple):
    """The subscriber is gone; forget its fan-out slot and completed
    set."""

    child: Hashable


class IdlePoll(NamedTuple):
    """The driver's outbound pump for ``child`` has been idle for a
    keep-alive period and offers to carry a data-bearing packet instead
    of an empty heartbeat.  Every push pump asks it, at the source and
    at every relay; an engine with nothing to send answers ``[]`` and
    the heartbeat goes."""

    child: Hashable


class EmitRound(NamedTuple):
    """Clocked source cadence: one emission round toward the currently
    attached ``targets`` — one packet each, of the lowest generation
    that target has not reported complete; a target that needs nothing
    is skipped."""

    targets: tuple = ()


class PullEmit(NamedTuple):
    """Clocked per-edge emission: a slotted driver asks for the packet
    to put on the edge toward ``destination`` this slot — a fresh
    mixture of whatever the sender holds, unconditionally (no effect
    only from a relay that holds nothing yet)."""

    destination: Hashable


#: Anything ``handle`` accepts.
Event = object
