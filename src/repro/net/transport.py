"""The transport seam: how nodes reach the network and the clock.

Everything in :mod:`repro.net` that touches a socket or the passage of
time does so through the small protocols defined here:

* :class:`Clock` — ``time``, one timer primitive (``call_at``), plus
  ``advance`` (a driver-side hook that real clocks
  implement as a plain sleep);
* :class:`Listener` — the accepting side of a bound endpoint;
* :class:`Transport` — dial + bind, each handed a *protocol factory*
  the way asyncio's ``create_connection``/``create_server`` are.

A connection is callbacks, not a coroutine: the transport calls the
:class:`asyncio.Protocol`-shaped object the factory made —
``connection_made`` with the connection's write side
(``ByteStreamWriter``), ``data_received`` with every
segment as it lands, ``eof_received``/``connection_lost`` when it ends,
and ``pause_writing``/``resume_writing`` when the bytes written but not
yet sent cross the transport's high-water mark and fall back below it.
That flow-control pair is what a stream writer's ``drain`` used to
await; nothing awaits it now, an outbound pump just stops flushing
while it is paused (:mod:`repro.net.streams`).  No read is ever parked
on, so an idle connection holds no task.

:class:`ServerNode`, :class:`PeerNode` and :mod:`repro.net.streams` are
written against these protocols only.  The default implementations
(:class:`AsyncioClock`, :class:`AsyncioTransport`) delegate straight to
asyncio's TCP transports; :mod:`repro.net.testing` swaps in a virtual
clock and an in-memory network to run the same protocol code
deterministically, with scripted per-link faults, in milliseconds.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Protocol

__all__ = [
    "AsyncioClock",
    "AsyncioListener",
    "AsyncioTransport",
    "ByteStreamWriter",
    "Clock",
    "FlushBatch",
    "Listener",
    "ProtocolFactory",
    "TimerHandle",
    "Transport",
]


#: What a connection's protocol is handed in ``connection_made``: the
#: write side of an asyncio transport — ``write``, ``writelines``,
#: ``close``, ``get_extra_info`` are all the nodes use, and all the
#: virtual network's pipes implement.
ByteStreamWriter = asyncio.WriteTransport

#: Makes the protocol object of one new connection: anything with
#: :class:`asyncio.Protocol`'s callbacks.
ProtocolFactory = Callable[[], asyncio.Protocol]


class TimerHandle(Protocol):
    """What :meth:`Clock.call_at` returns."""

    def cancel(self) -> None:
        """Make sure the callback never runs (a no-op once it has)."""
        ...


class FlushBatch:
    """The outbound pumps with frames to write this loop tick.

    Every clock owns one, so all the pumps on one timeline — a node's,
    or a whole virtual network's — write through one loop callback per
    tick (:mod:`repro.net.streams` joins and runs it): the first pump
    to join in a tick schedules it, on ``loop``, and the callback
    flushes ``pumps`` in join order.
    """

    __slots__ = ("pumps", "loop")

    def __init__(self) -> None:
        #: Pumps that joined since the callback last ran, in join order.
        self.pumps: list = []
        #: The loop the callback is pending on; None once it has run.
        self.loop: Optional[asyncio.AbstractEventLoop] = None


class Clock(Protocol):
    """Time as seen by the protocol code.

    ``time``/``call_at`` are used *inside* the nodes: the source's
    emission rounds and a thread's backoff are each one timer, and
    every bound on a connection — upstream silence, the keep-alive
    idle, the first frame, a probe — is a deadline, one ``call_at`` per
    connection that checks its deadline when it fires and re-arms
    itself if the deadline has moved on.  Nothing sleeps.
    ``advance`` is the *driver-side* hook harnesses use to let a span
    of time pass — a real clock simply sleeps, a virtual clock fires
    every timer due in the span and settles the event loop between
    firings.  ``flushes`` is the timeline's :class:`FlushBatch`.
    """

    flushes: FlushBatch

    def time(self) -> float: ...

    def call_at(self, when: float, callback: Callable[[], Any]) -> TimerHandle:
        """Run ``callback()`` on the event loop once :meth:`time`
        reaches ``when`` (an absolute time on this clock)."""
        ...

    async def advance(self, delay: float) -> None: ...


class Listener(Protocol):
    """A bound, accepting endpoint."""

    @property
    def address(self) -> tuple[str, int]: ...

    def close(self) -> None: ...

    async def wait_closed(self) -> None: ...


class Transport(Protocol):
    """How a node dials out and binds in.  Carries its own clock so one
    injection point decides both the network and the timeline."""

    clock: Clock

    async def connect(
        self, factory: ProtocolFactory, host: str, port: int
    ) -> asyncio.Protocol:
        """Dial ``host:port``; the protocol ``factory`` made, once its
        ``connection_made`` has run."""
        ...

    async def start_server(
        self, factory: ProtocolFactory, host: str, port: int
    ) -> Listener: ...


# ----------------------------------------------------------------------
# Default implementations: real asyncio TCP, real time.


class AsyncioClock:
    """Wall-clock time on the running event loop."""

    def __init__(self) -> None:
        self.flushes = FlushBatch()

    def time(self) -> float:
        return asyncio.get_event_loop().time()

    def call_at(self, when: float, callback: Callable[[], Any]) -> TimerHandle:
        return asyncio.get_running_loop().call_at(when, callback)

    async def advance(self, delay: float) -> None:
        await asyncio.sleep(delay)


class AsyncioListener:
    """Thin adapter giving :class:`asyncio.AbstractServer` the
    :class:`Listener` surface (plus ``serve_forever``, which only the
    ``repro serve`` command blocks on)."""

    def __init__(self, server: asyncio.AbstractServer) -> None:
        self._server = server

    @property
    def address(self) -> tuple[str, int]:
        return self._server.sockets[0].getsockname()[:2]

    def close(self) -> None:
        self._server.close()

    async def wait_closed(self) -> None:
        await self._server.wait_closed()

    async def serve_forever(self) -> None:
        await self._server.serve_forever()


class AsyncioTransport:
    """The production transport: asyncio TCP transports and protocols."""

    def __init__(self) -> None:
        self.clock: Clock = AsyncioClock()

    async def connect(
        self, factory: ProtocolFactory, host: str, port: int
    ) -> asyncio.Protocol:
        loop = asyncio.get_running_loop()
        _, protocol = await loop.create_connection(factory, host, port)
        return protocol

    async def start_server(
        self, factory: ProtocolFactory, host: str, port: int
    ) -> Listener:
        loop = asyncio.get_running_loop()
        return AsyncioListener(await loop.create_server(factory, host, port))
