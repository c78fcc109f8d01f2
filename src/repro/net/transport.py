"""The transport seam: how nodes reach the network and the clock.

Everything in :mod:`repro.net` that touches a socket or the passage of
time does so through three small protocols defined here:

* :class:`Clock` — ``time``/``sleep``, one timer primitive
  (``call_at``), plus ``advance`` (a driver-side hook that real clocks
  implement as a plain sleep);
* :class:`Listener` — the accepting side of a bound endpoint;
* :class:`Transport` — dial + bind, returning stream reader/writer
  pairs shaped like asyncio's.

:class:`ServerNode`, :class:`PeerNode` and the outbound pumps in
:mod:`repro.net.streams` are written against these protocols only.  The
default implementations (:class:`AsyncioClock`, :class:`AsyncioTransport`)
delegate straight to asyncio TCP, so production behaviour is unchanged;
:mod:`repro.net.testing` swaps in a virtual clock and an in-memory
network to run the same protocol code deterministically, with scripted
per-link faults, in milliseconds.

The reader/writer duck types (:class:`ByteStreamReader`,
:class:`ByteStreamWriter`) capture the *only* stream surface the
protocol code relies on — ``read`` on the way in; ``write``,
``writelines``, ``drain``, ``close`` and ``get_extra_info`` on the way
out — so an in-memory pipe can stand in for a socket without
monkeypatching.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Iterable, Protocol, runtime_checkable

__all__ = [
    "AsyncioClock",
    "AsyncioListener",
    "AsyncioTransport",
    "ByteStreamReader",
    "ByteStreamWriter",
    "Clock",
    "ConnectionHandler",
    "Listener",
    "TimerHandle",
    "Transport",
]


@runtime_checkable
class ByteStreamReader(Protocol):
    """The read surface the framing layer needs from a connection."""

    async def read(self, n: int) -> bytes:
        """Return between 1 and ``n`` bytes as soon as any are
        available; ``b""`` once the stream has ended."""
        ...


@runtime_checkable
class ByteStreamWriter(Protocol):
    """The write surface the protocol nodes need from a connection."""

    def write(self, data: bytes) -> None: ...

    def writelines(self, data: Iterable[bytes]) -> None: ...

    async def drain(self) -> None: ...

    def close(self) -> None: ...

    def get_extra_info(self, name: str) -> Any: ...


#: Signature of a connection handler passed to ``Transport.start_server``.
ConnectionHandler = Callable[
    [ByteStreamReader, ByteStreamWriter], Awaitable[None]
]


class TimerHandle(Protocol):
    """What :meth:`Clock.call_at` returns."""

    def cancel(self) -> None:
        """Make sure the callback never runs (a no-op once it has)."""
        ...


class Clock(Protocol):
    """Time as seen by the protocol code.

    ``time``/``sleep``/``call_at`` are used *inside* the nodes: pacing
    and backoff sleep, and every bound on a connection — upstream
    silence, the keep-alive idle, the first frame, a probe — is a
    deadline, one ``call_at`` per connection that checks its deadline
    when it fires and re-arms itself if the deadline has moved on.  No
    read or park is ever wrapped in a per-call timeout.  ``advance`` is
    the *driver-side* hook harnesses use to let a span of time pass — a
    real clock simply sleeps, a virtual clock fires every timer due in
    the span and settles the event loop between firings.
    """

    def time(self) -> float: ...

    async def sleep(self, delay: float) -> None: ...

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

    async def serve_forever(self) -> None: ...


class Transport(Protocol):
    """How a node dials out and binds in.  Carries its own clock so one
    injection point decides both the network and the timeline."""

    clock: Clock

    async def connect(
        self, host: str, port: int
    ) -> tuple[ByteStreamReader, ByteStreamWriter]: ...

    async def start_server(
        self, handler: ConnectionHandler, host: str, port: int
    ) -> Listener: ...


# ----------------------------------------------------------------------
# Default implementations: real asyncio TCP, real time.


class AsyncioClock:
    """Wall-clock time on the running event loop."""

    def time(self) -> float:
        return asyncio.get_event_loop().time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def call_at(self, when: float, callback: Callable[[], Any]) -> TimerHandle:
        return asyncio.get_running_loop().call_at(when, callback)

    async def advance(self, delay: float) -> None:
        await asyncio.sleep(delay)


class AsyncioListener:
    """Thin adapter giving :class:`asyncio.AbstractServer` the
    :class:`Listener` surface."""

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
    """The production transport: asyncio TCP streams."""

    def __init__(self) -> None:
        self.clock: Clock = AsyncioClock()

    async def connect(
        self, host: str, port: int
    ) -> tuple[ByteStreamReader, ByteStreamWriter]:
        return await asyncio.open_connection(host, port)

    async def start_server(
        self, handler: ConnectionHandler, host: str, port: int
    ) -> Listener:
        server = await asyncio.start_server(handler, host, port)
        return AsyncioListener(server)
