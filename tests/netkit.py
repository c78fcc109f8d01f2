"""Test-side ends of connections: a handler that collects what a
connection is sent, a fake transport that collects what a node writes,
the dial/listen shorthands the net tests share, and the names a
node's registry snapshot holds."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.framing import Connection, FrameBuffer, Handler


class Inbox(Handler):
    """Collects every message its connection is sent, in order, and
    ``None`` when the connection ends (its error in ``error``).
    ``on_connect(inbox)`` runs once the connection is up, and
    ``on_message(inbox, message)`` after each message, if given."""

    def __init__(self, on_message: Optional[Callable] = None,
                 on_connect: Optional[Callable] = None) -> None:
        self.messages: list = []
        self.connection: Optional[Connection] = None
        self.error: Optional[BaseException] = None
        self.on_message = on_message
        self.on_connect = on_connect

    def connected(self, connection: Connection) -> None:
        self.connection = connection
        if self.on_connect is not None:
            self.on_connect(self)

    def message(self, message) -> None:
        self.messages.append(message)
        if self.on_message is not None:
            self.on_message(self, message)

    def closed(self, error) -> None:
        self.error = error
        self.messages.append(None)

    @property
    def transport(self):
        return self.connection.transport

    def write(self, data: bytes) -> None:
        self.connection.transport.write(data)

    def writelines(self, frames) -> None:
        self.connection.transport.writelines(frames)

    def close(self) -> None:
        self.connection.close()


async def dial(net, src: str, host: str, port: int,
               inbox: Optional[Inbox] = None) -> Inbox:
    """Dial ``host:port`` from ``src`` on the virtual network; the
    :class:`Inbox` that collects what the connection is sent."""
    inbox = Inbox() if inbox is None else inbox
    await net.open_connection(src, host, port, lambda: Connection(inbox))
    return inbox


def listen(net, host: str, port: int, on_message=None,
           accepted: Optional[list] = None, on_connect=None):
    """Bind ``host:port``; every accepted connection gets an
    :class:`Inbox` (appended to ``accepted``) with ``on_message`` and
    ``on_connect``."""

    def factory():
        inbox = Inbox(on_message, on_connect)
        if accepted is not None:
            accepted.append(inbox)
        return Connection(inbox)

    return net.bind(host, port, factory)


class CollectingWriter:
    """A transport whose sink is a list."""

    def __init__(self):
        self.chunks = []
        self.batches = []
        self.closed = False

    def write(self, data):
        self.chunks.append(bytes(data))

    def writelines(self, frames):
        frames = [bytes(f) for f in frames]
        self.batches.append(frames)
        self.chunks.extend(frames)

    def close(self):
        self.closed = True

    def get_extra_info(self, name, default=None):
        return default


def parsed(writer: CollectingWriter) -> list:
    """What was written to ``writer``, parsed back into messages."""
    buffer = FrameBuffer()
    buffer.feed(b"".join(writer.chunks))
    return list(iter(buffer.next_message, None))


def snapshot_names(registry) -> set:
    """Every instrument name in one snapshot of ``registry``."""
    return {name for section in registry.snapshot().values()
            for name in section}
