"""Asyncio surface: the scrape endpoint.

This is the only ``repro.obs`` module allowed to import asyncio — the
layering check exempts it by name.  Everything it serves comes from a
*provider*: a zero-argument callable returning the snapshot object of
:func:`repro.obs.export.snapshot_obj`, so the server knows nothing
about registries, nodes, or who owns what.

:class:`MetricsServer` is a deliberately tiny HTTP/1.0-style endpoint
on :func:`asyncio.start_server` (no ``http.server`` thread, no route
framework): ``GET /metrics`` answers Prometheus text, ``GET
/metrics.json`` (or ``/``) the JSON snapshot.  Anything else is 404.
One scrape = one connection = one response; the writer closes after
answering, which is all a scraper needs.  A request head (request line
and headers) longer than :data:`_MAX_REQUEST_BYTES`, or not complete
within :data:`_HEAD_TIMEOUT` seconds, is dropped unanswered.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Optional

from .export import prometheus_text

__all__ = ["MetricsServer"]

#: Returns a snapshot object (``snapshot_obj`` shape) on demand.
SnapshotProvider = Callable[[], dict]

#: Most bytes a request head may take, headers included.
_MAX_REQUEST_BYTES = 8192
#: Seconds a client has to send its whole request head.
_HEAD_TIMEOUT = 5.0


class MetricsServer:
    """Serve live snapshots over HTTP for scrapers and curl.

    Args:
        provider: Called once per request for a fresh snapshot.
        host: Bind address (loopback by default — metrics are not
            meant to face the open network).
        port: TCP port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        provider: SnapshotProvider,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._provider = provider
        self._host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self) -> "MetricsServer":
        self._server = await asyncio.start_server(
            self._handle, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await asyncio.wait_for(_read_head(reader), _HEAD_TIMEOUT)
            writer.write(self._respond(request))
            await writer.drain()
        except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            writer.close()

    def _respond(self, request_line: str) -> bytes:
        parts = request_line.split()
        path = parts[1].split("?", 1)[0] if len(parts) >= 2 else ""
        if len(parts) < 2 or parts[0] != "GET":
            return _response(405, "text/plain", "method not allowed\n")
        snapshot = self._provider()
        if path == "/metrics":
            return _response(
                200, "text/plain; version=0.0.4", prometheus_text(snapshot)
            )
        if path in ("/", "/metrics.json"):
            return _response(
                200, "application/json",
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            )
        return _response(404, "text/plain", "not found\n")


async def _read_head(reader: asyncio.StreamReader) -> str:
    """The request line, once the head behind it has been read to its
    blank line (so well-behaved clients see a clean close); raises
    ``ValueError`` past :data:`_MAX_REQUEST_BYTES`."""
    request = line = await reader.readline()
    size = len(request)
    while size <= _MAX_REQUEST_BYTES and line not in (b"", b"\r\n", b"\n"):
        line = await reader.readline()
        size += len(line)
    if size > _MAX_REQUEST_BYTES:
        raise ValueError("request head too long")
    return request.decode("latin-1", "replace")


def _response(status: int, content_type: str, body: str) -> bytes:
    reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}[status]
    payload = body.encode()
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload

