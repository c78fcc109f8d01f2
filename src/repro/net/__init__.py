"""repro.net — the curtain-rod protocol over real sockets.

Where :mod:`repro.sim` runs the data plane in synchronous slots, this
package runs it and the §3 control protocol on asyncio TCP: a
:class:`ServerNode` owning the thread matrix and the source stream, and
:class:`PeerNode` instances that clip threads, recode with the shared
:mod:`repro.coding` machinery, and forward through bounded per-child
queues.  A whole session in one process — server plus N peers, on real
sockets or in memory — is :class:`repro.net.testing.ChaosHarness`.

All I/O goes through the :class:`Transport` seam — real asyncio streams
by default, or the in-memory fault-injecting network of
:mod:`repro.net.testing` (kept out of this package's import graph; pull
it in explicitly).
"""

from .control import (
    ControlFormatError,
    DataHello,
    GenerationsComplete,
    MESSAGE_TYPES,
    PeerLocator,
    SessionInfo,
    decode_control,
    encode_control,
)
from .framing import (
    FrameBuffer,
    FramingError,
    KIND_CONTROL,
    KIND_DATA,
    MessageStream,
    encode_frame,
    send_control,
)
from .peer import PeerNode, PeerStats
from .server import ServerNode, ServerStats
from .streams import PacketSender, SenderStats
from .transport import (
    AsyncioClock,
    AsyncioTransport,
    Clock,
    Listener,
    Transport,
)

__all__ = [
    "AsyncioClock",
    "AsyncioTransport",
    "Clock",
    "ControlFormatError",
    "DataHello",
    "FrameBuffer",
    "FramingError",
    "GenerationsComplete",
    "KIND_CONTROL",
    "KIND_DATA",
    "Listener",
    "MESSAGE_TYPES",
    "MessageStream",
    "PacketSender",
    "PeerLocator",
    "PeerNode",
    "PeerStats",
    "SenderStats",
    "ServerNode",
    "ServerStats",
    "SessionInfo",
    "Transport",
    "decode_control",
    "encode_control",
    "encode_frame",
    "send_control",
]
