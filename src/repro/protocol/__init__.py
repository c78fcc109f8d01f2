"""repro.protocol — the sans-IO core of the §3/§5 control protocol.

One implementation of the control plane, one driver, two transports.
The :class:`ServerEngine` (hello/good-bye, EOF-crash fast path,
complaint→probe→repair slow path, §5 congestion) and
:class:`PeerEngine` (clip/re-clip, silence detection, complaint
emission, reconnect backoff) are pure state machines: they consume
typed :mod:`~repro.protocol.events` and return typed
:mod:`~repro.protocol.effects`, and never import asyncio, sockets, or
the simulators.  Drivers own the I/O:

* :mod:`repro.net.server` / :mod:`repro.net.peer` pump effects through
  the :class:`~repro.net.transport.Transport` seam (real asyncio TCP
  or the in-memory chaos network under virtual time);
* the chaos harness asserts protocol invariants against the engines'
  state directly.

The layering is enforced: ``tools/check_layering.py`` (run in CI and
as a tier-1 test) rejects any import of ``asyncio``, ``repro.net`` or
``repro.sim`` from this package.
"""

from .backoff import ReconnectBackoff
from .effects import (
    Admitted,
    Backoff,
    Clip,
    CloseConnection,
    ComplaintNoted,
    Effect,
    PeerDeparted,
    Send,
    StartTimer,
    StopThread,
)
from .events import (
    ConnectionLost,
    Event,
    MessageReceived,
    ServerLost,
    TimerFired,
    UpstreamDown,
)
from .messages import (
    ComplaintMsg,
    CongestionDrop,
    CongestionRestore,
    JoinGrant,
    JoinRequest,
    KeepAlive,
    LeaveRequest,
    Probe,
    ProbeAck,
    SetParent,
    ThreadRemoved,
)
from .peer_engine import PeerEngine
from .server_engine import ServerEngine
from .trace import EngineLog, replay

__all__ = [
    "Admitted",
    "Backoff",
    "Clip",
    "CloseConnection",
    "ComplaintMsg",
    "ComplaintNoted",
    "CongestionDrop",
    "CongestionRestore",
    "ConnectionLost",
    "Effect",
    "EngineLog",
    "Event",
    "JoinGrant",
    "JoinRequest",
    "KeepAlive",
    "LeaveRequest",
    "MessageReceived",
    "PeerDeparted",
    "PeerEngine",
    "Probe",
    "ProbeAck",
    "ReconnectBackoff",
    "Send",
    "ServerEngine",
    "ServerLost",
    "SetParent",
    "StartTimer",
    "StopThread",
    "ThreadRemoved",
    "TimerFired",
    "UpstreamDown",
    "replay",
]
