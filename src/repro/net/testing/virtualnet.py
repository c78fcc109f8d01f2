"""A deterministic in-memory network driven by a virtual clock.

This is the fault-injection counterpart of real asyncio TCP: the same
:class:`~repro.net.server.ServerNode` / :class:`~repro.net.peer.PeerNode`
code runs unmodified against :class:`VirtualTransport`, but every
connection is an in-memory pipe, every timeout fires on
:class:`VirtualClock` virtual time, and every *link* (an ordered pair of
host names) carries a scripted :class:`LinkFaults`:

* ``latency`` / ``jitter`` — fixed plus seeded-uniform delivery delay;
* ``loss`` — per-segment drop probability (a segment is one ``write``
  call or one element of a ``writelines`` list, i.e. one protocol
  frame — loss stays frame-aligned, like a datagram network);
* ``corrupt`` — per-segment single-byte flip, exercising the v2 CRC32
  rejection path end to end;
* ``reorder`` — per-segment probability of swapping with the next
  queued segment;
* ``bandwidth`` / ``buffer_bytes`` — delivery rate cap and the
  receive-window bound ``drain()`` blocks on, which is how a slow
  reader pushes backpressure into the sender's drop-oldest queue;
* ``partitioned`` — both data and new connects blackholed until
  :meth:`VirtualNetwork.heal`;
* ``blackhole`` — one direction silently swallowed (a half-open
  connection: the sender keeps writing happily, the receiver hears
  silence).

All randomness flows from one seeded :class:`random.Random`, all timers
from one heap, and the asyncio loop's ready-queue is settled between
timer firings — so a scenario replayed with the same seed produces an
identical :attr:`VirtualNetwork.trace`, event for event.  No socket is
ever opened.

Delivery.  A segment written to a link with nothing scripted on it
(:meth:`LinkFaults.is_clean`) and nothing queued ahead of it is appended
straight to the reader's buffer — no copy, no task wakeup — and a
``writelines`` flush lands as one append.  A pipe gets a pump task only
the first time a segment actually needs delay, loss or throttling; from
then on segments queue behind the pump in order, one per frame, so
scripting a fault mid-connection never reorders bytes.  A
:class:`VirtualClock` built with a non-zero ``quantum`` additionally
fires every timer due within one quantum together and settles the loop
once per batch — what lets ten thousand peers share one heap.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..transport import Clock, ConnectionHandler

__all__ = [
    "LinkFaults",
    "VirtualClock",
    "VirtualNetwork",
    "VirtualTransport",
]


# ----------------------------------------------------------------------
# Virtual time


class VirtualTimer:
    """A :meth:`VirtualClock.call_at` timer: ``cancel()`` it before it
    runs and it never does.

    It waits on the clock's heap beside the futures of parked sleeps,
    and answers the two things the heap asks of them: ``done()`` (a
    cancelled timer is popped lazily, like a cancelled sleep) and
    ``set_result()`` (firing, which puts the callback on the loop's
    ready queue behind whatever fired before it).
    """

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[], Any]) -> None:
        self._callback: Optional[Callable[[], Any]] = callback

    def cancel(self) -> None:
        self._callback = None

    def done(self) -> bool:
        return self._callback is None

    def set_result(self, _result: None) -> None:
        asyncio.get_running_loop().call_soon(self._run)

    def _run(self) -> None:
        # Cancelled between firing and running: like asyncio's handles,
        # it still never runs.
        callback, self._callback = self._callback, None
        if callback is not None:
            callback()


class VirtualClock:
    """A :class:`~repro.net.transport.Clock` whose time only moves when a
    driver calls :meth:`advance` / :meth:`run_until`.

    ``sleep`` parks the caller on a timer heap and ``call_at`` puts a
    :class:`VirtualTimer` on the same heap, in one sequence, so a sleep
    and a timer due at the same instant fire in the order they were
    armed.  ``advance`` pops due timers in deadline order, settling the
    event loop (draining its ready queue) between firings so
    causally-dependent wakeups happen in a deterministic, repeatable
    order.
    """

    def __init__(self, *, quantum: float = 0.0) -> None:
        self._now = 0.0
        #: (deadline, sequence, sleeper's future or VirtualTimer)
        self._timers: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        #: Bound on settle iterations, so a busy-spinning task turns
        #: into a loud failure instead of a silent hang.
        self.settle_limit = 10_000
        #: Bound on timer firings per ``run_until`` call: a task that
        #: re-arms an epsilon timer on every wakeup keeps the virtual
        #: deadline finite but the wall clock unbounded — fail loudly
        #: instead.  10k-peer swarms legitimately fire ~100k timers per
        #: advance, so the ceiling is generous.
        self.firing_limit = 2_000_000
        #: Timer coalescing window: all timers due within one quantum of
        #: the earliest are fired together and the loop settles once per
        #: batch.  0.0 (the default) settles after every single timer,
        #: which scenarios asserting exact timer schedules rely on.
        self.quantum = quantum

    def time(self) -> float:
        return self._now

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heappush(self._timers, (self._now + delay, next(self._seq), future))
        await future

    def call_at(self, when: float, callback: Callable[[], Any]) -> VirtualTimer:
        timer = VirtualTimer(callback)
        heappush(self._timers, (when, next(self._seq), timer))
        return timer

    async def advance(self, delay: float) -> None:
        await self.run_until(self._now + delay)

    async def run_until(self, deadline: float) -> None:
        """Fire every timer due at or before ``deadline``, letting the
        event loop settle after each firing; ends with time == deadline."""
        fired = 0
        while True:
            await self._settle()
            while self._timers and self._timers[0][2].done():
                heappop(self._timers)  # cancelled sleeps and timers
            if not self._timers or self._timers[0][0] > deadline:
                break
            fired += 1
            if fired > self.firing_limit:
                raise RuntimeError(
                    f"virtual clock fired {self.firing_limit} timers before "
                    f"reaching t={deadline} (task re-arming an epsilon timer?)"
                )
            when, _, future = heappop(self._timers)
            self._now = max(self._now, when)
            if not future.done():
                future.set_result(None)
            if self.quantum:
                # Batch mode: fire everything due within one quantum,
                # then settle once for the whole batch.
                horizon = min(when + self.quantum, deadline)
                while self._timers and self._timers[0][0] <= horizon:
                    when, _, future = heappop(self._timers)
                    self._now = max(self._now, when)
                    if not future.done():
                        future.set_result(None)
        self._now = max(self._now, deadline)
        await self._settle()

    async def _settle(self) -> None:
        """Yield until the loop's ready queue is empty (all causally
        runnable callbacks have run)."""
        loop = asyncio.get_running_loop()
        ready = getattr(loop, "_ready", None)
        if ready is None:  # unknown loop implementation: best effort
            for _ in range(32):
                await asyncio.sleep(0)
            return
        for _ in range(self.settle_limit):
            await asyncio.sleep(0)
            if not ready:
                return
        raise RuntimeError(
            "virtual clock could not settle the event loop "
            f"in {self.settle_limit} iterations (busy-spinning task?)"
        )


# ----------------------------------------------------------------------
# Links and faults


@dataclass
class LinkFaults:
    """Scripted conditions on one *directed* host-to-host link."""

    latency: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    bandwidth: Optional[float] = None
    buffer_bytes: int = 1 << 16
    partitioned: bool = False
    blackhole: bool = False

    def delivers(self) -> bool:
        return not (self.partitioned or self.blackhole)

    def is_clean(self) -> bool:
        """True when nothing is scripted on the link: a segment can be
        delivered synchronously without changing observable behaviour."""
        return (
            self.latency == 0.0
            and self.jitter == 0.0
            and self.loss == 0.0
            and self.corrupt == 0.0
            and self.reorder == 0.0
            and self.bandwidth is None
            and not self.partitioned
            and not self.blackhole
        )


def _release(waiter: Optional[asyncio.Future]) -> None:
    """Wake a parked waiter, unless it is gone or was cancelled."""
    if waiter is not None and not waiter.done():
        waiter.set_result(None)


class _Pipe:
    """One direction of a virtual connection.

    On a clean link with nothing queued, ``feed`` appends straight to
    the readable buffer.  Otherwise it queues segments, and a single
    pump task per pipe (created on first need) applies the link's
    faults to each segment in order and appends survivors to the
    buffer.  ``drain`` blocks while more than ``buffer_bytes`` are
    queued-but-undelivered — the backpressure a slow or throttled
    receiver exerts on the sender.

    A parked reader, a parked pump and each blocked drain wait on a
    bare future that exists only while they are parked, so an idle pipe
    holds no waiter state.
    """

    __slots__ = (
        "net", "src", "dst", "buffer", "eof", "closed", "broken",
        "in_flight", "_segments", "_reader", "_writable", "_drainers",
        "_work", "_pump_task",
    )

    _EOF = object()

    def __init__(self, net: "VirtualNetwork", src: str, dst: str) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.buffer = bytearray()
        self.eof = False
        self.closed = False  # write side closed (flushes, then EOF)
        self.broken = False  # hard reset: drain raises, pump stops
        self.in_flight = 0
        self._segments: list = []
        #: The parked read's future (one reader per pipe, as a socket's
        #: stream reader allows).
        self._reader: Optional[asyncio.Future] = None
        #: False while more than the link's window is in flight.
        self._writable = True
        #: Futures of the drains blocked on the window; None when none is.
        self._drainers: Optional[list[asyncio.Future]] = None
        #: The parked pump's future.
        self._work: Optional[asyncio.Future] = None
        # No pump task until a segment actually needs the fault
        # pipeline — clean links deliver synchronously in feed().
        self._pump_task: Optional[asyncio.Task] = None

    def _ensure_pump(self) -> None:
        if self._pump_task is None:
            self._pump_task = asyncio.ensure_future(self._pump())
            self.net._track(self._pump_task)

    def _wake_reader(self) -> None:
        reader, self._reader = self._reader, None
        _release(reader)

    def _wake_pump(self) -> None:
        work, self._work = self._work, None
        _release(work)

    def _set_writable(self) -> None:
        self._writable = True
        drainers, self._drainers = self._drainers, None
        if drainers is not None:
            for drainer in drainers:
                _release(drainer)

    # -- writer side ---------------------------------------------------

    def feed(self, frames) -> None:
        """Accept one flush: a list of frames written together."""
        if self.closed or self.broken:
            return
        net = self.net
        # The link lookup is VirtualNetwork.faults, inline: keep both alike.
        if (
            self.in_flight == 0
            and not self._segments
            and net._links.get((self.src, self.dst), net._default).is_clean()
        ):
            # Nothing queued ahead, nothing scripted on the link: the
            # whole flush lands in the reader's buffer as one append,
            # with no pump wakeup (and the reader woken inline).
            data = b"".join(frames)
            if data:
                self.buffer += data
                reader, self._reader = self._reader, None  # _wake_reader
                if reader is not None and not reader.done():
                    reader.set_result(None)
                if net.record_trace:
                    net.record("deliver", self.src, self.dst, len(data))
            return
        # One segment per frame, so scripted loss and corruption stay
        # frame-aligned however the sender batched its flush.
        segments = [bytes(frame) for frame in frames if frame]
        if not segments:
            return
        self.in_flight += sum(map(len, segments))
        self._segments.extend(segments)
        self._ensure_pump()
        self._wake_pump()
        if self.in_flight > self.net.faults(self.src, self.dst).buffer_bytes:
            self._writable = False

    async def drained(self) -> None:
        while not self._writable:
            if self.broken:
                raise ConnectionResetError(f"virtual pipe {self.src}->{self.dst} reset")
            drainer = asyncio.get_running_loop().create_future()
            if self._drainers is None:
                self._drainers = []
            self._drainers.append(drainer)
            await drainer
        if self.broken:
            raise ConnectionResetError(f"virtual pipe {self.src}->{self.dst} reset")

    def close(self) -> None:
        """Flush pending segments, then deliver EOF."""
        if self.closed:
            return
        self.closed = True
        if self.in_flight == 0 and not self._segments:
            # Nothing queued ahead, and EOF takes no latency.
            self._deliver_eof()
            return
        self._segments.append(self._EOF)
        self._ensure_pump()
        self._wake_pump()

    def _deliver_eof(self) -> None:
        if self.net.faults(self.src, self.dst).delivers():
            self.eof = True
            self._wake_reader()
            self.net.record("eof", self.src, self.dst)
        else:
            self.net.record("void-eof", self.src, self.dst)

    def break_(self) -> None:
        """Hard reset (the other endpoint closed the connection): the
        writer's next drain raises, any parked reader sees EOF."""
        self.broken = True
        self.eof = True
        self._wake_pump()
        self._set_writable()
        self._wake_reader()

    # -- reader side ---------------------------------------------------

    async def read(self, n: int) -> bytearray:
        """Up to ``n`` buffered bytes, parking while there are none;
        empty at EOF.  This is the reader endpoint's ``read`` itself.
        Unlike a socket's, it returns a ``bytearray``: a buffer that
        fits is handed over whole, uncopied, and the pipe starts a new
        one."""
        while not self.buffer and not self.eof:
            if self._reader is not None and not self._reader.done():
                raise RuntimeError(
                    f"virtual pipe {self.src}->{self.dst}: read() called "
                    "while another read is parked")
            self._reader = asyncio.get_running_loop().create_future()
            await self._reader
        data = self.buffer
        if len(data) <= n:
            self.buffer = bytearray()
            return data
        data = bytes(data[:n])
        del self.buffer[:n]
        return data

    # -- delivery ------------------------------------------------------

    async def _pump(self) -> None:
        net, clock, rng = self.net, self.net.clock, self.net._rng
        try:
            while not self.broken:
                while not self._segments:
                    self._work = asyncio.get_running_loop().create_future()
                    await self._work
                    if self.broken:
                        return
                segment = self._segments.pop(0)
                if segment is self._EOF:
                    self._deliver_eof()
                    return
                faults = net.faults(self.src, self.dst)
                delay = faults.latency
                if faults.jitter:
                    delay += rng.uniform(0.0, faults.jitter)
                if faults.bandwidth:
                    delay += len(segment) / faults.bandwidth
                if delay > 0:
                    await clock.sleep(delay)
                self._deliver(segment, rng)
        except asyncio.CancelledError:
            pass

    def _deliver(self, segment: bytes, rng: random.Random) -> None:
        net = self.net
        self.in_flight -= len(segment)
        faults = net.faults(self.src, self.dst)  # re-read: may have changed mid-flight
        if self.in_flight <= faults.buffer_bytes:
            self._set_writable()
        if not faults.delivers():
            net.record("void", self.src, self.dst, len(segment))
            return
        if faults.loss and rng.random() < faults.loss:
            net.record("lose", self.src, self.dst, len(segment))
            return
        if faults.reorder and self._segments and self._segments[0] is not self._EOF:
            if rng.random() < faults.reorder:
                held = segment
                segment = self._segments.pop(0)
                self._segments.insert(0, held)
                net.record("reorder", self.src, self.dst)
        if faults.corrupt and rng.random() < faults.corrupt:
            index = rng.randrange(len(segment))
            bit = 1 << rng.randrange(8)
            segment = (segment[:index]
                       + bytes([segment[index] ^ bit])
                       + segment[index + 1:])
            net.record("corrupt", self.src, self.dst, index)
        self.buffer.extend(segment)
        self._wake_reader()
        net.record("deliver", self.src, self.dst, len(segment))


class _VirtualReader:
    """Reader endpoint of a pipe (the ``ByteStreamReader`` seam): its
    ``read`` is the pipe's own, so a parked read is one frame deep."""

    __slots__ = ("read",)

    def __init__(self, pipe: _Pipe) -> None:
        self.read = pipe.read


class _VirtualWriter:
    """Writer endpoint of a connection (duck-typed like StreamWriter).

    ``close`` closes the *connection*, matching socket semantics: our
    direction flushes then EOFs, the reverse direction is reset so the
    peer's next ``drain`` raises :class:`ConnectionResetError`.
    """

    __slots__ = ("_out", "_back", "_peername")

    def __init__(self, out: _Pipe, back: _Pipe, peername: tuple[str, int]) -> None:
        self._out = out
        self._back = back
        self._peername = peername

    def write(self, data: bytes) -> None:
        self._out.feed((data,))

    def writelines(self, frames) -> None:
        self._out.feed(frames)

    async def drain(self) -> None:
        await self._out.drained()

    def close(self) -> None:
        self._out.close()
        self._back.break_()

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        if name == "peername":
            return self._peername
        return default


class _VirtualListener:
    """A bound (host, port) accepting virtual connections."""

    def __init__(self, net: "VirtualNetwork", host: str, port: int,
                 handler: ConnectionHandler) -> None:
        self.net = net
        self.host = host
        self.port = port
        self.handler = handler
        self.closed = False
        #: What ``serve_forever`` waits on: made by the first wait,
        #: shared by every later one, resolved by ``close``.
        self._serving: Optional[asyncio.Future] = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def dispatch(self, reader: _VirtualReader, writer: _VirtualWriter) -> None:
        task = asyncio.ensure_future(self.handler(reader, writer))
        self.net._track(task)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            _release(self._serving)
            self.net._listeners.pop((self.host, self.port), None)

    async def wait_closed(self) -> None:
        return None

    async def serve_forever(self) -> None:
        task = asyncio.current_task()
        while not self.closed:
            if self._serving is None or self._serving.cancelled():
                self._serving = asyncio.get_running_loop().create_future()
            try:
                await self._serving
            except asyncio.CancelledError:
                # Cancelling one waiter cancels the shared future; the
                # others wait on afresh.  (Before 3.11 a task cannot
                # tell, and every waiter ends.)
                if getattr(task, "cancelling", lambda: 1)():
                    raise


# ----------------------------------------------------------------------
# The network


class VirtualNetwork:
    """All hosts, links and in-flight bytes of one simulated network.

    Hosts are plain strings; a node gets its own host via
    :meth:`transport`, and every ordered host pair is a link with its
    own :class:`LinkFaults`.  Every fault decision draws from one seeded
    generator and every observable event is appended to :attr:`trace`,
    so two runs with the same seed and script are byte-identical.
    """

    def __init__(self, clock: Optional[VirtualClock] = None, *, seed: int = 0,
                 record_trace: bool = True) -> None:
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self._rng = random.Random(seed)
        self._default = LinkFaults()
        self._links: dict[tuple[str, str], LinkFaults] = {}
        self._listeners: dict[tuple[str, int], _VirtualListener] = {}
        #: Ephemeral port counter, shared by binds and dial source
        #: ports.  Real ports are 16-bit — and PeerLocator frames encode
        #: them as such — so the counter wraps back to 1024 instead of
        #: marching past 65535 (a 10k-peer swarm burns through the
        #: 49152+ range in one join wave).
        self._ports = itertools.count(49152)
        self._tasks: set[asyncio.Task] = set()
        #: Trace recording toggle — a 10k-peer round generates millions
        #: of deliver events; soak runs switch the trace off.
        self.record_trace = record_trace
        #: (time, kind, *details) tuples — the deterministic event trace.
        self.trace: list[tuple] = []

    # -- bookkeeping ---------------------------------------------------

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def record(self, kind: str, *details) -> None:
        if self.record_trace:
            self.trace.append((round(self.clock.time(), 9), kind, *details))

    def events(self, *kinds: str) -> list[tuple]:
        """Trace entries filtered by event kind."""
        return [entry for entry in self.trace if entry[1] in kinds]

    async def shutdown(self) -> None:
        """Cancel every pump and handler task still alive."""
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- faults --------------------------------------------------------

    def faults(self, src: str, dst: str) -> LinkFaults:
        """The faults on src -> dst, for reading only: the link's own
        record if one was scripted, else the shared default.  Creates
        nothing, so the link table holds only scripted pairs."""
        return self._links.get((src, dst), self._default)

    def link(self, src: str, dst: str) -> LinkFaults:
        """The (directed) fault record for src -> dst, created on demand
        — the scripting API; the transport reads :meth:`faults`."""
        faults = self._links.get((src, dst))
        if faults is None:
            faults = replace(self._default)
            self._links[(src, dst)] = faults
        return faults

    def set_link(self, a: str, b: str, *, symmetric: bool = True, **faults) -> None:
        """Script fault values on a link (both directions by default)."""
        for key, value in faults.items():
            setattr(self.link(a, b), key, value)
            if symmetric:
                setattr(self.link(b, a), key, value)

    def set_default(self, **faults) -> None:
        """Apply fault values to every existing link and all future ones."""
        targets = [self._default, *self._links.values()]
        for key, value in faults.items():
            for target in targets:
                setattr(target, key, value)

    def partition(self, a: str, b: str) -> None:
        self.set_link(a, b, partitioned=True)
        self.record("partition", a, b)

    def heal(self, a: str, b: str) -> None:
        self.set_link(a, b, partitioned=False)
        self.record("heal", a, b)

    # -- topology ------------------------------------------------------

    def transport(self, host: str) -> "VirtualTransport":
        return VirtualTransport(self, host)

    def _next_port(self, host: Optional[str] = None) -> int:
        """The next ephemeral port; skips ports bound on ``host``."""
        while True:
            port = next(self._ports)
            if port > 65535:
                self._ports = itertools.count(1024)
                continue
            if host is None or (host, port) not in self._listeners:
                return port

    def bind(self, host: str, port: int, handler: ConnectionHandler) -> _VirtualListener:
        if port == 0:
            port = self._next_port(host)
        key = (host, port)
        if key in self._listeners:
            raise OSError(f"virtual address {host}:{port} already in use")
        listener = _VirtualListener(self, host, port, handler)
        self._listeners[key] = listener
        self.record("bind", host, port)
        return listener

    async def open_connection(
        self, src: str, dst: str, port: int
    ) -> tuple[_VirtualReader, _VirtualWriter]:
        """Dial ``dst:port`` from ``src`` — SYN latency, then either a
        refusal or a fresh pipe pair handed to the listener's handler."""
        faults = self.faults(src, dst)
        delay = faults.latency + (self._rng.uniform(0.0, faults.jitter)
                                  if faults.jitter else 0.0)
        if delay > 0:
            await self.clock.sleep(delay)
        listener = self._listeners.get((dst, port))
        if (listener is None or listener.closed
                or not self.faults(src, dst).delivers()
                or self.faults(dst, src).partitioned):
            self.record("refused", src, dst, port)
            raise ConnectionRefusedError(f"virtual connect {src}->{dst}:{port}")
        out = _Pipe(self, src, dst)
        back = _Pipe(self, dst, src)
        src_port = self._next_port()
        client_writer = _VirtualWriter(out, back, peername=(dst, port))
        server_writer = _VirtualWriter(back, out, peername=(src, src_port))
        self.record("connect", src, dst, port)
        listener.dispatch(_VirtualReader(out), server_writer)
        return _VirtualReader(back), client_writer


class VirtualTransport:
    """One host's view of a :class:`VirtualNetwork`.

    Binds always land on this transport's own host name (the ``host``
    argument nodes pass is an IP default that has no meaning in-memory),
    which is also the source address of every outgoing dial — so
    per-link faults resolve by node, not by bind string.
    """

    def __init__(self, net: VirtualNetwork, host: str) -> None:
        self.net = net
        self.host = host
        self.clock: Clock = net.clock

    async def connect(self, host: str, port: int):
        return await self.net.open_connection(self.host, host, port)

    async def start_server(self, handler: ConnectionHandler,
                           host: str, port: int) -> _VirtualListener:
        return self.net.bind(self.host, port, handler)
