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
  receive-window bound: past it the writer's protocol hears
  ``pause_writing``, and ``resume_writing`` once the link has carried
  the excess — which is how a slow reader pushes backpressure into the
  sender's drop-oldest queue;
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

Delivery.  Every connection end is an asyncio-shaped transport, and
the receiving side is the protocol object the dial's or the listener's
factory made: bytes reach it only through ``data_received``, called
from the event loop and never inside the writer's own call, so a reply
written from a handler cannot re-enter the engine that is still
handling.  The network keeps one list of the pipes that have landed
bytes or an EOF; the first landing of a loop tick schedules one
delivery callback, which hands each pipe's buffer — everything landed
by then — to its reader, in landing order.  An accepted connection
joins that list as it is dialed, so its protocol hears
``connection_made`` in the same pass, before anything is delivered to
it.  A segment written to a link with nothing
scripted on it (:attr:`LinkFaults.clean`) and nothing queued ahead
of it lands at once, and a ``writelines`` flush lands as one append.
Otherwise segments queue, one per frame, behind the pipe's fault pump —
a chain of ``call_soon``/``clock.call_at`` callbacks, no task — in
order, so scripting a fault mid-connection never reorders bytes.  A
:class:`VirtualClock` built with a non-zero ``quantum`` additionally
fires every timer due within one quantum together and settles the loop
once per batch — what lets ten thousand peers share one heap.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass, replace
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..transport import Clock, FlushBatch, ProtocolFactory

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

    When its deadline comes the clock puts :meth:`_run` on the loop's
    ready queue, behind whatever fired before it.  A sleep's timer is
    ``at_once``: it runs as it fires, resolving the sleeper's future,
    so the sleeper's wake-up is what takes that place in the queue.
    """

    __slots__ = ("_callback", "at_once")

    def __init__(self, callback: Callable[[], Any]) -> None:
        self._callback: Optional[Callable[[], Any]] = callback
        self.at_once = False

    def cancel(self) -> None:
        self._callback = None

    def done(self) -> bool:
        """Cancelled, or run."""
        return self._callback is None

    def _run(self) -> None:
        # Cancelled between firing and running: like asyncio's handles,
        # it still never runs.
        callback, self._callback = self._callback, None
        if callback is not None:
            callback()


def _wake(future: asyncio.Future) -> None:
    """A sleep's deadline: wake its sleeper, unless it was cancelled."""
    if not future.done():
        future.set_result(None)


class VirtualClock:
    """A :class:`~repro.net.transport.Clock` whose time only moves when a
    driver calls :meth:`advance` / :meth:`run_until`.

    ``call_at`` puts a :class:`VirtualTimer` on a heap, and ``sleep``
    (the virtual network's SYN latency, and tests that script time) is
    one too, in one sequence, so a sleep and a timer due at the same
    instant fire in the order they were armed.  ``advance`` pops due
    timers in deadline order, settling the event loop (draining its
    ready queue) between firings so causally-dependent wakeups happen
    in a deterministic, repeatable order.
    """

    def __init__(self, *, quantum: float = 0.0) -> None:
        self._now = 0.0
        #: (deadline, sequence, VirtualTimer)
        self._timers: list[tuple[float, int, VirtualTimer]] = []
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
        self.flushes = FlushBatch()

    def time(self) -> float:
        return self._now

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        self.call_at(self._now + delay, partial(_wake, future)).at_once = True
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
        timers = self._timers
        call_soon = asyncio.get_running_loop().call_soon
        while True:
            await self._settle()
            while timers and timers[0][2]._callback is None:
                heappop(timers)  # cancelled timers
            if not timers or timers[0][0] > deadline:
                break
            fired += 1
            if fired > self.firing_limit:
                raise RuntimeError(
                    f"virtual clock fired {self.firing_limit} timers before "
                    f"reaching t={deadline} (task re-arming an epsilon timer?)"
                )
            when, _, timer = heappop(timers)
            self._now = max(self._now, when)
            if timer.at_once:
                timer._run()
            else:
                call_soon(timer._run)
            if self.quantum:
                # Batch mode: fire everything due within one quantum,
                # then settle once for the whole batch.
                horizon = min(when + self.quantum, deadline)
                while timers and timers[0][0] <= horizon:
                    when, _, timer = heappop(timers)
                    self._now = max(self._now, when)
                    if timer.at_once:
                        timer._run()
                    elif timer._callback is not None:
                        call_soon(timer._run)
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

    #: True when nothing is scripted on the link: a segment can be
    #: delivered synchronously without changing observable behaviour.
    #: Re-derived whenever any field is assigned (by the constructor,
    #: ``replace``, ``set_link``/``set_default`` or directly), so the
    #: per-write check is one attribute read.
    clean = True

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        object.__setattr__(self, "clean", (
            self.latency == 0.0
            and self.jitter == 0.0
            and self.loss == 0.0
            and self.corrupt == 0.0
            and self.reorder == 0.0
            and self.bandwidth is None
            and not self.partitioned
            and not self.blackhole
        ))


class _Pipe:
    """One direction of a virtual connection, and the transport its
    writer holds (duck-typed like an asyncio transport).

    ``protocol`` writes here; ``reverse`` is the other direction, whose
    writer's protocol reads what crosses this one.  Bytes that have
    crossed the link wait in ``buffer`` (and an EOF in ``eof``) for the
    network's delivery callback, which the pipe joins once per tick;
    a pipe whose reader has yet to hear ``connection_made`` is
    ``unmade``, and joins as it is dialed.  On a clean link with nothing
    queued a flush lands at once; otherwise segments queue, and the
    fault pump applies the link's faults to each in order.  While more
    than ``buffer_bytes`` are queued but not yet carried, the writer's
    protocol is paused — the backpressure a slow or throttled receiver
    exerts on the sender.

    ``close`` closes the *connection*, matching socket semantics: this
    direction flushes then EOFs, the reverse one is reset, so the other
    end's next write ends its side with :class:`ConnectionResetError`.
    The closing protocol hears ``connection_lost`` on the loop.
    """

    __slots__ = (
        "net", "src", "dst", "loop", "protocol", "reverse", "peername",
        "buffer", "eof", "closed", "broken", "in_flight", "paused",
        "unmade", "_segments", "_due", "_pumping", "_held",
    )

    _EOF = object()

    def __init__(self, net: "VirtualNetwork", src: str, dst: str,
                 loop: asyncio.AbstractEventLoop, protocol: asyncio.Protocol,
                 peername: tuple[str, int]) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.loop = loop
        self.protocol = protocol
        self.reverse: Optional[_Pipe] = None
        self.peername = peername
        self.buffer = bytearray()
        self.eof = False
        self.closed = False  # the writer closed: flushes, then EOF
        self.broken = False  # the reading end closed: writes reset
        self.in_flight = 0
        self.paused = False  # the writer's protocol was told to pause
        self.unmade = False  # the reader's connection_made is to come
        self._segments: list = []
        #: The pipe is on the network's delivery list.
        self._due = False
        #: The fault pump is running (a callback is due).
        self._pumping = False
        #: The segment the pump is delaying, until its timer fires.
        self._held: Optional[bytes] = None

    # -- the writer's transport ----------------------------------------

    def write(self, data: bytes) -> None:
        self._feed((data,))

    def writelines(self, frames) -> None:
        self._feed(frames)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.reverse.broken = True
        if self.in_flight == 0 and not self._segments:
            # Nothing queued ahead, and EOF takes no latency.
            self._deliver_eof()
        else:
            self._segments.append(self._EOF)
            self._start_pump()
        self.loop.call_soon(self.protocol.connection_lost, None)

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        if name == "peername":
            return self.peername
        return default

    def _abort(self, error: BaseException) -> None:
        """The other end reset the connection under a write."""
        if not self.closed:
            self.closed = True
            self.loop.call_soon(self.protocol.connection_lost, error)

    def _feed(self, frames) -> None:
        """Accept one flush: a list of frames written together."""
        if self.closed:
            return
        if self.broken:
            self._abort(ConnectionResetError(
                f"virtual pipe {self.src}->{self.dst} reset"))
            return
        net = self.net
        # The link lookup is VirtualNetwork.faults, inline: keep both alike.
        if (
            self.in_flight == 0
            and not self._segments
            and net._links.get((self.src, self.dst), net._default).clean
        ):
            # Nothing queued ahead, nothing scripted on the link: the
            # whole flush lands as one append.
            data = b"".join(frames)
            if data:
                self.buffer += data
                if not self._due:
                    # VirtualNetwork._land's common case, inline on
                    # the per-write path: keep both alike.
                    if net._landed_loop is self.loop:
                        self._due = True
                        net._landed.append(self)
                    else:
                        net._land(self)
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
        self._start_pump()
        if (not self.paused and self.in_flight
                > net.faults(self.src, self.dst).buffer_bytes):
            self.paused = True
            self.protocol.pause_writing()

    # -- the link ------------------------------------------------------

    def _start_pump(self) -> None:
        if not self._pumping:
            self._pumping = True
            self.loop.call_soon(self._pump)

    def _pump(self) -> None:
        """Carry queued segments across the link in order: the one a
        timer was delaying, then each next one — at once if the link
        adds no delay, else on a timer that calls back here."""
        net, clock, rng = self.net, self.net.clock, self.net._rng
        held, self._held = self._held, None
        if held is not None and not self.broken:
            self._land(held, rng)
        while self._segments and not self.broken:
            segment = self._segments.pop(0)
            if segment is self._EOF:
                self._deliver_eof()
                break
            faults = net.faults(self.src, self.dst)
            delay = faults.latency
            if faults.jitter:
                delay += rng.uniform(0.0, faults.jitter)
            if faults.bandwidth:
                delay += len(segment) / faults.bandwidth
            if delay > 0:
                self._held = segment
                clock.call_at(clock.time() + delay, self._pump)
                return
            self._land(segment, rng)
        self._pumping = False

    def _land(self, segment: bytes, rng: random.Random) -> None:
        net = self.net
        self.in_flight -= len(segment)
        faults = net.faults(self.src, self.dst)  # re-read: may have changed mid-flight
        if self.paused and self.in_flight <= faults.buffer_bytes:
            self.paused = False
            if not self.closed:
                self.protocol.resume_writing()
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
        if not self._due:
            net._land(self)
        net.record("deliver", self.src, self.dst, len(segment))

    def _deliver_eof(self) -> None:
        net = self.net
        if net.faults(self.src, self.dst).delivers():
            self.eof = True
            if not self._due:
                net._land(self)
            net.record("eof", self.src, self.dst)
        else:
            net.record("void-eof", self.src, self.dst)


class _VirtualListener:
    """A bound (host, port) accepting virtual connections."""

    def __init__(self, net: "VirtualNetwork", host: str, port: int,
                 factory: ProtocolFactory) -> None:
        self.net = net
        self.host = host
        self.port = port
        self.factory = factory
        self.closed = False

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.net._listeners.pop((self.host, self.port), None)

    async def wait_closed(self) -> None:
        return None


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
        #: Trace recording toggle — a 10k-peer round generates millions
        #: of deliver events; soak runs switch the trace off.
        self.record_trace = record_trace
        #: (time, kind, *details) tuples — the deterministic event trace.
        self.trace: list[tuple] = []
        #: Pipes with something for their reader, in landing order, and
        #: the loop their delivery callback is pending on (None once it
        #: has run).
        self._landed: list[_Pipe] = []
        self._landed_loop: Optional[asyncio.AbstractEventLoop] = None

    # -- bookkeeping ---------------------------------------------------

    def record(self, kind: str, *details) -> None:
        if self.record_trace:
            self.trace.append((round(self.clock.time(), 9), kind, *details))

    def events(self, *kinds: str) -> list[tuple]:
        """Trace entries filtered by event kind."""
        return [entry for entry in self.trace if entry[1] in kinds]

    # -- delivery ------------------------------------------------------

    def _land(self, pipe: _Pipe) -> None:
        """Put ``pipe`` on the delivery list; the tick's first landing
        schedules the delivery callback."""
        pipe._due = True
        loop = pipe.loop
        if self._landed_loop is loop:
            self._landed.append(pipe)
        else:
            # The tick's first landing — or a list left pending by a
            # loop that closed before it ran, whose pipes went with it.
            self._landed_loop = loop
            self._landed = [pipe]
            loop.call_soon(self._deliver_landed)

    def _deliver_landed(self) -> None:
        """The tick's one delivery callback.  Each landed pipe's reader
        hears ``connection_made`` if it has not yet, then everything
        landed (uncopied: the pipe starts a new buffer), then the EOF
        if it has come.  A reader that raises is reported the way the
        loop reports a failed callback, and the pipes behind it are
        still delivered."""
        self._landed_loop = None
        landed, self._landed = self._landed, []
        for pipe in landed:
            pipe._due = False
            reader = pipe.reverse
            try:
                if pipe.unmade:
                    pipe.unmade = False
                    reader.protocol.connection_made(reader)
                if reader.closed:
                    pipe.buffer = bytearray()
                    continue
                if pipe.buffer:
                    data, pipe.buffer = pipe.buffer, bytearray()
                    reader.protocol.data_received(data)
                if pipe.eof and not reader.closed:
                    pipe.eof = False
                    if not reader.protocol.eof_received():
                        reader.close()
            except Exception as error:
                pipe.loop.call_exception_handler({
                    "message": f"Exception delivering to {reader.protocol!r}",
                    "exception": error,
                })

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

    def bind(self, host: str, port: int,
             factory: ProtocolFactory) -> _VirtualListener:
        if port == 0:
            port = self._next_port(host)
        key = (host, port)
        if key in self._listeners:
            raise OSError(f"virtual address {host}:{port} already in use")
        listener = _VirtualListener(self, host, port, factory)
        self._listeners[key] = listener
        self.record("bind", host, port)
        return listener

    async def open_connection(
        self, src: str, dst: str, port: int, factory: ProtocolFactory
    ) -> asyncio.Protocol:
        """Dial ``dst:port`` from ``src`` — SYN latency, then either a
        refusal or a fresh pipe pair between the protocol ``factory``
        makes and the one the listener's makes.  The dialler's
        ``connection_made`` has run when this returns; the listener's
        runs in the next delivery pass, ahead of any delivery to it."""
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
        loop = asyncio.get_running_loop()
        out = _Pipe(self, src, dst, loop, factory(), (dst, port))
        back = _Pipe(self, dst, src, loop, listener.factory(),
                     (src, self._next_port()))
        out.reverse, back.reverse = back, out
        self.record("connect", src, dst, port)
        out.unmade = True
        self._land(out)
        out.protocol.connection_made(out)
        return out.protocol


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

    async def connect(self, factory: ProtocolFactory, host: str,
                      port: int) -> asyncio.Protocol:
        return await self.net.open_connection(self.host, host, port, factory)

    async def start_server(self, factory: ProtocolFactory,
                           host: str, port: int) -> _VirtualListener:
        return self.net.bind(self.host, port, factory)
