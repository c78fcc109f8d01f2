"""Chaos scenarios: scripted failure storms against a live deployment.

Each scenario brings up a :class:`~repro.net.server.ServerNode` plus N
:class:`~repro.net.peer.PeerNode` instances, injects faults mid-stream
(crashes, partitions, loss, corruption, half-open links, slow readers),
and asserts the protocol invariants of §3-§6:

* **matrix consistency** — every working peer's ``parents`` map agrees
  with the server's thread matrix once the control plane quiesces;
* **membership** — killed peers end up spliced out of the registry,
  graceful leavers disappear entirely (Lemma 1);
* **delivery** — every surviving peer decodes every generation,
  byte-for-byte.

Scenarios run on either transport.  Under ``virtual`` (the default)
everything is in-memory on a :class:`~repro.net.testing.virtualnet.
VirtualClock` — milliseconds of wall time, no sockets, and a
deterministic event trace (same seed, same script -> identical trace).
Under ``live`` the same script drives real asyncio TCP on 127.0.0.1;
only scenarios whose faults are pure churn (crash / leave / join) can
run there, marked ``requires_virtual=False``.
"""

from __future__ import annotations

import asyncio
import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import Awaitable, Callable, Optional

import numpy as np

from ...coding.generation import GenerationParams
from ...core.matrix import SERVER
from ...obs import format_dump
from ...protocol import CongestionDrop, CongestionRestore, ReconnectBackoff
from ..peer import PeerNode
from ..server import ServerNode
from ..transport import AsyncioTransport, Clock, Transport
from .virtualnet import VirtualClock, VirtualNetwork

__all__ = [
    "ChaosConfig",
    "ChaosHarness",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "get_scenario",
    "run_scenario",
    "run_scenario_sync",
    "trace_digest",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Deployment geometry and pacing shared by all scenarios."""

    peers: int = 6
    k: int = 4
    d: int = 2
    generation_size: int = 8
    payload_size: int = 64
    generations: int = 2
    seed: int = 0
    insert_mode: str = "append"
    send_interval: float = 0.05
    queue_limit: int = 32
    keepalive_interval: float = 0.5
    silence_timeout: float = 2.0
    probe_timeout: float = 0.5
    reconnect_base: float = 0.05
    reconnect_max: float = 0.8
    #: Peer fan-out policy: "eager" (the paper's constant per-thread flow)
    #: or "innovative" (what swarms run — see PeerNode.forward_policy).
    forward_policy: str = "eager"
    #: Packets recoded toward a child the moment it attaches.
    seed_burst: int = 1
    #: Scenario budget in (virtual) seconds; exceeding it is a failure.
    deadline: float = 120.0

    @property
    def content_size(self) -> int:
        return self.generations * self.generation_size * self.payload_size


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    name: str
    transport: str
    seed: int
    converged: bool
    elapsed: float
    violations: list[str] = field(default_factory=list)
    repairs: int = 0
    crashes: int = 0
    probes: int = 0
    leaves: int = 0
    reconnects: int = 0
    complaints: int = 0
    drops: int = 0
    killed: tuple[int, ...] = ()
    #: The VirtualNetwork event trace (empty on the live transport).
    trace: tuple = ()
    #: Flight-recorder dump of the implicated engines, captured the
    #: moment an invariant check failed ("" when everything held).
    flight_dump: str = ""

    @property
    def ok(self) -> bool:
        return self.converged and not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = (
            f"{self.name}: {status} t={self.elapsed:.2f}s "
            f"repairs={self.repairs} reconnects={self.reconnects} "
            f"complaints={self.complaints} drops={self.drops}"
        )
        for violation in self.violations:
            line += f"\n  violation: {violation}"
        if self.violations and self.flight_dump:
            line += "\n" + self.flight_dump
        return line


def trace_digest(trace) -> str:
    """A short stable fingerprint of an event trace (determinism checks)."""
    return hashlib.sha256(repr(tuple(trace)).encode()).hexdigest()[:16]


class ChaosHarness:
    """One deployment under test: server + peers + fault controls.

    Scenario coroutines receive a harness, call :meth:`start`, script
    faults against :attr:`net` (virtual mode), drive time forward with
    :meth:`run_until` / :meth:`settle`, and record assertion failures
    via :meth:`expect` — failures accumulate rather than raise, so the
    deployment is always torn down cleanly and every violated invariant
    is reported at once.
    """

    def __init__(
        self,
        config: ChaosConfig,
        *,
        transport: str = "virtual",
        quantum: float = 0.0,
        record_trace: bool = True,
    ) -> None:
        if transport not in ("virtual", "live"):
            raise ValueError(f"unknown transport {transport!r}")
        self.config = config
        self.mode = transport
        if transport == "virtual":
            self.net: Optional[VirtualNetwork] = VirtualNetwork(
                VirtualClock(quantum=quantum),
                seed=config.seed,
                record_trace=record_trace,
            )
            self.clock: Clock = self.net.clock
        else:
            self.net = None
            self.clock = AsyncioTransport().clock
        self.server: Optional[ServerNode] = None
        self.peers: list[PeerNode] = []
        # node_id -> peer index, maintained as peers join (and rebuilt
        # lazily if a lookup races a grant) so topology reads like
        # ``data_edges`` stay O(edges) instead of O(edges * peers).
        self._node_index: dict[int, int] = {}
        self.killed: set[int] = set()
        self.left: set[int] = set()
        self.violations: list[str] = []
        self.flight_dump = ""
        self.content = b""
        self._t0 = 0.0
        #: Granularity of the driving loop (one server emission round).
        self.step = config.send_interval

    # -- construction --------------------------------------------------

    def _transport_for(self, host: str) -> Transport:
        if self.net is not None:
            return self.net.transport(host)
        return AsyncioTransport()

    @property
    def server_host(self) -> str:
        return "server" if self.net is not None else "127.0.0.1"

    async def start(self, peers: Optional[int] = None) -> None:
        """Bring up the server and the initial peer population."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        self.content = rng.integers(
            0, 256, size=config.content_size, dtype=np.uint8
        ).tobytes()
        params = GenerationParams(config.generation_size, config.payload_size)
        self.server = ServerNode(
            self.content, params,
            k=config.k, d=config.d, seed=config.seed,
            insert_mode=config.insert_mode,
            send_interval=config.send_interval,
            queue_limit=config.queue_limit,
            keepalive_interval=config.keepalive_interval,
            probe_timeout=config.probe_timeout,
            transport=self._transport_for(self.server_host),
        )
        await self._drive(self.server.start())
        self._t0 = self.clock.time()
        for _ in range(config.peers if peers is None else peers):
            await self.add_peer()

    def _make_peer(self, index: int) -> PeerNode:
        config = self.config
        return PeerNode(
            self.server_host, self.server.port,
            seed=config.seed + 1 + index,
            queue_limit=config.queue_limit,
            keepalive_interval=config.keepalive_interval,
            silence_timeout=config.silence_timeout,
            reconnect_base=config.reconnect_base,
            reconnect_max=config.reconnect_max,
            forward_policy=config.forward_policy,
            seed_burst=config.seed_burst,
            transport=self._transport_for(f"peer{index}"),
        )

    async def add_peer(self) -> PeerNode:
        """Join one more peer (host ``peerN`` on the virtual network)."""
        index = len(self.peers)
        peer = self._make_peer(index)
        await self._drive(peer.start())
        self.peers.append(peer)
        if peer.node_id is not None:
            self._node_index[peer.node_id] = index
        return peer

    async def add_peers(
        self, count: int, *, batch: int = 64, timeout: float = 60.0
    ) -> list[PeerNode]:
        """Join ``count`` peers, dialling up to ``batch`` concurrently.

        Serial joins pump the clock once per peer, which is fine for a
        dozen and is the dominant cost at ten thousand — batched joins
        overlap the hello round-trips instead.  Join *order* (and hence
        node-id assignment) still follows peer index: hellos are sent in
        index order on a deterministic clock.
        """
        added: list[PeerNode] = []
        while len(added) < count:
            group = min(batch, count - len(added))
            start_index = len(self.peers)
            peers = [self._make_peer(start_index + i) for i in range(group)]
            self.peers.extend(peers)
            await self._drive(
                asyncio.gather(*(peer.start() for peer in peers)),
                timeout=timeout,
            )
            for offset, peer in enumerate(peers):
                if peer.node_id is not None:
                    self._node_index[peer.node_id] = start_index + offset
            added.extend(peers)
        return added

    async def teardown(self) -> None:
        if self.server is not None:
            await self._drive(self.server.stop(), timeout=30.0)
        for index, peer in enumerate(self.peers):
            if index not in self.killed:
                await self._drive(peer.close(), timeout=30.0)

    # -- time ----------------------------------------------------------

    async def _drive(self, coroutine: Awaitable, timeout: float = 10.0):
        """Await a coroutine while pumping the clock (virtual time does
        not advance by itself, and node start-up needs timers to fire)."""
        task = asyncio.ensure_future(coroutine)
        deadline = self.clock.time() + timeout
        while not task.done() and self.clock.time() < deadline:
            await self.clock.advance(self.step)
        if not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            raise asyncio.TimeoutError(f"drive exceeded {timeout}s")
        return task.result()

    async def run_until(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        """Advance time one emission round at a time until ``predicate``
        holds; False if the (virtual) deadline passes first."""
        deadline = self.clock.time() + (
            self.config.deadline if timeout is None else timeout
        )
        while not predicate():
            if self.clock.time() >= deadline:
                return False
            await self.clock.advance(self.step)
        return True

    async def settle(self, duration: Optional[float] = None) -> None:
        """Let in-flight control traffic land before checking invariants.

        A scenario that never quiesces (a busy-spinning task, a timer
        loop that re-arms faster than the clock drains it) used to hang
        here — the clock's settle loop would spin until the process was
        killed, leaving no evidence.  The advance now runs under a
        virtual-time deadline; if the clock cannot settle, the failure
        is recorded as a violation with a full flight-recorder dump and
        the harness proceeds to an orderly teardown.
        """
        span = 4 * self.config.send_interval if duration is None else duration
        try:
            await self.clock.advance(span)
        except RuntimeError as error:
            message = f"settle never quiesced: {error}"
            self.violations.append(message)
            self._record_flight_dump([message])

    # -- fault injection ----------------------------------------------

    def host(self, index: int) -> str:
        return f"peer{index}"

    def kill(self, index: int) -> None:
        """Crash a peer: no good-bye, all its transports torn down."""
        self.peers[index].kill()
        self.killed.add(index)
        if self.net is not None:
            self.net.record("kill", self.host(index))

    async def leave(self, index: int) -> None:
        """Graceful good-bye (§3) for one peer."""
        await self._drive(self.peers[index].leave())
        self.left.add(index)
        if self.net is not None:
            self.net.record("leave", self.host(index))

    def isolate(self, index: int) -> None:
        """Partition a peer from the server and every other peer."""
        host = self.host(index)
        self.net.partition(host, self.server_host)
        for other in range(len(self.peers)):
            if other != index:
                self.net.partition(host, self.host(other))

    def rejoin(self, index: int) -> None:
        """Heal every link cut by :meth:`isolate`."""
        host = self.host(index)
        self.net.heal(host, self.server_host)
        for other in range(len(self.peers)):
            if other != index:
                self.net.heal(host, self.host(other))

    def set_peer_links(self, **faults) -> None:
        """Script faults on every directed peer-to-peer link (the
        links to and from the server stay clean)."""
        hosts = [self.host(index) for index in range(len(self.peers))]
        for a in hosts:
            for b in hosts:
                if a != b:
                    self.net.set_link(a, b, symmetric=False, **faults)

    def congest(self, index: int) -> None:
        """The peer reports congestion and asks to shed one thread (§5)."""
        peer = self.peers[index]
        peer._write_control(CongestionDrop(node_id=peer.node_id))

    def uncongest(self, index: int) -> None:
        """The peer reports recovery and asks for a thread back (§5)."""
        peer = self.peers[index]
        peer._write_control(CongestionRestore(node_id=peer.node_id))

    # -- observation ---------------------------------------------------

    def alive(self) -> list[tuple[int, PeerNode]]:
        return [
            (index, peer) for index, peer in enumerate(self.peers)
            if index not in self.killed and index not in self.left
        ]

    def converged(self) -> bool:
        alive = self.alive()
        return bool(alive) and all(peer.completed for _, peer in alive)

    def progress(self) -> float:
        alive = self.alive()
        if not alive:
            return 0.0
        return float(np.mean([
            peer.rank / peer.needed if peer.needed else 0.0
            for _, peer in alive
        ]))

    def index_of(self, node_id: int) -> Optional[int]:
        if node_id is None or node_id == SERVER:
            return None
        index = self._node_index.get(node_id)
        if index is not None:
            return index
        if len(self._node_index) < len(self.peers):
            # Some peers got their grant after the last index update
            # (e.g. a scenario drove start() by hand); refresh once.
            self._node_index = {
                peer.node_id: i
                for i, peer in enumerate(self.peers)
                if peer.node_id is not None
            }
            return self._node_index.get(node_id)
        return None

    def data_edges(self) -> list[tuple[int, int, int]]:
        """Live peer-to-peer (parent_index, child_index, column) edges,
        read from the server's thread matrix."""
        matrix = self.server.core.matrix
        edges = []
        for child_index, child in self.alive():
            if child.node_id is None:
                continue
            if not self.server.core.is_working(child.node_id):
                continue
            for column, parent in sorted(matrix.parents_of(child.node_id).items()):
                parent_index = self.index_of(parent)
                if parent_index is not None:
                    edges.append((parent_index, child_index, column))
        return edges

    def pick_parent(self, *, peer_parents_only: bool = False) -> int:
        """Index of the first peer that currently feeds another peer.

        With ``peer_parents_only`` the pick is restricted to feeders
        whose own parents are all peers: peer parents serve any child
        that dials them, whereas the server runs exactly one sender per
        column, so only such a node can keep receiving data after being
        spliced out of the matrix.
        """
        matrix = self.server.core.matrix
        feeders: list[int] = []
        for parent_index, _, _ in self.data_edges():
            if parent_index not in feeders:
                feeders.append(parent_index)
        if peer_parents_only:
            feeders = [
                index for index in feeders
                if all(
                    parent != SERVER
                    for parent in matrix.parents_of(
                        self.peers[index].node_id
                    ).values()
                )
            ]
        if not feeders:
            raise LookupError("no suitable peer-to-peer edge in the matrix")
        return feeders[0]

    # -- invariants ----------------------------------------------------

    def expect(self, condition: bool, message: str) -> None:
        """Record an assertion; failures accumulate in the result."""
        if not condition:
            self.violations.append(message)

    def check_structure(self, label: str = "") -> bool:
        """The control-plane half of the invariants: every working
        peer's thread map equals its matrix row, every killed peer is
        spliced out, every leaver is unregistered, and both are marked
        departed.  True when nothing new was violated; ``label``
        prefixes the messages (the soak names the epoch).

        Read straight off the engines: the server engine's core is the
        matrix authority and each peer engine's thread map is the
        ground truth its driver clips from.  A violation captures a
        flight-recorder dump of the implicated engines — the last N
        events and effects each one saw — so a failing seed yields an
        actionable trace, not a bare assertion message.
        """
        before = len(self.violations)
        core = self.server.engine.core
        departed = self.server.engine.departed
        for index, peer in self.alive():
            if peer.node_id is None or not core.is_working(peer.node_id):
                continue
            expected = core.matrix.parents_of(peer.node_id)
            self.expect(
                dict(peer.engine.parents) == dict(expected),
                f"{label}peer{index} thread map {dict(peer.engine.parents)} "
                f"!= matrix row {dict(expected)}",
            )
        for index in self.killed:
            node_id = self.peers[index].node_id
            self.expect(
                node_id is None or not core.is_working(node_id),
                f"{label}killed peer{index} (node {node_id}) still working",
            )
            self.expect(
                node_id is None or node_id in departed,
                f"{label}killed peer{index} (node {node_id}) not marked "
                f"departed",
            )
        for index in self.left:
            node_id = self.peers[index].node_id
            self.expect(
                node_id not in core.registry,
                f"{label}left peer{index} (node {node_id}) still registered",
            )
            self.expect(
                node_id is None or node_id in departed,
                f"{label}left peer{index} (node {node_id}) not marked "
                f"departed",
            )
        fresh = self.violations[before:]
        if fresh:
            self._record_flight_dump(fresh)
        return not fresh

    def check_invariants(self) -> None:
        """The §3-§6 protocol invariants every scenario must end on:
        :meth:`check_structure` plus delivery — every surviving peer
        decoded every generation, byte for byte."""
        before = len(self.violations)
        self.check_structure()
        for index, peer in self.alive():
            self.expect(peer.completed, f"peer{index} never finished decoding")
            if peer.completed:
                self.expect(
                    peer.recovered_content() == self.content,
                    f"peer{index} decoded the wrong bytes",
                )
        if len(self.violations) > before:
            # one dump naming structural and delivery violations together
            self._record_flight_dump(self.violations[before:])

    def _record_flight_dump(self, new_violations: list[str]) -> None:
        """Dump the flight recorders of every engine a violation names
        (plus the server's — the matrix authority is always relevant)."""
        sections = []
        if self.server is not None and self.server.engine.flight is not None:
            sections.append(format_dump(self.server.engine.flight, "server"))
        implicated = sorted({
            int(match)
            for violation in new_violations
            for match in re.findall(r"peer(\d+)", violation)
        })
        if not implicated:
            implicated = [index for index, _ in self.alive()]
        for index in implicated:
            peer = self.peers[index]
            if peer.engine.flight is not None:
                sections.append(format_dump(
                    peer.engine.flight, f"peer{index} (node {peer.node_id})",
                ))
        self.flight_dump = "\n".join(sections)

    def result(self, name: str) -> ScenarioResult:
        counts = self.server.engine.obs
        return ScenarioResult(
            name=name,
            transport=self.mode,
            seed=self.config.seed,
            converged=self.converged(),
            elapsed=self.clock.time() - self._t0,
            violations=list(self.violations),
            repairs=counts.repairs,
            crashes=self.server.stats.crashes,
            probes=counts.probes_sent,
            leaves=counts.leaves,
            reconnects=sum(p.stats.reconnects for p in self.peers),
            complaints=sum(
                p.engine.obs.complaints_sent for p in self.peers),
            drops=sum(
                s.dropped
                for p in self.peers for s in p.sender_stats
            ) + sum(s.dropped for s in self.server.sender_stats),
            killed=tuple(sorted(self.killed)),
            trace=tuple(self.net.trace) if self.net is not None else (),
            flight_dump=self.flight_dump,
        )


# ----------------------------------------------------------------------
# Scenario registry


@dataclass(frozen=True)
class Scenario:
    """A named chaos script plus the deployment it runs against."""

    name: str
    description: str
    run: Callable[[ChaosHarness], Awaitable[None]]
    config: ChaosConfig = ChaosConfig()
    #: True if the script injects link faults only the in-memory
    #: network can express (loss, corruption, partitions, ...).
    requires_virtual: bool = True


SCENARIOS: dict[str, Scenario] = {}


def scenario(
    name: str,
    description: str,
    *,
    config: ChaosConfig = ChaosConfig(),
    requires_virtual: bool = True,
):
    def register(fn):
        SCENARIOS[name] = Scenario(name, description, fn, config, requires_virtual)
        return fn

    return register


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


async def run_scenario(
    name: str, *, seed: int = 0, transport: str = "virtual"
) -> ScenarioResult:
    """Execute one scenario and return its result (never raises on a
    protocol violation — see :attr:`ScenarioResult.violations`)."""
    spec = get_scenario(name)
    if transport == "live" and spec.requires_virtual:
        raise ValueError(
            f"scenario {name!r} scripts link faults and needs the virtual transport"
        )
    config = replace(spec.config, seed=seed)
    harness = ChaosHarness(config, transport=transport)
    try:
        await spec.run(harness)
    finally:
        await harness.teardown()
    return harness.result(spec.name)


def run_scenario_sync(
    name: str, *, seed: int = 0, transport: str = "virtual"
) -> ScenarioResult:
    """Blocking wrapper around :func:`run_scenario`."""
    return asyncio.run(run_scenario(name, seed=seed, transport=transport))


# ----------------------------------------------------------------------
# The catalogue


@scenario(
    "baseline",
    "No faults: every peer joins, decodes everything, matrix stays consistent.",
    requires_virtual=False,
)
async def _baseline(h: ChaosHarness) -> None:
    await h.start()
    h.expect(await h.run_until(h.converged), "deployment never converged")
    await h.settle()
    h.check_invariants()
    h.expect(h.server.engine.obs.repairs == 0,
             "repairs on a healthy network")


@scenario(
    "latency_jitter",
    "Every link gets fixed latency plus seeded jitter; convergence survives "
    "the skew.",
)
async def _latency_jitter(h: ChaosHarness) -> None:
    h.net.set_default(latency=0.01, jitter=0.005)
    await h.start()
    h.expect(await h.run_until(h.converged), "never converged under latency")
    await h.settle(0.5)
    h.check_invariants()


@scenario(
    "reordered_delivery",
    "Peer-to-peer data frames are randomly swapped in flight; rank-based "
    "decoding is order-oblivious.",
)
async def _reordered_delivery(h: ChaosHarness) -> None:
    await h.start()
    h.set_peer_links(reorder=0.3)
    h.expect(await h.run_until(h.converged), "never converged under reordering")
    await h.settle()
    h.check_invariants()


@scenario(
    "lossy_links",
    "8% frame loss on every peer-to-peer link; coded packets are fungible so "
    "the stream heals itself.",
)
async def _lossy_links(h: ChaosHarness) -> None:
    await h.start()
    h.set_peer_links(loss=0.08)
    h.expect(await h.run_until(h.converged), "never converged under loss")
    await h.settle()
    h.check_invariants()


@scenario(
    "corrupt_link",
    "Bit flips on one parent->child data link; CRC32 rejects the frame, the "
    "child reconnects, the stream recovers.",
)
async def _corrupt_link(h: ChaosHarness) -> None:
    await h.start()
    parent, child, _ = h.data_edges()[0]
    h.net.set_link(h.host(parent), h.host(child), symmetric=False, corrupt=0.9)
    h.expect(
        await h.run_until(
            lambda: len(h.net.events("corrupt")) >= 3, timeout=30.0
        ),
        "corruption fault never fired (scenario tested nothing)",
    )
    h.net.set_link(h.host(parent), h.host(child), symmetric=False, corrupt=0.0)
    h.expect(await h.run_until(h.converged), "never converged after corruption")
    await h.settle()
    h.check_invariants()


@scenario(
    "crash_parent_midstream",
    "A peer that feeds other peers dies abruptly at ~25% progress; the server "
    "splices it out and every survivor still decodes everything.",
    requires_virtual=False,
)
async def _crash_parent_midstream(h: ChaosHarness) -> None:
    await h.start()
    h.expect(
        await h.run_until(lambda: h.progress() >= 0.25),
        "no decode progress before the crash",
    )
    h.kill(h.pick_parent())
    h.expect(await h.run_until(h.converged), "survivors never converged")
    await h.settle()
    h.check_invariants()
    h.expect(h.server.engine.obs.repairs >= 1, "crash never repaired")


@scenario(
    "lossy_crash_multigen",
    "Six generations over 8%-lossy peer links, and a feeding peer dies "
    "half-way: its children re-clip, tell their new parents what they "
    "already hold, and are sent only the rest.",
    config=ChaosConfig(peers=8, generations=6),
)
async def _lossy_crash_multigen(h: ChaosHarness) -> None:
    await h.start()
    h.set_peer_links(loss=0.08)
    h.expect(
        await h.run_until(lambda: h.progress() >= 0.5),
        "no decode progress before the crash",
    )
    h.kill(h.pick_parent())
    h.expect(await h.run_until(h.converged), "survivors never converged")
    await h.settle()
    h.check_invariants()
    h.expect(h.server.engine.obs.repairs >= 1, "crash never repaired")


@scenario(
    "multi_crash",
    "Two peers crash in sequence; the matrix is repaired twice and the "
    "survivors converge.",
    config=ChaosConfig(peers=8),
    requires_virtual=False,
)
async def _multi_crash(h: ChaosHarness) -> None:
    await h.start()
    h.expect(
        await h.run_until(lambda: h.progress() >= 0.2),
        "no decode progress before the crashes",
    )
    first = h.pick_parent()
    h.kill(first)
    h.expect(
        await h.run_until(lambda: h.server.engine.obs.repairs >= 1),
        "first crash never repaired",
    )
    second = next(i for i, _ in h.alive() if i != first)
    h.kill(second)
    h.expect(await h.run_until(h.converged), "survivors never converged")
    await h.settle()
    h.check_invariants()
    h.expect(h.server.engine.obs.repairs >= 2,
             "second crash never repaired")


@scenario(
    "partition_repair",
    "A peer is partitioned from everyone; probes go unanswered, the server "
    "repairs it away, and after healing it still finishes decoding off its "
    "old parents (§6: the data plane outlives membership).",
)
async def _partition_repair(h: ChaosHarness) -> None:
    await h.start()
    h.expect(
        await h.run_until(lambda: h.progress() >= 0.2),
        "no decode progress before the partition",
    )
    victim = h.pick_parent(peer_parents_only=True)
    h.isolate(victim)
    h.expect(
        await h.run_until(
            lambda: h.server.engine.obs.repairs >= 1, timeout=30.0),
        "partitioned peer never repaired away",
    )
    h.rejoin(victim)
    h.expect(await h.run_until(h.converged), "peers never converged after heal")
    await h.settle()
    h.check_invariants()
    node_id = h.peers[victim].node_id
    h.expect(
        not h.server.core.is_working(node_id),
        f"partitioned node {node_id} still in the matrix",
    )
    # The probe timer spliced the victim, not the EOF fast path: one
    # repair, and no control connection counted as crashed.
    h.expect(h.server.engine.obs.repairs == 1,
             "the partition was not repaired exactly once")
    h.expect(h.server.stats.crashes == 0,
             "the partitioned peer's control connection reached EOF")


@scenario(
    "halfopen_parent",
    "One direction of a parent->child link silently blackholes: the child "
    "complains, the probe is ACKed (parent is alive), so no repair happens "
    "and the child recovers once the link heals.",
)
async def _halfopen_parent(h: ChaosHarness) -> None:
    await h.start()
    parent, child, _ = h.data_edges()[0]
    h.net.set_link(h.host(parent), h.host(child), symmetric=False, blackhole=True)
    h.expect(
        await h.run_until(
            lambda: h.peers[child].engine.obs.complaints_sent >= 1,
            timeout=30.0,
        ),
        "child never complained about the half-open parent",
    )
    h.expect(
        await h.run_until(
            lambda: h.server.engine.obs.probes_sent >= 1, timeout=30.0),
        "server never probed the suspect",
    )
    h.net.set_link(h.host(parent), h.host(child), symmetric=False, blackhole=False)
    h.expect(await h.run_until(h.converged), "never converged after heal")
    await h.settle()
    h.check_invariants()
    h.expect(
        h.server.engine.obs.repairs == 0,
        "healthy parent was repaired away on a half-open link (false positive)",
    )


@scenario(
    "reconnect_backoff_storm",
    "A child is cut off from one parent; its redial attempts in the trace "
    "must follow the exponential backoff schedule exactly.",
)
async def _reconnect_backoff_storm(h: ChaosHarness) -> None:
    await h.start()
    edges = h.data_edges()
    parent, child, _ = next(
        (p, c, col) for p, c, col in edges
        if sum(1 for p2, c2, _ in edges if (p2, c2) == (p, c)) == 1
    )
    h.net.partition(h.host(child), h.host(parent))

    def refusals() -> list[tuple]:
        return [
            event for event in h.net.events("refused")
            if event[2] == h.host(child) and event[3] == h.host(parent)
        ]

    h.expect(
        await h.run_until(lambda: len(refusals()) >= 5, timeout=30.0),
        "child never went through five refused redials",
    )
    times = [event[0] for event in refusals()[:5]]
    deltas = [round(b - a, 9) for a, b in zip(times, times[1:])]
    expected = ReconnectBackoff(
        h.config.reconnect_base, h.config.reconnect_max
    ).schedule(len(deltas))
    h.expect(
        all(abs(d - e) < 1e-6 for d, e in zip(deltas, expected)),
        f"redial spacing {deltas} does not follow backoff schedule {expected}",
    )
    h.net.heal(h.host(child), h.host(parent))
    h.expect(await h.run_until(h.converged), "never converged after heal")
    await h.settle()
    h.check_invariants()


@scenario(
    "slow_reader_backpressure",
    "One child's inbound link is throttled with a tiny receive window; the "
    "parent's drop-oldest queue sheds packets instead of stalling, and the "
    "child still converges via its other thread.",
    config=ChaosConfig(queue_limit=4, generations=4),
)
async def _slow_reader_backpressure(h: ChaosHarness) -> None:
    await h.start()
    parent, child, _ = h.data_edges()[0]
    h.net.set_link(
        h.host(parent), h.host(child), symmetric=False,
        bandwidth=500.0, buffer_bytes=256,
    )
    h.expect(await h.run_until(h.converged), "never converged while throttled")
    await h.settle()
    h.check_invariants()
    dropped = sum(s.dropped for s in h.peers[parent].sender_stats)
    h.expect(dropped >= 1, "backpressure never forced a drop-oldest eviction")


@scenario(
    "graceful_leave_reclip",
    "A feeding peer says good-bye mid-stream; Lemma 1 splices its parents to "
    "its children with zero repairs and the survivors converge.",
    requires_virtual=False,
)
async def _graceful_leave_reclip(h: ChaosHarness) -> None:
    await h.start()
    h.expect(
        await h.run_until(lambda: h.progress() >= 0.2),
        "no decode progress before the leave",
    )
    leaver = h.pick_parent()
    await h.leave(leaver)
    h.expect(await h.run_until(h.converged), "survivors never converged")
    await h.settle()
    h.check_invariants()
    h.expect(h.server.engine.obs.leaves == 1,
             "good-bye never reached the server")
    h.expect(h.server.engine.obs.repairs == 0,
             "a graceful leave triggered repair")


@scenario(
    "uniform_adversarial_joins",
    "Peers join staggered mid-broadcast under §5 uniform insertion; displaced "
    "children re-clip onto the newcomers and everyone converges.",
    config=ChaosConfig(peers=3, insert_mode="uniform"),
    requires_virtual=False,
)
async def _uniform_adversarial_joins(h: ChaosHarness) -> None:
    await h.start()
    for _ in range(4):
        await h.clock.advance(6 * h.config.send_interval)
        await h.add_peer()
    h.expect(await h.run_until(h.converged), "staggered joins never converged")
    await h.settle()
    h.check_invariants()
    h.expect(len(h.peers) == 7, "not all joins completed")
