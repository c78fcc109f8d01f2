"""The peer side of the RLNC data plane as a sans-IO engine.

:class:`RelayEngine` owns every relay-side data-plane decision exactly
once — the receive gate, the forward/withhold choice, the recode
fan-out shape, completion — around a
:class:`~repro.coding.recoder.Recoder` it is handed (the recoder owns
the RNG and the RREF buffer; the engine owns the policy and the
bookkeeping).  Two driver shapes pump it:

* **push** (live transport, virtual net): :class:`ChildAttached` /
  :class:`ChildDetached` maintain the fan-out list and
  :class:`ChildCompleted` each child's completed set; every
  :class:`PacketArrived` triggers a recode toward the attached
  children (subject to the :class:`~repro.dataplane.policy.ForwardPolicy`),
  and :class:`IdlePoll` backfills links gone quiet;
* **pull** (slotted simulator): no children are attached, so arrivals
  only ingest, and the clocked driver requests each edge's emission
  with :class:`PullEmit` — which the policy may decline via the
  per-destination innovation-credit translation of arrival gating.

What a child is sent is chosen by what it lacks.  The policy decides
*when* a mixture goes out (every arrival, or rank-raising arrivals
plus idle fills); *which* generation is always the lowest one the
child has not reported complete and this node holds any rank in, and
a child that lacks nothing this node holds is skipped.  Children are
grouped by that choice — served in order they almost always share
one — and each group is one explicit-generation
:meth:`Recoder.emit_rows` call.  The grouping is cached and rebuilt
only when a child attaches, detaches or reports, or this node gains
its first rank in a generation, so the per-arrival path reads no
per-child state.  A child that never reported is served by the
recoder's own generation pick, as every child was before there was
anything to report.

RNG discipline: pull emissions are one :meth:`Recoder.emit` each and
never look at a completed set, so every seeded simulator golden is
untouched by the need view.
"""

from __future__ import annotations

from typing import Hashable, Optional, Union

from ..coding.recoder import Recoder
from .effects import (
    Effect,
    EmitToChildren,
    GenerationComplete,
    Ingested,
    MarkComplete,
    RequestIdle,
)
from .events import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    Event,
    IdlePoll,
    PacketArrived,
    PullEmit,
)
from .needs import CompletedSet
from .policy import ForwardPolicy, resolve_policy

__all__ = ["RelayEngine"]

#: What ``_choice`` answers for a child that lacks nothing this node
#: holds (None is taken: it is how the recoder is asked to pick).
_NOTHING = -1


class RelayEngine:
    """Pure event-in/effect-out relay data-plane state machine.

    Args:
        recoder: The buffer/codec state.  Owned by the engine; drivers
            read it (rank, recovered content) but route every data-plane
            mutation through :meth:`handle`.
        policy: Forwarding policy name or instance (``"eager"`` /
            ``"innovative"``).
        seed_burst: Packets emitted toward a child the moment it
            attaches — push drivers always seed at least one (a child
            of an already-complete parent must not wait for upstream
            innovation); pull mode uses it as the per-edge
            unconditional-packet allowance before innovation credit is
            required.
    """

    # Fixed attribute layout: the engine is instantiated per node (10k
    # of them in the churn soak) and its attributes are read on every
    # packet, so slots buy both memory and hot-path attribute speed.
    __slots__ = (
        "recoder", "policy", "seed_burst",
        "received", "innovative", "forwarded", "idle_emits", "completed",
        "_children", "_children_tuple", "_epoch", "_pull_sent",
        "_pull_gated", "_forward_innovative", "_forward_duplicates",
        "_rank", "_needed", "_generations", "_generation_size",
        "_held_stop", "_mine", "_needs", "_plan",
        "_log", "_flight", "_obs", "_taps",
    )

    def __init__(
        self,
        recoder: Recoder,
        *,
        policy: Union[str, ForwardPolicy] = "eager",
        seed_burst: int = 1,
    ) -> None:
        if seed_burst < 0:
            raise ValueError("seed_burst must be >= 0")
        self.recoder = recoder
        self.policy = resolve_policy(policy)
        self.seed_burst = seed_burst
        #: data-plane counters — the one authoritative copy (PeerStats,
        #: RlncBehavior and NodeReport all read these now)
        self.received = 0
        self.innovative = 0
        self.forwarded = 0
        self.idle_emits = 0
        self.completed = False
        #: child -> column, in attach order == fan-out order (mirrors
        #: the live driver's pump dict; re-attach moves to the end)
        self._children: dict[Hashable, Optional[int]] = {}
        # Fan-out tuple rebuilt on (rare) attach/detach so the
        # per-arrival path never re-materialises the dict's keys.
        self._children_tuple: tuple = ()
        #: bumped once per innovative ingest; the pull-mode credit pool
        #: (push mode forwards once per innovative arrival per child, so
        #: pull mode lets each edge take ``seed_burst`` + one emission
        #: per innovative arrival)
        self._epoch = 0
        self._pull_sent: dict[Hashable, int] = {}
        # Policy verdicts hoisted out of the per-packet paths (the
        # policy is fixed at construction).
        self._pull_gated = not self.policy.pull_without_credit
        self._forward_innovative = self.policy.forward_on(True)
        self._forward_duplicates = self.policy.forward_on(False)
        # Rank mirrored incrementally (an innovative arrival raises it
        # by exactly one) so the per-packet Ingested effect never walks
        # the per-generation decoders.
        self._rank = recoder.decoder.total_rank
        self._needed = recoder.decoder.total_dof
        self._generations = recoder.decoder.generations
        self._generation_size = recoder.params.generation_size
        #: one past the highest generation this node holds any rank in:
        #: where the search for something a child lacks stops
        self._held_stop = 0
        #: the generations this node has finished — what it tells its
        #: own parents
        self._mine = CompletedSet()
        for index, generation in enumerate(self._generations):
            if generation.rank:
                self._held_stop = index + 1
            if generation.is_complete:
                self._mine.add(index)
        #: child -> its completed set, for the children that reported one
        self._needs: dict[Hashable, CompletedSet] = {}
        #: (children served, ((generation | None, count), ...), children
        #: skipped) for one fan-out; None when it has to be rebuilt
        self._plan: Optional[tuple] = None
        # Observer taps (``log``/``flight``/``obs`` properties below).
        # The recording hooks are collapsed into one tuple so the
        # untapped hot path pays a single truthiness check per event.
        self._log = None
        self._flight = None
        self._obs = None
        self._taps: tuple = ()

    # ------------------------------------------------------------------
    # Introspection

    @property
    def rank(self) -> int:
        """Degrees of freedom collected so far."""
        return self._rank

    @property
    def needed(self) -> int:
        """Degrees of freedom required for a full decode."""
        return self._needed

    @property
    def completed_generations(self) -> tuple[int, tuple[int, ...]]:
        """The generations this node has finished, as ``(base,
        extras)`` — the record it owes its parents."""
        return self._mine.pair()

    def finished(self, generation: int) -> bool:
        """True once ``generation`` is held at full rank."""
        return self._generations[generation].is_complete

    @property
    def children(self) -> tuple:
        """Attached child identities, in fan-out order."""
        return self._children_tuple

    # ------------------------------------------------------------------
    # Observer taps.  Plain-attribute assignment (``engine.log = ...``)
    # still works — the setters just refresh the collapsed hook tuple
    # the hot path checks.

    def _retap(self) -> None:
        hooks = []
        if self._log is not None:
            hooks.append(self._log.record)
        if self._flight is not None:
            hooks.append(self._flight.record)
        if self._obs is not None:
            hooks.append(self._obs.record_step)
        self._taps = tuple(hooks)

    @property
    def log(self):
        """Optional event/effect recorder (conformance and replay)."""
        return self._log

    @log.setter
    def log(self, value) -> None:
        self._log = value
        self._retap()

    @property
    def flight(self):
        """Optional bounded ring of recent steps (duck-typed ``record``)."""
        return self._flight

    @flight.setter
    def flight(self, value) -> None:
        self._flight = value
        self._retap()

    @property
    def obs(self):
        """Optional instrument bundle (duck-typed ``record_step``, e.g.
        ``obs.DataplaneInstruments``) — the engine never imports
        ``repro.obs``.  A skipped fan-out slot leaves no effect to
        classify, so the engine bumps its ``withheld`` counter itself."""
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self._retap()

    # ------------------------------------------------------------------

    def handle(self, event: Event) -> list[Effect]:
        """Advance the state machine by one event."""
        # Exact-type table dispatch: the event vocabulary is closed (no
        # driver subclasses an event) and this runs once per packet, so
        # it beats an isinstance chain on the hot path.
        handler = _HANDLERS.get(event.__class__)
        effects = handler(self, event) if handler is not None else []
        taps = self._taps
        if taps:
            for record in taps:
                record(event, effects)
        return effects

    # ------------------------------------------------------------------
    # Receive gate + push-mode fan-out

    def _on_packet(self, event: PacketArrived) -> list[Effect]:
        packet = event.packet
        generation = packet.generation
        self.received += 1
        innovative = self.recoder.receive(packet)
        finished = False
        if innovative:
            self.innovative += 1
            self._epoch += 1
            self._rank += 1
            # The one decoder that was pushed says everything the need
            # view has to know about this arrival.
            rank = self._generations[generation].rank
            if rank == 1:
                self._plan = None  # a generation to serve that was not
                if generation >= self._held_stop:
                    self._held_stop = generation + 1
            finished = rank == self._generation_size
        # ``_make`` is ``tuple.__new__`` — the per-packet constructions
        # skip the keyword-handling ``__new__`` wrapper.
        effects: list[Effect] = [
            Ingested._make((generation, innovative, self._rank))
        ]
        if self._children_tuple and (
            self._forward_innovative if innovative
            else self._forward_duplicates
        ):
            children, spec, skipped = self._plan or self._replan()
            if skipped and self._obs is not None:
                self._obs.withheld.inc(skipped)
            if children:
                groups = self._draw(spec)
                emitted = 0
                for _generation, _rows, positions in groups:
                    emitted += len(positions)
                if emitted:
                    self.forwarded += emitted
                    effects.append(EmitToChildren._make(
                        (children, None, tuple(groups))
                    ))
        if finished:
            self._mine.add(generation)
            effects.append(GenerationComplete(generation))
            if self._rank == self._needed and not self.completed:
                self.completed = True
                effects.append(MarkComplete(self._needed))
        return effects

    def _choice(self, child: Hashable) -> Optional[int]:
        """The ``generation`` argument ``child``'s next mixture is
        drawn with: the lowest generation it lacks that this node holds
        rank in, ``_NOTHING`` if there is none — and None, the
        recoder's own pick, for a child that never reported."""
        need = self._needs.get(child)
        if need is None:
            return None
        choice = need.lowest_missing(self._held_stop, self._generations)
        return _NOTHING if choice is None else choice

    def _replan(self) -> tuple:
        """Group the children by the generation each is served."""
        served: dict = {}
        for child in self._children_tuple:
            choice = self._choice(child)
            if choice != _NOTHING:
                served.setdefault(choice, []).append(child)
        if None in served:
            # Last: the recoder's own pick may come up short (an empty
            # buffer), and a short group must not shift the others.
            served[None] = served.pop(None)
        children = tuple(c for members in served.values() for c in members)
        self._plan = (
            children,
            tuple((g, len(members)) for g, members in served.items()),
            len(self._children_tuple) - len(children),
        )
        return self._plan

    def _draw(self, spec: tuple) -> list:
        """One ``emit_rows`` per group, positions running on across
        groups so they index the plan's child order."""
        emit_rows = self.recoder.emit_rows
        if len(spec) == 1:
            generation, count = spec[0]
            return emit_rows(count, generation)
        groups = []
        offset = 0
        for generation, count in spec:
            for g, rows, positions in emit_rows(count, generation):
                groups.append(
                    (g, rows, [offset + position for position in positions])
                )
            offset += count
        return groups

    # ------------------------------------------------------------------
    # Pull-mode (clocked per-edge) emission

    def _on_pull(self, event: PullEmit) -> list[Effect]:
        destination = event.destination
        if self._pull_gated:
            sent = self._pull_sent.get(destination, 0)
            if sent >= self.seed_burst + self._epoch:
                return []
            packet = self.recoder.emit()
            if packet is None:
                return []
            self._pull_sent[destination] = sent + 1
        else:
            packet = self.recoder.emit()
            if packet is None:
                return []
        self.forwarded += 1
        return [EmitToChildren._make(((destination,), (packet,), None))]

    # ------------------------------------------------------------------
    # Push-mode child lifecycle

    def _on_attach(self, event: ChildAttached) -> list[Effect]:
        child = event.child
        # Pop-then-reinsert so a re-attaching child moves to the end of
        # the fan-out order, exactly as the live driver's pump dict did.
        self._children.pop(child, None)
        self._children[child] = event.column
        self._children_tuple = tuple(self._children)
        self._pull_sent.pop(child, None)
        # A redial starts from what the child says now, not from what
        # its last connection had reported.
        if event.completed is None:
            self._needs.pop(child, None)
        else:
            self._needs[child] = CompletedSet(*event.completed)
        self._plan = None
        effects: list[Effect] = [RequestIdle(child)]
        # Seed the child immediately rather than waiting for the next
        # upstream arrival (matters when upstream is already complete).
        choice = self._choice(child)
        packets = [] if choice == _NOTHING else self.recoder.emit_batch(
            max(1, self.seed_burst), choice)
        if packets:
            self.forwarded += len(packets)
            effects.append(EmitToChildren(
                (child,) * len(packets), packets=tuple(packets)
            ))
        return effects

    def _on_completed(self, event: ChildCompleted) -> list[Effect]:
        child = event.child
        if child not in self._children:
            return []  # a report that outlived its connection
        self._needs.setdefault(child, CompletedSet()).update(
            event.base, event.extras)
        self._plan = None
        return []

    def _on_detach(self, event: ChildDetached) -> list[Effect]:
        self._children.pop(event.child, None)
        self._children_tuple = tuple(self._children)
        self._pull_sent.pop(event.child, None)
        self._needs.pop(event.child, None)
        self._plan = None
        return []

    def _on_idle(self, event: IdlePoll) -> list[Effect]:
        # Idle fills are keep-alive substitutes, not fan-out: they are
        # counted separately and never in ``forwarded``.
        choice = self._choice(event.child)
        if choice == _NOTHING:
            return []  # a bare keep-alive will do
        packet = self.recoder.emit(choice)
        if packet is None:
            return []
        self.idle_emits += 1
        return [EmitToChildren((event.child,), packets=(packet,))]


_HANDLERS = {
    PacketArrived: RelayEngine._on_packet,
    PullEmit: RelayEngine._on_pull,
    ChildAttached: RelayEngine._on_attach,
    ChildCompleted: RelayEngine._on_completed,
    ChildDetached: RelayEngine._on_detach,
    IdlePoll: RelayEngine._on_idle,
}
