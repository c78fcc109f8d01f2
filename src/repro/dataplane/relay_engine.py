"""The peer side of the RLNC data plane as a sans-IO engine.

:class:`RelayEngine` owns every relay-side data-plane decision exactly
once — the receive gate, the forward/withhold choice, the recode
fan-out shape, completion — around a
:class:`~repro.coding.recoder.Recoder` it is handed (the recoder owns
the RNG and the RREF buffer; the engine owns the choices and the
bookkeeping).  Two driver shapes pump it, one rule each:

* **push** (live transport, virtual net): :class:`ChildAttached` /
  :class:`ChildDetached` maintain the fan-out list and
  :class:`ChildAttached` / :class:`ChildCompleted` each child's
  completed set; a :class:`PacketArrived` triggers a recode toward the
  attached children (every arrival, or only rank-raising ones under
  ``forward_dependent=False``), and :class:`IdlePoll` — which every
  push driver asks when a child's link has gone quiet — backfills it.
  Every child is served the lowest generation it has not
  reported complete and this node holds any rank in, and a child that
  lacks nothing this node holds is skipped.  A child that has not
  reported yet holds the empty set, so it is served from generation 0
  on, like every other child that holds nothing.
* **pull** (slotted simulator): no children are attached, so arrivals
  only ingest, and the clocked driver asks for each edge's emission
  with :class:`PullEmit`: one :meth:`Recoder.emit`, unconditionally —
  the paper's constant per-thread flow, which never looks at a
  completed set, so every seeded simulator golden is untouched by the
  need view.  It is the one driver shape that is not push; DESIGN.md
  says why it stays.

Push children are grouped by the generation they are served — served
in order they almost always share one — and each group is one
:meth:`Recoder.emit_rows` call.  The grouping is cached and rebuilt
only when a child attaches, detaches or reports, or this node gains its
first rank in a generation, so the per-arrival path reads no per-child
state.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..coding.recoder import Recoder
from ..protocol.trace import TappedEngine
from .effects import (
    Effect,
    EmitToChildren,
    GenerationComplete,
    Ingested,
    MarkComplete,
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

__all__ = ["RelayEngine"]

_new = tuple.__new__


class RelayEngine(TappedEngine):
    """Pure event-in/effect-out relay data-plane state machine.

    Args:
        recoder: The buffer/codec state.  Owned by the engine; drivers
            read it (rank, recovered content) but route every data-plane
            mutation through :meth:`handle`.
        forward_dependent: Push mode: whether an arrival that raised no
            rank fans out too (``eager``, the default) or only
            rank-raising ones do (``innovative``).
        seed_burst: Packets emitted toward a child the moment it
            attaches — at least one (a child of an already-complete
            parent must not wait for upstream innovation).
    """

    # Fixed attribute layout: the engine is instantiated per node (10k
    # of them in the churn soak) and its attributes are read on every
    # packet, so slots buy both memory and hot-path attribute speed.
    __slots__ = (
        "recoder", "seed_burst", "completed",
        "_children", "_children_tuple", "_forward_dependent",
        "_rank", "_needed", "_generations", "_generation_size",
        "_held_stop", "_mine", "_plan",
    )

    def __init__(
        self,
        recoder: Recoder,
        *,
        forward_dependent: bool = True,
        seed_burst: int = 1,
    ) -> None:
        if seed_burst < 1:
            raise ValueError("seed_burst must be >= 1")
        super().__init__()
        self.recoder = recoder
        self.seed_burst = seed_burst
        self.completed = False
        #: child -> its completed set, in attach order == fan-out order
        #: (mirrors the live driver's pump dict; re-attach moves to the
        #: end)
        self._children: dict[Hashable, CompletedSet] = {}
        # Fan-out tuple rebuilt on (rare) attach/detach so the
        # per-arrival path never re-materialises the dict's keys.
        self._children_tuple: tuple = ()
        self._forward_dependent = forward_dependent
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
        #: (children served, ((generation, count), ...), children
        #: skipped) for one fan-out; None when it has to be rebuilt
        self._plan: Optional[tuple] = None

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
    def generation_count(self) -> int:
        """Generations in the content (what a child's report may name)."""
        return len(self._generations)

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

    def _dispatch(self, event: Event) -> list[Effect]:
        # Exact-type table dispatch: the event vocabulary is closed (no
        # driver subclasses an event) and this runs once per packet, so
        # it beats an isinstance chain on the hot path.
        handler = _HANDLERS.get(event.__class__)
        return handler(self, event) if handler is not None else []

    # ------------------------------------------------------------------
    # Receive gate + push-mode fan-out

    def _on_packet(self, event: PacketArrived) -> list[Effect]:
        packet = event.packet
        generation = packet.generation
        # ``Recoder.receive`` without its frame: the decoder's ``push``.
        innovative = self.recoder.decoder.push(packet)
        finished = False
        if innovative:
            self._rank += 1
            # The one decoder that was pushed says everything the need
            # view has to know about this arrival.
            rank = self._generations[generation].rank
            if rank == 1:
                self._plan = None  # a generation to serve that was not
                if generation >= self._held_stop:
                    self._held_stop = generation + 1
            finished = rank == self._generation_size
        # The per-packet effects are built with ``tuple.__new__``: one C
        # call, where ``_make`` and the generated ``__new__`` are frames.
        effects: list[Effect] = [
            _new(Ingested, (generation, innovative, self._rank))
        ]
        if self._children_tuple and (innovative or self._forward_dependent):
            children, spec, skipped = self._plan or self._replan()
            if skipped and self._obs is not None:
                self._obs.withheld += skipped
            if children:
                emit_rows = self.recoder.emit_rows
                groups = []
                for g, count in spec:
                    groups.append((g, emit_rows(count, g)))
                effects.append(
                    _new(EmitToChildren, (children, None, tuple(groups))))
        if finished:
            self._mine.add(generation)
            effects.append(GenerationComplete(generation))
            if self._rank == self._needed and not self.completed:
                self.completed = True
                effects.append(MarkComplete(self._needed))
        return effects

    def _choice(self, child: Hashable) -> Optional[int]:
        """The generation ``child``'s next mixture is drawn from: the
        lowest one it lacks that this node holds rank in — None if
        there is none, or ``child`` is not attached."""
        need = self._children.get(child)
        if need is None:
            return None
        return need.lowest_missing(self._held_stop, self._generations)

    def _replan(self) -> tuple:
        """Group the children by the generation each is served; one
        ``emit_rows`` per group draws its mixtures in child order."""
        served: dict = {}
        for child, need in self._children.items():
            choice = need.lowest_missing(self._held_stop, self._generations)
            if choice is not None:
                served.setdefault(choice, []).append(child)
        children: list = []
        spec = []
        for g, members in served.items():
            children += members
            spec.append((g, len(members)))
        self._plan = (
            tuple(children), tuple(spec),
            len(self._children_tuple) - len(children),
        )
        return self._plan

    # ------------------------------------------------------------------
    # Pull-mode (clocked per-edge) emission: the constant flow

    def _on_pull(self, event: PullEmit) -> list[Effect]:
        packet = self.recoder.emit()
        if packet is None:
            return []
        return [_new(EmitToChildren, ((event.destination,), (packet,), None))]

    # ------------------------------------------------------------------
    # Push-mode child lifecycle

    def _on_attach(self, event: ChildAttached) -> list[Effect]:
        child = event.child
        # Pop-then-reinsert so a re-attaching child moves to the end of
        # the fan-out order, exactly as the live driver's pump dict did.
        # A redial starts from what the child says now, not from what
        # its last connection had reported.
        self._children.pop(child, None)
        self._children[child] = CompletedSet(*event.completed)
        self._children_tuple = tuple(self._children)
        self._plan = None
        # Seed the child immediately rather than waiting for the next
        # upstream arrival (matters when upstream is already complete).
        choice = self._choice(child)
        packets = [] if choice is None else self.recoder.emit_batch(
            self.seed_burst, choice)
        if not packets:
            return []
        return [EmitToChildren(
            (child,) * len(packets), packets=tuple(packets))]

    def _on_completed(self, event: ChildCompleted) -> list[Effect]:
        need = self._children.get(event.child)
        if need is not None:  # else: a report that outlived its connection
            need.update(event.base, event.extras)
            self._plan = None
        return []

    def _on_detach(self, event: ChildDetached) -> list[Effect]:
        self._children.pop(event.child, None)
        self._children_tuple = tuple(self._children)
        self._plan = None
        return []

    def _on_idle(self, event: IdlePoll) -> list[Effect]:
        # Idle fills are keep-alive substitutes, not fan-out: the
        # instruments count them apart from ``mixtures_out``.
        choice = self._choice(event.child)
        if choice is None:
            return []  # a bare keep-alive will do
        packet = self.recoder.emit(choice)
        if packet is None:
            return []
        return [EmitToChildren((event.child,), packets=(packet,))]


_HANDLERS = {
    PacketArrived: RelayEngine._on_packet,
    PullEmit: RelayEngine._on_pull,
    ChildAttached: RelayEngine._on_attach,
    ChildCompleted: RelayEngine._on_completed,
    ChildDetached: RelayEngine._on_detach,
    IdlePoll: RelayEngine._on_idle,
}
