"""Streaming playback on top of the broadcast data plane.

The paper distinguishes synchronous (live/VoD) from asynchronous
(download) delivery and argues in §7 that larger ``d`` buys *lower
variance* — i.e. smoother playback — at the same expected bandwidth.
This module measures that: a :class:`PlaybackMonitor` models a receiver
that plays generation ``t`` during a fixed-length window after a startup
delay, and counts a *stall* whenever the generation is not decoded by
its deadline.

The continuity index (fraction of windows played on time) is the
standard streaming QoE metric; ablation X6 sweeps ``d`` at fixed total
bandwidth and shows continuity improving with ``d`` — the variance
conjecture, expressed in user experience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .runtime import SlottedRuntime


@dataclass(frozen=True)
class PlaybackReport:
    """Playback outcome for one receiver.

    Attributes:
        node_id: The receiver.
        windows: Generations it attempted to play.
        stalls: Windows whose generation missed its deadline.
        startup_delay: Slots waited before playback began.
        continuity: Fraction of windows played on time.
    """

    node_id: int
    windows: int
    stalls: int
    startup_delay: int

    @property
    def continuity(self) -> float:
        return 1.0 - self.stalls / self.windows if self.windows else 1.0


@dataclass
class PlaybackMonitor:
    """Deadline bookkeeping for every honest receiver in a broadcast.

    Args:
        sim: The RLNC broadcast to monitor (a :func:`~repro.sim.rlnc`
            runtime; drive it via :meth:`step`).
        window: Slots of content per generation at playback rate (the
            generation's play duration).
        startup_delay: Slots a receiver buffers before starting playback
            (counted from when it first receives anything).
    """

    sim: SlottedRuntime
    window: int
    startup_delay: int
    _first_heard: dict[int, int] = field(default_factory=dict)
    _decoded_at: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.startup_delay < 0:
            raise ValueError("startup_delay must be >= 0")

    def step(self) -> None:
        """Advance the broadcast one slot and sample decode states."""
        self.sim.step()
        slot = self.sim.slot
        for node_id, engine in self.sim.behavior.engines.items():
            decoders = engine.recoder.decoder.generations
            if node_id not in self._first_heard and any(
                    decoder.received for decoder in decoders):
                self._first_heard[node_id] = slot
            for generation, decoder in enumerate(decoders):
                key = (node_id, generation)
                if key not in self._decoded_at and decoder.is_complete:
                    self._decoded_at[key] = slot

    def run(self, slots: int) -> None:
        """Drive the broadcast for ``slots`` slots."""
        for _ in range(slots):
            self.step()

    def report(self, node_id: int) -> Optional[PlaybackReport]:
        """Playback outcome for one receiver (None if it never heard)."""
        first = self._first_heard.get(node_id)
        if first is None:
            return None
        start = first + self.startup_delay
        generations = self.sim.behavior.generation_count
        stalls = 0
        for generation in range(generations):
            deadline = start + (generation + 1) * self.window
            decoded = self._decoded_at.get((node_id, generation))
            if decoded is None or decoded > deadline:
                stalls += 1
        return PlaybackReport(
            node_id=node_id,
            windows=generations,
            stalls=stalls,
            startup_delay=self.startup_delay,
        )

    def continuity_summary(self) -> dict[int, float]:
        """Continuity index per honest working receiver."""
        out = {}
        for node_id in self.sim.measured_nodes():
            report = self.report(node_id)
            if report is not None:
                out[node_id] = report.continuity
        return out
