"""The flight recorder: a bounded ring of recent engine steps.

A :class:`FlightRecorder` speaks the same ``record(event, effects)``
interface as :class:`repro.protocol.trace.EngineLog`, but where the
trace log grows without bound (it exists to compare *complete*
histories), the recorder keeps only the last N steps — cheap enough to
leave attached to every engine in a live deployment, and exactly what
a post-mortem needs: what did this node see right before the invariant
broke?

Drivers attach one per engine (``engine.flight = FlightRecorder()``);
the chaos harness does this for every node it brings up and dumps the
implicated recorders when ``check_invariants`` fails, so a failing
seed produces a last-N-events trace instead of a bare assertion.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FlightRecorder", "format_dump"]

#: Ring capacity: enough steps to cover a whole repair episode
#: (complaint, probe, timer, splice fan-out) with room to spare.
CAPACITY = 64


class FlightRecorder:
    """Append-only bounded record of an engine's recent steps.

    Attributes:
        steps: The retained ``(sequence, event, effects)`` triples,
            oldest first.  ``sequence`` is the step's position in the
            engine's full history, so a dump says how much was
            discarded.
        recorded: Total steps ever recorded (>= ``len(steps)``).
    """

    __slots__ = ("steps", "recorded")

    def __init__(self) -> None:
        self.steps: deque = deque(maxlen=CAPACITY)
        self.recorded = 0

    def record(self, event, effects) -> None:
        """One engine step (the engines call this from ``handle``)."""
        self.steps.append((self.recorded, event, tuple(effects)))
        self.recorded += 1

    def clear(self) -> None:
        self.steps.clear()

    def tail(self, count: int) -> list[tuple]:
        """The most recent ``count`` retained steps, oldest first."""
        if count <= 0:
            return []
        return list(self.steps)[-count:]

    def dump(self, label: str = "engine") -> str:
        """Human-readable dump of everything retained."""
        return format_dump(self, label)


def format_dump(recorder: FlightRecorder, label: str = "engine") -> str:
    """Render one recorder's retained steps as an indented block.

    Every line is stable ``repr`` output (the same vocabulary the
    conformance goldens pin), prefixed with the step's sequence number;
    zero-effect steps render on one line.
    """
    lines = [
        f"--- flight recorder: {label} "
        f"(last {len(recorder.steps)} of {recorder.recorded} steps) ---"
    ]
    if not recorder.steps:
        lines.append("  (no steps recorded)")
    for sequence, event, effects in recorder.steps:
        lines.append(f"  [{sequence:>5}] {event!r}")
        for effect in effects:
            lines.append(f"          -> {effect!r}")
    return "\n".join(lines)
