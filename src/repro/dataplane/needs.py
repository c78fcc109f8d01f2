"""Completed-generation sets: what a node holds, what a child lacks.

Both engines choose what to send a child from the one thing the child
tells them — which generations it has finished — and a relay keeps the
same record about itself to tell its own parents.  The set is stored
the way it travels, ``(base, extras)``: every generation below ``base``
is complete, ``base`` is not, and ``extras`` holds the complete ones
above it.  In-order service keeps ``extras`` empty, so the per-child
state is one integer and the choice below is one comparison.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["CompletedSet"]

_NONE: frozenset = frozenset()


class CompletedSet:
    """A growing set of complete generations (nothing ever leaves it)."""

    __slots__ = ("base", "extras")

    def __init__(self, base: int = 0, extras: Iterable[int] = ()) -> None:
        self.base = 0
        self.extras = _NONE
        self.update(base, extras)

    def update(self, base: int, extras: Iterable[int] = ()) -> None:
        """Take the union with another ``(base, extras)`` set."""
        if base < self.base:
            base = self.base
        merged = self.extras.union(extras) if extras else self.extras
        if merged:
            while base in merged:
                base += 1
            merged = frozenset(g for g in merged if g > base)
        self.base = base
        self.extras = merged

    def add(self, generation: int) -> None:
        """One more generation is complete."""
        if generation == self.base and not self.extras:
            self.base += 1
        elif generation >= self.base:
            self.update(self.base, (generation,))

    def pair(self) -> tuple[int, tuple[int, ...]]:
        """``(base, extras)`` with the extras in increasing order."""
        return self.base, tuple(sorted(self.extras))

    def __len__(self) -> int:
        return self.base + len(self.extras)

    def lowest_missing(
        self, stop: int, holders: Optional[Sequence] = None,
    ) -> Optional[int]:
        """The lowest generation below ``stop`` that is not in the set
        — and, given the sender's per-generation decoders, that the
        sender holds any rank in.  None when there is none."""
        extras = self.extras
        for generation in range(self.base, stop):
            if generation not in extras and (
                holders is None or holders[generation].rank
            ):
                return generation
        return None
