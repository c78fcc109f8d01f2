"""Arrival keys: the row-ordering mechanism of the thread matrix.

The paper's matrix ``M`` orders rows by arrival.  Section 3 appends each
new row at the bottom; Section 5 hardens the system against coordinated
adversaries by inserting each new row at a *uniformly random position*.

Both modes are captured by giving every row a totally ordered *key*:

* append mode — keys are an increasing counter, so a new row is always
  last (the §3 behaviour);
* uniform mode — keys are iid U(0, 1) draws, so the rank of a new row
  among the existing rows is uniform (exactly the §5 random insertion).

Keys make random insertion as cheap as appending: per-column occupancy
lists stay sorted by key and a join is d binary searches.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np


class KeyAllocator(Protocol):
    """Strategy that hands out one ordering key per joining row."""

    def next_key(self) -> float:
        """Return a key strictly orderable against all previous keys."""
        ...


class AppendKeys:
    """Monotonically increasing keys: §3's append-at-the-bottom ordering."""

    def __init__(self) -> None:
        self._counter = 0

    def next_key(self) -> float:
        self._counter += 1
        return float(self._counter)


class UniformKeys:
    """IID uniform keys: §5's random row insertion.

    Strict ordering needs a key no *present* row holds; the matrix, which
    knows the present rows, redraws on that measure-zero collision, so
    the allocator remembers nothing per departed row.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def next_key(self) -> float:
        return float(self._rng.random())
