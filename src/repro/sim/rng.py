"""Seed management: one root seed, many independent deterministic streams.

Every stochastic component of a simulation (membership, coding, losses,
attacks) gets its own child generator so that changing how many random
numbers one component draws never perturbs another — runs stay exactly
reproducible and comparable across configurations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class RngStreams:
    """A family of named, independent random streams under one root seed.

    >>> streams = RngStreams(42)
    >>> coding_rng = streams.get("coding")
    >>> loss_rng = streams.get("loss")

    Streams are spawned from a ``SeedSequence`` keyed by the stream name,
    so the same (seed, name) pair always yields the same stream.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created deterministically on first use."""
        if name not in self._streams:
            # Derive a child seed from the root entropy and the name bytes.
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(name.encode("utf-8")),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]
