"""Baseline 4 — erasure-coded multi-parent striping (the "past work" of §1).

Each of the server's ``k`` columns carries a distinct stripe of the
content, protected by an (k, m) MDS code (Reed–Solomon style, built on
our GF(2⁸) Vandermonde matrices): any ``m`` stripes reconstruct the
content.  A node receives the stripes of its ``d`` columns — but a
stripe survives only if every upstream occupant of that column works.
No mixing happens in the network, so a node holding fewer than ``m``
distinct stripes gains nothing from extra copies of the ones it has —
the coupon problem network coding eliminates.

Includes both the reliability *analysis* used by E7 and a real
encode/decode path proving the substrate correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

import numpy as np

from ..gf.linalg import matmul, solve, vandermonde
from ..core.matrix import ThreadMatrix


# ----------------------------------------------------------------------
# MDS code over GF(2^8)


@dataclass(frozen=True)
class MDSCode:
    """A systematic-free (n, m) MDS code from a Vandermonde generator.

    ``n`` coded stripes are produced from ``m`` source stripes; any ``m``
    coded stripes decode.  ``n`` must be at most 255 (distinct nonzero
    evaluation points in GF(256)).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n <= 255:
            raise ValueError("need 1 <= m <= n <= 255")

    def generator(self) -> np.ndarray:
        """The ``n × m`` Vandermonde generator matrix."""
        return vandermonde(self.n, self.m)

    def encode(self, source: np.ndarray) -> np.ndarray:
        """Encode ``m × L`` source stripes into ``n × L`` coded stripes."""
        source = np.asarray(source, dtype=np.uint8)
        if source.ndim != 2 or source.shape[0] != self.m:
            raise ValueError(f"source must be {self.m} stripes")
        return matmul(self.generator(), source)

    def decode(self, stripe_indices: list[int], stripes: np.ndarray) -> np.ndarray:
        """Recover the source from any ``m`` coded stripes.

        Args:
            stripe_indices: Which coded stripes these are (row indices of
                the generator).
            stripes: ``m × L`` array of the stripe contents.
        """
        if len(stripe_indices) < self.m:
            raise ValueError(
                f"need {self.m} stripes, got {len(stripe_indices)}"
            )
        indices = list(stripe_indices)[: self.m]
        sub = self.generator()[indices, :]
        received = np.asarray(stripes, dtype=np.uint8)[: self.m]
        return solve(sub, received)


# ----------------------------------------------------------------------
# Reliability analysis on the curtain overlay


def stripes_received(
    matrix: ThreadMatrix,
    node_id: int,
    failed: AbstractSet[int],
) -> list[int]:
    """Columns whose full upstream chain above ``node_id`` is working.

    Those are the stripes the node receives under per-column striping
    with no in-network mixing.
    """
    alive = []
    for column in matrix.columns_of(node_id):
        chain = matrix.column_chain(column)
        position = chain.index(node_id)
        if all(w not in failed for w in chain[:position]):
            alive.append(column)
    return sorted(alive)


@dataclass(frozen=True)
class ErasureOutcome:
    """Delivery statistics of erasure striping under one failure set."""

    mean_stripe_count: float
    decode_fraction: float


def evaluate_erasure_overlay(
    matrix: ThreadMatrix,
    failed: AbstractSet[int],
    required: int,
) -> ErasureOutcome:
    """Fraction of working nodes holding >= ``required`` live stripes."""
    working = [v for v in matrix.node_ids if v not in failed]
    if not working:
        return ErasureOutcome(mean_stripe_count=0.0, decode_fraction=1.0)
    counts = []
    decodable = 0
    for node_id in working:
        count = len(stripes_received(matrix, node_id, failed))
        counts.append(count)
        if count >= required:
            decodable += 1
    return ErasureOutcome(
        mean_stripe_count=float(np.mean(counts)),
        decode_fraction=decodable / len(working),
    )
