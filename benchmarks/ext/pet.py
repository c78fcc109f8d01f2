"""Priority Encoding Transmission (Albanese–Blömer–Edmonds–Luby–Sudan [2]).

§5: heterogeneous users plus PET let "users with higher bandwidth
connections get higher resolution broadcasts", and PET "allows graceful
degradation of quality with network failures, as described in [5]".

The construction: the content is split into priority *layers*; each
layer ``ℓ`` is protected by an ``(n, m_ℓ)`` MDS code across the same
``n`` stripes, with more important layers given smaller thresholds
``m_ℓ``.  A stripe is the concatenation of its per-layer shares, so
*any* ``r`` stripes decode exactly the layers with ``m_ℓ ≤ r`` — quality
degrades in clean steps with the number of stripes received, and a
receiver's bandwidth class (how many overlay threads it affords)
determines its resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.erasure import MDSCode


@dataclass(frozen=True)
class PETLayer:
    """One priority layer.

    Attributes:
        name: Label ("base", "enhance-1", ...).
        threshold: Stripes required to decode this layer (``m_ℓ``);
            smaller = higher priority = more redundancy = more stripe
            budget per content byte.
        data: The layer's content bytes.
    """

    name: str
    threshold: int
    data: bytes

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")


@dataclass(frozen=True)
class _LayerGeometry:
    layer: PETLayer
    share_bytes: int  # bytes of this layer carried per stripe
    code: MDSCode


class PETEncoder:
    """Encode priority layers into ``n`` equal stripes.

    Args:
        layers: The layers, any order; thresholds must not exceed ``n``.
        n: Stripe count (≤ 255; one stripe per overlay thread/unit).
    """

    def __init__(self, layers: list[PETLayer], n: int) -> None:
        if not layers:
            raise ValueError("need at least one layer")
        if len({layer.name for layer in layers}) != len(layers):
            raise ValueError("layer names must be unique")
        self.n = n
        self._geometry: list[_LayerGeometry] = []
        for layer in layers:
            if layer.threshold > n:
                raise ValueError(
                    f"layer {layer.name!r} threshold {layer.threshold} > n={n}"
                )
            share = max(1, math.ceil(len(layer.data) / layer.threshold))
            self._geometry.append(
                _LayerGeometry(
                    layer=layer,
                    share_bytes=share,
                    code=MDSCode(n=n, m=layer.threshold),
                )
            )

    @property
    def stripe_bytes(self) -> int:
        """Length of each stripe (sum of per-layer shares)."""
        return sum(g.share_bytes for g in self._geometry)

    @property
    def overhead(self) -> float:
        """Total stripe bytes emitted divided by raw content bytes."""
        raw = sum(len(g.layer.data) for g in self._geometry)
        return self.n * self.stripe_bytes / raw if raw else 0.0

    def encode(self) -> np.ndarray:
        """Produce the ``(n, stripe_bytes)`` stripe matrix."""
        parts = []
        for geometry in self._geometry:
            source = np.zeros(
                (geometry.layer.threshold, geometry.share_bytes), dtype=np.uint8
            )
            flat = np.frombuffer(geometry.layer.data, dtype=np.uint8)
            source.reshape(-1)[: flat.size] = flat
            parts.append(geometry.code.encode(source))
        return np.concatenate(parts, axis=1)

    def decode(
        self,
        stripe_indices: list[int],
        stripes: np.ndarray,
    ) -> dict[str, bytes | None]:
        """Recover every layer the received stripes allow.

        Args:
            stripe_indices: Which stripes these are (rows of the encode
                output).
            stripes: The received stripe contents, one row per index.

        Returns ``layer name -> bytes`` for decodable layers
        (``threshold <= len(stripe_indices)``) and ``None`` for the rest
        — the graceful-degradation staircase.
        """
        stripes = np.asarray(stripes, dtype=np.uint8)
        if stripes.shape[0] != len(stripe_indices):
            raise ValueError("one stripe row per index required")
        if stripes.ndim != 2 or stripes.shape[1] != self.stripe_bytes:
            raise ValueError(f"stripes must be (r, {self.stripe_bytes})")
        result: dict[str, bytes | None] = {}
        offset = 0
        received = len(stripe_indices)
        for geometry in self._geometry:
            share = geometry.share_bytes
            if received >= geometry.layer.threshold:
                region = stripes[:, offset : offset + share]
                source = geometry.code.decode(list(stripe_indices), region)
                result[geometry.layer.name] = (
                    source.reshape(-1)[: len(geometry.layer.data)].tobytes()
                )
            else:
                result[geometry.layer.name] = None
            offset += share
        return result

    def decodable_layers(self, received: int) -> list[str]:
        """Layer names decodable from ``received`` stripes."""
        return [
            g.layer.name for g in self._geometry if g.layer.threshold <= received
        ]
