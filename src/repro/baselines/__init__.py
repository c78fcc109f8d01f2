"""Baselines the paper motivates against.

* :class:`ChainOverlay` — the distribution path (§1 strawman).
* :class:`StripedTrees` — SplitStream-style multiple multicast trees [4].
* :mod:`repro.baselines.edmonds` — optimal branchings packing [8] and its
  fragility under failures.
* :class:`MDSCode` / erasure striping — Reed–Solomon-coded multi-parent
  overlays (no in-network mixing).

The uncoded store-and-forward and rarest-first baselines are not here:
they are behaviours on the shared slotted runtime
(:func:`repro.sim.uncoded`).
"""

from .chain import ChainOverlay
from .edmonds import (
    Packing,
    TreeRoutingOutcome,
    curtain_tree_decomposition,
    route_stripes,
    verify_packing,
)
from .erasure import (
    ErasureOutcome,
    MDSCode,
    evaluate_erasure_overlay,
    stripes_received,
)
from .trees import StripedTrees

__all__ = [
    "ChainOverlay",
    "ErasureOutcome",
    "MDSCode",
    "Packing",
    "StripedTrees",
    "TreeRoutingOutcome",
    "curtain_tree_decomposition",
    "evaluate_erasure_overlay",
    "route_stripes",
    "stripes_received",
    "verify_packing",
]
