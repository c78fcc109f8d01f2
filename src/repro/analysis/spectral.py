"""Spectral expansion measurements.

§1's robustness intuition rests on the overlay being an expander.  The
cleanest certificate is spectral: symmetrise the overlay into an
undirected multigraph, normalise by degree, and look at the second
eigenvalue λ₂ of the random-walk matrix — the spectral gap ``1 − λ₂``
lower-bounds conductance (Cheeger).  Random d-regular-ish graphs have a
constant gap; chains have gap Θ(1/N²).
"""

from __future__ import annotations

import numpy as np

from ..core.matrix import SERVER
from ..core.topology import OverlayGraph


def symmetric_adjacency(graph: OverlayGraph) -> tuple[np.ndarray, list[int]]:
    """Dense symmetrised adjacency (multiplicities summed both ways), the
    server included.

    Returns ``(A, index)`` where ``index[i]`` is the node at row ``i``.
    """
    nodes = [SERVER] + sorted(graph.nodes)
    position = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    adjacency = np.zeros((n, n), dtype=float)
    for u, targets in graph.succ.items():
        if u not in position:
            continue
        for v, multiplicity in targets.items():
            if v not in position:
                continue
            adjacency[position[u], position[v]] += multiplicity
            adjacency[position[v], position[u]] += multiplicity
    return adjacency, nodes


def spectral_gap(graph: OverlayGraph) -> float:
    """``1 − λ₂`` of the lazy random-walk matrix of the symmetrised graph.

    The walk is made lazy (``W = (I + D⁻¹A)/2``) so negative eigenvalues
    cannot masquerade as a small gap.  Returns 0.0 for graphs with
    fewer than two vertices.  Isolated vertices (degree 0) are dropped.
    """
    adjacency, _ = symmetric_adjacency(graph)
    degrees = adjacency.sum(axis=1)
    keep = degrees > 0
    adjacency = adjacency[np.ix_(keep, keep)]
    degrees = degrees[keep]
    n = adjacency.shape[0]
    if n < 2:
        return 0.0
    # Symmetric normalised walk: N = D^{-1/2} A D^{-1/2} shares eigenvalues
    # with D^{-1} A but stays symmetric for stable eigensolving.
    inv_sqrt = 1.0 / np.sqrt(degrees)
    normalised = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    lazy = 0.5 * (np.eye(n) + normalised)
    eigenvalues = np.linalg.eigvalsh(lazy)
    return float(1.0 - eigenvalues[-2])

