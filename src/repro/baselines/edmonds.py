"""Baseline 3 — Edmonds' edge-disjoint branchings ("the theoretical
solution", §1).

Edmonds' theorem [8]: a digraph contains ``d`` edge-disjoint spanning
arborescences rooted at ``r`` iff every vertex has edge-connectivity at
least ``d`` from ``r``.  Routing one content stripe down each
arborescence achieves the full broadcast capacity — optimally — but, as
the paper stresses, the partition must be *recomputed whenever a node
fails*, which is impractical for short-lived failures.  Network coding
reaches the same rate with no trees at all.

No general packer is needed here: the curtain overlay's DAG has
in-degree exactly ``d`` at every node, so colouring each node's ``d``
incoming threads with distinct tree indices *is* a valid packing (every
colour class gives each node exactly one parent that joined earlier,
hence an arborescence rooted at the server) —
:func:`curtain_tree_decomposition`, O(N·d).  :func:`route_stripes` then
routes stripes down that fixed packing under failures, and
:func:`verify_packing` is the tests' oracle for a packing's validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.matrix import SERVER, ThreadMatrix
from ..core.topology import OverlayGraph

#: A packing: ``trees[t][v]`` is v's parent in arborescence ``t``.
Packing = list[dict[int, int]]


def curtain_tree_decomposition(matrix: ThreadMatrix) -> Packing:
    """Colour each node's incoming threads into ``d`` arborescences.

    Requires a uniform-degree matrix (every row the same ``d``).  The
    t-th tree assigns every node its parent on its t-th column (in sorted
    column order) — parents always joined earlier, so each colour class
    is a spanning arborescence rooted at the server, and the classes are
    edge-disjoint because they use disjoint thread segments.
    """
    node_ids = matrix.node_ids
    if not node_ids:
        return []
    degrees = {matrix.row(n).degree for n in node_ids}
    if len(degrees) != 1:
        raise ValueError("curtain decomposition requires uniform degree")
    d = degrees.pop()
    trees: Packing = [dict() for _ in range(d)]
    for node_id in node_ids:
        parents = matrix.parents_of(node_id)
        for t, column in enumerate(sorted(parents)):
            trees[t][node_id] = parents[column]
    return trees


def verify_packing(graph: OverlayGraph, trees: Packing) -> bool:
    """Check a packing: spanning, arborescent, edge-disjoint.

    Each tree must give every graph node exactly one parent, parent
    chains must reach the server acyclically, and no (u, v) pair may be
    used by more trees than the edge multiplicity in ``graph``.
    """
    usage: dict[tuple[int, int], int] = {}
    for tree in trees:
        if set(tree) != set(graph.nodes):
            return False
        for v, u in tree.items():
            if u != SERVER and u not in graph.nodes:
                return False
            usage[(u, v)] = usage.get((u, v), 0) + 1
        # Acyclicity / rootedness: follow chains with a visited guard.
        state: dict[int, int] = {}  # 0=in progress, 1=done
        for start in tree:
            path = []
            v = start
            while v != SERVER and state.get(v) != 1:
                if state.get(v) == 0:
                    return False  # cycle
                state[v] = 0
                path.append(v)
                v = tree[v]
            for w in path:
                state[w] = 1
    for (u, v), count in usage.items():
        if count > graph.succ.get(u, {}).get(v, 0):
            return False
    return True


@dataclass(frozen=True)
class TreeRoutingOutcome:
    """Delivery outcome of routing stripes down a fixed packing.

    Attributes:
        mean_stripe_fraction: Mean (over working nodes) fraction of
            stripes whose tree path was all-working.
        full_delivery_fraction: Working nodes that received every stripe.
        affected_by_failure: Working nodes that lost at least one stripe.
    """

    mean_stripe_fraction: float
    full_delivery_fraction: float
    affected_by_failure: float


def route_stripes(
    trees: Packing,
    failed: set[int],
    nodes: Optional[list[int]] = None,
) -> TreeRoutingOutcome:
    """Evaluate a fixed packing under a failure set — no recomputation.

    A node receives stripe ``t`` iff its entire parent chain in tree ``t``
    is working.  This is the fragility the paper contrasts with coding:
    the packing was optimal when computed, but failures break whole
    subtrees until trees are recomputed.
    """
    if not trees:
        return TreeRoutingOutcome(1.0, 1.0, 0.0)
    population = nodes if nodes is not None else sorted(trees[0])
    working = [v for v in population if v not in failed]
    if not working:
        return TreeRoutingOutcome(1.0, 1.0, 0.0)
    fractions = []
    full = 0
    affected = 0
    # memoised chain evaluation per tree
    for v in working:
        got = 0
        for tree in trees:
            ok = True
            w = v
            while w != SERVER:
                w = tree[w]
                if w != SERVER and w in failed:
                    ok = False
                    break
            if ok:
                got += 1
        fractions.append(got / len(trees))
        if got == len(trees):
            full += 1
        else:
            affected += 1
    return TreeRoutingOutcome(
        mean_stripe_fraction=float(np.mean(fractions)),
        full_delivery_fraction=full / len(working),
        affected_by_failure=affected / len(working),
    )
