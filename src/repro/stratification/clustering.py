"""Stable-matching structure on complete acceptance graphs (Section 4).

On a complete acceptance graph, Algorithm 1 simplifies considerably: peers
are processed best-first and each connects greedily to the next best peers
that still have free slots.  :func:`complete_graph_stable_matching` exploits
this to compute the stable collaboration graph in O(n * b_mean) time using a
skip-pointer over exhausted peers, which is what makes the paper's Table 1
(mean cluster sizes up to ~11000 for b_mean = 7) reproducible at the
required population sizes.

:class:`ClusterAnalysis` summarises the collaboration graph: connected
component (cluster) sizes and the Mean Max Offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.stratification.mmo import mmo_from_edges

__all__ = [
    "complete_graph_stable_matching",
    "ClusterAnalysis",
    "analyze_complete_matching",
    "constant_matching_cluster_size",
]


def complete_graph_stable_matching(slots: Sequence[int]) -> List[Tuple[int, int]]:
    """Stable b-matching edges on a complete acceptance graph.

    Parameters
    ----------
    slots:
        Slot budget of peer ``i + 1`` at index ``i``; peers are already in
        rank order (index 0 is the best peer).

    Returns
    -------
    list of (int, int)
        Matched pairs as 1-based (better, worse) rank tuples.

    Notes
    -----
    Equivalent to running :func:`repro.core.stable.stable_configuration` on
    :meth:`repro.core.acceptance.AcceptanceGraph.complete`, but in
    O(n * mean(b)) instead of O(n^2): a skip pointer jumps over peers whose
    slots are exhausted.
    """
    n = len(slots)
    remaining = [int(b) for b in slots]
    if any(b < 0 for b in remaining):
        raise ValueError("slot budgets must be non-negative")

    # next_free[i] points at a position >= i that may still have capacity;
    # exhausted prefixes are skipped with pointer jumping (path compression).
    next_free = list(range(n + 1))

    def find_next(index: int) -> int:
        path = []
        while index < n and remaining[index] <= 0:
            path.append(index)
            index = next_free[index] if next_free[index] > index else index + 1
        for visited in path:
            next_free[visited] = index
        return index

    edges: List[Tuple[int, int]] = []
    for i in range(n):
        if remaining[i] <= 0:
            continue
        j = i + 1
        while remaining[i] > 0:
            j = find_next(j)
            if j >= n:
                break
            edges.append((i + 1, j + 1))
            remaining[i] -= 1
            remaining[j] -= 1
            j += 1
    return edges


@dataclass
class ClusterAnalysis:
    """Summary of a collaboration graph on ranked peers.

    Attributes
    ----------
    n:
        Number of peers.
    edges:
        Number of collaboration edges.
    cluster_sizes:
        Connected-component sizes, descending.
    mean_cluster_size:
        Average component size (the paper's "Average Cluster Size").
    largest_cluster:
        Size of the largest component.
    mean_max_offset:
        The paper's MMO: average over matched peers of the rank offset to
        their furthest direct mate.
    connected:
        Whether the collaboration graph forms a single component covering
        every peer.
    """

    n: int
    edges: int
    cluster_sizes: List[int]
    mean_cluster_size: float
    largest_cluster: int
    mean_max_offset: float
    connected: bool


def analyze_complete_matching(slots: Sequence[int]) -> ClusterAnalysis:
    """Build the stable matching for ``slots`` and analyse its structure.

    Clusters are the connected components found by
    :mod:`scipy.sparse.csgraph`; the MMO is
    :func:`repro.stratification.mmo.mmo_from_edges` of the matched pairs.
    """
    # Imported here: scipy.sparse takes ~0.4 s to import, which every CLI
    # command and every spawned sweep worker would otherwise pay.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(slots)
    edges = complete_graph_stable_matching(slots)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adjacency = coo_matrix(
        (np.ones(len(edges), dtype=np.int8), (pairs[:, 0] - 1, pairs[:, 1] - 1)),
        shape=(n, n),
    )
    _, labels = connected_components(adjacency, directed=False)
    sizes = sorted(np.bincount(labels).tolist(), reverse=True)
    return ClusterAnalysis(
        n=n,
        edges=len(edges),
        cluster_sizes=sizes,
        mean_cluster_size=float(np.mean(sizes)) if sizes else 0.0,
        largest_cluster=sizes[0] if sizes else 0,
        mean_max_offset=mmo_from_edges(pairs, n) if n else 0.0,
        connected=len(sizes) == 1,
    )


def constant_matching_cluster_size(b0: int) -> int:
    """Cluster size of constant b0-matching on a complete graph: b0 + 1.

    Figure 4's observation: with everyone wanting exactly b0 mates and full
    knowledge, the stable configuration is a sequence of (b0+1)-cliques.
    """
    if b0 < 0:
        raise ValueError("b0 must be non-negative")
    return b0 + 1 if b0 > 0 else 1
