"""Loopless symmetric Erdős–Rényi acceptance graphs.

The paper uses G(n, d) graphs where ``d`` is the *expected degree*: each of
the n(n-1)/2 potential edges exists independently with probability
``p = d / (n - 1)`` (Section 3).  We expose both the probability-based and
the expected-degree-based constructors.

For efficiency, edges are generated with a vectorised geometric-skipping
scheme rather than testing every pair, which keeps graph generation fast for
the paper's n = 5000 Monte-Carlo validation runs.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import UndirectedGraph

__all__ = ["erdos_renyi_graph", "expected_degree_to_probability", "erdos_renyi_expected_degree"]


def expected_degree_to_probability(n: int, expected_degree: float) -> float:
    """Convert an expected degree ``d`` to the edge probability ``d/(n-1)``.

    Raises
    ------
    ValueError
        If the resulting probability falls outside [0, 1].
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    probability = expected_degree / (n - 1)
    if not 0.0 <= probability <= 1.0:
        raise ValueError(
            f"expected degree {expected_degree} is infeasible for n={n} "
            f"(probability {probability} outside [0, 1])"
        )
    return probability


def erdos_renyi_graph(
    n: int,
    p: float,
    rng: np.random.Generator,
    *,
    first_id: int = 1,
) -> UndirectedGraph:
    """Sample a loopless symmetric Erdős–Rényi graph G(n, p).

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are labelled ``first_id`` to
        ``first_id + n - 1``; the paper labels peers 1..n where the label is
        also the global rank (1 = best).
    p:
        Independent probability of each edge.
    rng:
        Numpy random generator, normally a named
        :class:`~repro.sim.random_source.RandomSource` stream.
    first_id:
        Label of the first vertex (default 1 to match the paper).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")

    graph = UndirectedGraph(range(first_id, first_id + n))
    if n < 2 or p == 0.0:
        return graph

    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(first_id + u, first_id + v)
        return graph

    # Geometric skipping over the n(n-1)/2 pair indices: the gap between
    # consecutive present edges is geometrically distributed.
    total_pairs = n * (n - 1) // 2
    log_q = np.log1p(-p)
    index = -1
    while True:
        with np.errstate(over="ignore", divide="ignore"):
            ratio = np.log(1.0 - rng.random()) / log_q
        if not np.isfinite(ratio) or ratio >= total_pairs:
            # The skip jumps past every remaining pair (tiny p or unlucky draw).
            break
        index += int(np.floor(ratio)) + 1
        if index >= total_pairs:
            break
        u, v = _pair_from_index(index, n)
        graph.add_edge(first_id + u, first_id + v)
    return graph


def erdos_renyi_expected_degree(
    n: int,
    expected_degree: float,
    rng: np.random.Generator,
    *,
    first_id: int = 1,
) -> UndirectedGraph:
    """Sample G(n, d) where ``d`` is the expected degree (paper notation)."""
    p = expected_degree_to_probability(n, expected_degree)
    return erdos_renyi_graph(n, p, rng, first_id=first_id)


def _pair_from_index(index: int, n: int) -> tuple[int, int]:
    """Map a linear index in [0, n(n-1)/2) to the (u, v) pair it encodes.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    # Row u contains (n - 1 - u) pairs; find the row by solving the
    # triangular-number inequality, then the column within the row.
    # cumulative(u) = u*n - u*(u+1)/2 pairs precede row u.
    u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * index)) // 2)
    # Guard against floating point rounding at row boundaries.
    while u * n - u * (u + 1) // 2 > index:
        u -= 1
    while (u + 1) * n - (u + 1) * (u + 2) // 2 <= index:
        u += 1
    preceding = u * n - u * (u + 1) // 2
    v = u + 1 + (index - preceding)
    return u, v
