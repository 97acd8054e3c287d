"""Loopless symmetric Erdős–Rényi acceptance graphs.

The paper uses G(n, d) graphs where ``d`` is the *expected degree*: each of
the n(n-1)/2 potential edges exists independently with probability
``p = d / (n - 1)`` (Section 3).  We expose both the probability-based and
the expected-degree-based constructors.

Edges are sampled by geometric skipping rather than by testing every pair.
The pairs are numbered in lexicographic order, (0,1), (0,2), ..., (0,n-1),
(1,2), ..., and the number of absent pairs before the next present one is
``floor(log(1 - u) / log(1 - p))`` for a uniform ``u``.  The uniforms are
drawn in chunks of bounded size; the skips are summed into pair indices,
decoded to pairs and gathered into neighbor lists on arrays, so the only
Python-level loop left is the one that makes each vertex's set.

Stream contract: a sample consumes one uniform per present edge plus the one
whose skip ends the scan, and leaves ``rng`` exactly where drawing those
uniforms one at a time would leave it, so callers can keep drawing from the
same stream.  ``p == 0``, ``p == 1`` and ``n < 2`` draw nothing.  Every
vertex's neighbor set is filled in ascending order.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.graphs.base import UndirectedGraph

__all__ = ["erdos_renyi_graph", "expected_degree_to_probability", "erdos_renyi_expected_degree"]

#: Most uniforms drawn at once; bounds the sampler's temporaries at any n.
_CHUNK = 1 << 18


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

    labels = list(range(first_id, first_id + n))
    if n < 2 or p == 0.0:
        return UndirectedGraph(labels)
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        indices = np.arange(total_pairs, dtype=np.int64)
    else:
        indices = _sample_pair_indices(total_pairs, p, rng)
    rows, cols = _pairs_from_indices(indices, n)

    # Every edge seen from both ends, sorted by (vertex, neighbor): each
    # vertex's neighbors form one ascending run, the order in which adding
    # the edges by pair index would insert them.
    keys = np.concatenate((rows * n + cols, cols * n + rows))
    keys.sort()
    ends = np.cumsum(np.bincount(keys // n, minlength=n)).tolist()
    # Gather the label objects themselves: every set shares the n labels
    # instead of holding an int object per edge end.
    neighbors = np.array(labels, dtype=object)[keys % n]
    starts = [0] + ends[:-1]
    return UndirectedGraph.from_neighbor_lists(
        labels, (neighbors[start:end].tolist() for start, end in zip(starts, ends))
    )


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


def _sample_pair_indices(total_pairs: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending indices of the present pairs, by geometric skipping, for 0 < p < 1.

    The scan ends at the first uniform whose skip is not finite, reaches
    ``total_pairs`` on its own, or carries the index past the last pair.
    Each chunk's generator state is kept so that the chunk holding that
    uniform can be redrawn up to it and no further.
    """
    log_q = np.log1p(-p)
    bit_generator = rng.bit_generator
    found: List[np.ndarray] = []
    last = -1
    while True:
        # The edges still expected plus four Poisson standard deviations:
        # one chunk almost always ends the scan, and few uniforms go unused.
        expected = p * (total_pairs - 1 - last)
        size = min(_CHUNK, int(expected + 4.0 * math.sqrt(expected)) + 16)
        state = bit_generator.state
        uniforms = rng.random(size)
        with np.errstate(over="ignore", divide="ignore"):
            ratios = np.log(1.0 - uniforms) / log_q
        usable = np.isfinite(ratios) & (ratios < total_pairs)
        end = size if usable.all() else int(usable.argmin())
        indices = last + np.cumsum(np.floor(ratios[:end]).astype(np.int64) + 1)
        # Each step is at most total_pairs, so the first index past the last
        # pair comes before the sum could overflow int64.
        past = indices >= total_pairs
        stop = int(past.argmax()) if past.any() else end
        found.append(indices[:stop])
        if stop < size:
            bit_generator.state = state
            rng.random(stop + 1)
            return np.concatenate(found)
        last = int(indices[-1])


def _pairs_from_indices(indices: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Map linear indices in [0, n(n-1)/2) to the (u, v) pairs they encode.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    Row ``u`` holds the ``n - 1 - u`` pairs (u, v > u), and
    ``u*n - u*(u+1)/2`` pairs precede it.
    """
    # Solve the triangular-number inequality in floating point, then move
    # any row that rounding put on the wrong side of a boundary.
    rows = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * indices)) // 2).astype(np.int64)
    while True:
        early = _row_start(rows, n) > indices
        if not early.any():
            break
        rows[early] -= 1
    while True:
        late = _row_start(rows + 1, n) <= indices
        if not late.any():
            break
        rows[late] += 1
    cols = rows + 1 + (indices - _row_start(rows, n))
    return rows, cols


def _row_start(rows: np.ndarray, n: int) -> np.ndarray:
    """Index of the first pair in each row: ``u*n - u*(u+1)/2``."""
    return rows * n - rows * (rows + 1) // 2
