"""Additional acceptance-graph generators used for ablations.

The paper's acceptance graphs are complete (Section 4) or Erdős–Rényi
(Sections 3, 5).  Real overlays are often closer to regular or small-world
graphs, so we also provide a random-regular generator and a ring lattice,
used by the ablation benchmarks to check that stratification survives on
other topologies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.base import UndirectedGraph

__all__ = ["random_regular_graph", "ring_lattice", "configuration_model_graph"]


def ring_lattice(n: int, k: int, *, first_id: int = 1) -> UndirectedGraph:
    """Ring lattice: each vertex is connected to its ``k`` nearest neighbors.

    ``k`` must be even (k/2 neighbors on each side) and smaller than ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if k < 0 or k >= n:
        raise ValueError("k must satisfy 0 <= k < n")
    if k % 2 != 0:
        raise ValueError("k must be even for a ring lattice")
    graph = UndirectedGraph(range(first_id, first_id + n))
    half = k // 2
    for i in range(n):
        for offset in range(1, half + 1):
            j = (i + offset) % n
            graph.add_edge(first_id + i, first_id + j)
    return graph


def random_regular_graph(
    n: int,
    degree: int,
    rng: np.random.Generator,
    *,
    first_id: int = 1,
    max_attempts: int = 200,
) -> UndirectedGraph:
    """Sample a random ``degree``-regular graph by pairing half-edges.

    Uses repeated attempts of the pairing (configuration) model, rejecting
    pairings that would create loops or multi-edges; this is exact for the
    regular case and fast for the moderate degrees used in this library.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if degree < 0 or degree >= n:
        raise ValueError("degree must satisfy 0 <= degree < n")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even")
    if degree == 0:
        return UndirectedGraph(range(first_id, first_id + n))

    for _ in range(max_attempts):
        graph = _attempt_regular_pairing(n, degree, rng, first_id)
        if graph is not None:
            return graph
    raise RuntimeError(
        f"failed to sample a simple {degree}-regular graph on {n} vertices "
        f"after {max_attempts} attempts"
    )


def _attempt_regular_pairing(
    n: int, degree: int, rng: np.random.Generator, first_id: int
) -> Optional[UndirectedGraph]:
    stubs = np.repeat(np.arange(n), degree)
    rng.shuffle(stubs)
    graph = UndirectedGraph(range(first_id, first_id + n))
    for i in range(0, len(stubs), 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u == v or graph.has_edge(first_id + u, first_id + v):
            return None
        graph.add_edge(first_id + u, first_id + v)
    return graph


def configuration_model_graph(
    degrees: list[int],
    rng: np.random.Generator,
    *,
    first_id: int = 1,
    max_attempts: int = 500,
) -> UndirectedGraph:
    """Sample a simple graph with (approximately) the given degree sequence.

    Repeatedly tries the pairing model and rejects non-simple outcomes.  The
    degree sequence must have an even sum.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    if sum(degrees) % 2 != 0:
        raise ValueError("the degree sequence must have an even sum")
    n = len(degrees)
    for _ in range(max_attempts):
        stubs = np.repeat(np.arange(n), degrees)
        rng.shuffle(stubs)
        graph = UndirectedGraph(range(first_id, first_id + n))
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v or graph.has_edge(first_id + u, first_id + v):
                ok = False
                break
            graph.add_edge(first_id + u, first_id + v)
        if ok:
            return graph
    raise RuntimeError(
        "failed to sample a simple graph with the requested degree sequence"
    )
