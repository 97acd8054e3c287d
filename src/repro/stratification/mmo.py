"""Mean Max Offset: closed forms and empirical computation (Section 4.2).

The MMO measures how far, in ranking terms, a peer's furthest collaborator
is.  Larger MMO means fewer hops are needed to connect peers of very
different intrinsic value; the paper shows the variable-b phase transition
*increases* cluster size while *decreasing* MMO, which is the quantitative
face of stratification.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.core.metrics import mean_max_offset as matching_mean_max_offset
from repro.core.metrics import mean_max_offset_exact_constant

__all__ = [
    "mmo_constant_matching",
    "mmo_constant_matching_limit",
    "mmo_from_edges",
    "matching_mean_max_offset",
    "mean_max_offset_exact_constant",
]


def mmo_constant_matching(b0: int) -> float:
    """Exact MMO of constant b0-matching on a complete acceptance graph.

    Identical to :func:`repro.core.metrics.mean_max_offset_exact_constant`;
    re-exported here so the stratification API is self-contained.
    """
    return mean_max_offset_exact_constant(b0)


def mmo_constant_matching_limit(b0: int) -> float:
    """The paper's asymptotic expression ``3/4 * b0``."""
    if b0 < 0:
        raise ValueError("b0 must be non-negative")
    return 0.75 * b0


def mmo_from_edges(edges: Union[Sequence[Tuple[int, int]], np.ndarray], n: int) -> float:
    """Empirical MMO of a collaboration graph given as rank-labelled edges.

    Parameters
    ----------
    edges:
        Collaboration pairs given as 1-based rank tuples (or an ``(m, 2)``
        integer array of them).
    n:
        Total number of peers (unmatched peers are excluded from the mean,
        as in the complete-graph analysis where every peer is matched).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    pairs = np.asarray(edges)
    if pairs.size and pairs.dtype.kind not in "iu":
        raise ValueError("edge ranks must be integers")
    pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
    outside = ((pairs < 1) | (pairs > n)).any(axis=1)
    if outside.any():
        a, b = pairs[np.argmax(outside)]
        raise ValueError(f"edge ({a}, {b}) references ranks outside 1..{n}")
    offsets = np.abs(pairs[:, 0] - pairs[:, 1])
    max_offset = np.zeros(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    for ranks in pairs.T:
        np.maximum.at(max_offset, ranks - 1, offsets)
        matched[ranks - 1] = True
    if not matched.any():
        return 0.0
    return float(max_offset[matched].mean())
