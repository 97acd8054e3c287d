"""Algorithm 1 compiled: the fast matching engine's C kernel.

:func:`stable_table` computes the unique stable configuration in one C
call over the rank-sorted CSR of a
:class:`~repro.core.fast.arrays.PeerArrays`.  Peers are visited best rank
first; each scans its neighborhood best first and takes the worse-ranked
candidates that still have a free slot, until its own budget is spent --
exactly the greedy pass of :func:`repro.core.stable.stable_configuration`.
A better-ranked neighbor already took every pairing it wanted when it was
visited, so only worse-ranked candidates are eligible.  The pass does no
float arithmetic and draws nothing; it is O(E + n b) after the rank sort.

The C source is the :data:`SOURCE` constant of this module, so
:func:`repro.sim.parallel.source_fingerprint` (which hashes ``*.py``)
sees every change to it.  :func:`load` compiles it once per process
through :func:`repro.sim.native.build`, the loader the fast swarm's
kernel (:mod:`repro.bittorrent.fast.kernel`) shares.  Without a working
compiler the fast matching engine cannot run:
:class:`~repro.sim.native.KernelBuildError` names the engine, the command
and its stderr.  ``engine="reference"`` needs no compiler and gives the
same configurations.
"""

from __future__ import annotations

import ctypes
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.sim import native

__all__ = ["SOURCE", "load", "stable_table"]

SOURCE = r"""
#include <stdint.h>

/* Algorithm 1 on a CSR whose row i, adj[indptr[i]:indptr[i + 1]], lists
   i's neighbors best rank first.  order lists the rows best rank first.
   remaining starts as each row's slot budget; mate (n x width) starts all
   -1 and deg all 0.  A row only ever takes a worse-ranked neighbor with a
   slot left, so no row exceeds its budget, whatever the arrays hold. */
void stable_table(int64_t n, int64_t width, const int64_t *order,
                  const int64_t *rank, const int64_t *indptr,
                  const int64_t *adj, int64_t *remaining,
                  int64_t *mate, int64_t *deg)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t i = order[k], budget = remaining[i];

        for (int64_t e = indptr[i]; e < indptr[i + 1] && budget > 0; e++) {
            int64_t c = adj[e];

            if (rank[c] <= rank[i] || remaining[c] <= 0)
                continue;
            mate[i * width + deg[i]++] = c;
            mate[c * width + deg[c]++] = i;
            remaining[c]--;
            budget--;
        }
        remaining[i] = budget;
    }
}
"""

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
# Return and argument types, one row per line of the C prototype above.
_SIGNATURES: Dict[str, Tuple[Any, Tuple[Any, ...]]] = {
    "stable_table": (
        None,
        (
            ctypes.c_int64, ctypes.c_int64, _I64,
            _I64, _I64,
            _I64, _I64,
            _I64, _I64,
        ),
    ),
}

_library: Optional[ctypes.CDLL] = None


def load() -> ctypes.CDLL:
    """The compiled kernel, built on the first call in this process."""
    global _library
    if _library is None:
        _library = native.build("the fast matching engine", SOURCE, _SIGNATURES)
    return _library


def stable_table(
    rank: np.ndarray,
    caps: np.ndarray,
    indptr: np.ndarray,
    adj: np.ndarray,
    width: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 in one call; returns the ``(n, width)`` mate table and each row's degree.

    Row ``i`` has rank ``rank[i]`` (distinct ranks, 1 = best), budget
    ``caps[i]`` and neighbors ``adj[indptr[i]:indptr[i + 1]]`` sorted best
    rank first.  Empty slots of the mate table are ``-1``.  Shapes, row
    bounds and budgets are checked here, dtypes and C-contiguity by the
    declared argument types, before the kernel sees a pointer.
    """
    n = rank.shape[0]
    if caps.shape != (n,) or indptr.shape != (n + 1,) or adj.ndim != 1:
        raise ValueError("array shapes do not match the peers and their neighborhoods")
    if not (
        indptr[0] == 0
        and indptr[-1] == adj.shape[0]
        and (np.diff(indptr) >= 0).all()
        and (adj.size == 0 or (adj.min() >= 0 and adj.max() < n))
    ):
        raise IndexError("a neighborhood lies outside the arrays")
    if n and caps.max() > width:
        raise ValueError("a slot budget exceeds the width of the mate table")
    mate = np.full((n, width), -1, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    load().stable_table(
        n,
        width,
        np.argsort(rank, kind="stable"),
        rank,
        indptr,
        adj,
        caps.copy(),
        mate,
        deg,
    )
    return mate, deg
