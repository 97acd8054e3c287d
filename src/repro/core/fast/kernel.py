"""Algorithm 1 and its initiatives compiled: the fast matching engine's C kernel.

:func:`stable_table` computes the unique stable configuration in one C
call over the rank-sorted CSR of a
:class:`~repro.core.fast.arrays.PeerArrays`.  Peers are visited best rank
first; each scans its neighborhood best first and takes the worse-ranked
candidates that still have a free slot, until its own budget is spent --
exactly the greedy pass of :func:`repro.core.stable.stable_configuration`.
A better-ranked neighbor already took every pairing it wanted when it was
visited, so only worse-ranked candidates are eligible.  The pass does no
float arithmetic and draws nothing; it is O(E + n b) after the rank sort.

The C function ``initiative`` runs one initiative of the Section 3
process in one call, on a :class:`MatchingState`: a struct of pointers to
the rows of a ``PeerArrays`` and to the mate table, degrees and
acceptance thresholds of a :class:`~repro.core.fast.engine.FastMatching`.
With the target :data:`BEST_MATE` it first scans the initiator's
rank-sorted row for its best blocking mate; with a row index it takes
that row as the target.  Either way, when the pair blocks, each full
endpoint drops its worst mate and the two match, in the order of
:func:`repro.core.initiatives.apply_initiative`.  ``is_blocking`` answers
the blocking-pair query alone on the same predicate.  Both refuse a row
outside ``[0, n)`` before they read any array.

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
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro.sim import native

if TYPE_CHECKING:
    from repro.core.fast.arrays import PeerArrays

__all__ = ["SOURCE", "BEST_MATE", "MatchingState", "load", "stable_table", "matching_state"]

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

/* A configuration on the same CSR (adj_rank[e] = rank[adj[e]]).  Row i's
   mates fill mate[i * width : i * width + deg[i]], and deg[i] <= caps[i]
   <= width.  Row i accepts candidate c iff rank[c] < thr[i]: thr[i] is
   n + 1 while i has a free slot, its worst mate's rank when it is full,
   and 0 for a zero budget. */
typedef struct {
    int64_t n, width;
    const int64_t *rank, *caps, *indptr, *adj, *adj_rank;
    int64_t *mate, *deg, *thr;
} matching_t;

enum { BEST_MATE = -1 };

static int matched(const matching_t *m, int64_t i, int64_t j)
{
    const int64_t *row = m->mate + i * m->width;

    for (int64_t s = 0; s < m->deg[i]; s++)
        if (row[s] == j)
            return 1;
    return 0;
}

static int blocks(const matching_t *m, int64_t i, int64_t j)
{
    return i != j && m->rank[j] < m->thr[i] && m->rank[i] < m->thr[j]
           && !matched(m, i, j);
}

static void refresh_threshold(matching_t *m, int64_t i)
{
    const int64_t *row = m->mate + i * m->width;
    int64_t value = 0;

    if (m->deg[i] < m->caps[i])
        value = m->n + 1;
    else
        for (int64_t s = 0; s < m->deg[i]; s++)
            if (m->rank[row[s]] > value)
                value = m->rank[row[s]];
    m->thr[i] = value;
}

/* Drop b from row a: a's last mate moves into b's slot. */
static void drop_direction(matching_t *m, int64_t a, int64_t b)
{
    int64_t *row = m->mate + a * m->width;
    int64_t last = m->deg[a] - 1, s = 0;

    while (s < last && row[s] != b)
        s++;
    row[s] = row[last];
    row[last] = -1;
    m->deg[a] = last;
}

/* A full row i (deg[i] > 0) breaks with its worst-ranked mate. */
static void drop_worst(matching_t *m, int64_t i)
{
    const int64_t *row = m->mate + i * m->width;
    int64_t worst = row[0];

    for (int64_t s = 1; s < m->deg[i]; s++)
        if (m->rank[row[s]] > m->rank[worst])
            worst = row[s];
    drop_direction(m, i, worst);
    drop_direction(m, worst, i);
    refresh_threshold(m, i);
    refresh_threshold(m, worst);
}

/* One initiative of row i toward row j, or toward i's best blocking mate
   when j is BEST_MATE.  Returns 1 when the configuration changed, 0 when
   it did not, and -1, reading nothing, when i or j is out of range. */
int64_t initiative(matching_t *m, int64_t i, int64_t j)
{
    if (i < 0 || i >= m->n || j < BEST_MATE || j >= m->n)
        return -1;
    if (j == BEST_MATE) {
        /* i's row is sorted best rank first, so the candidates i accepts
           form a prefix of it; the first one that accepts i back and is
           not yet its mate is i's best blocking mate. */
        int64_t threshold = m->thr[i];

        for (int64_t e = m->indptr[i];
             e < m->indptr[i + 1] && m->adj_rank[e] < threshold; e++)
            if (m->rank[i] < m->thr[m->adj[e]] && !matched(m, i, m->adj[e])) {
                j = m->adj[e];
                break;
            }
        if (j == BEST_MATE)
            return 0;
    }
    if (!blocks(m, i, j))
        return 0;
    if (m->deg[i] >= m->caps[i])
        drop_worst(m, i);
    if (m->deg[j] >= m->caps[j])
        drop_worst(m, j);
    m->mate[i * m->width + m->deg[i]++] = j;
    m->mate[j * m->width + m->deg[j]++] = i;
    refresh_threshold(m, i);
    refresh_threshold(m, j);
    return 1;
}

/* Whether rows i and j form a blocking pair (callers pass an acceptance
   edge); -1, reading nothing, when either is out of range. */
int64_t is_blocking(const matching_t *m, int64_t i, int64_t j)
{
    if (i < 0 || i >= m->n || j < 0 || j >= m->n)
        return -1;
    return blocks(m, i, j);
}
"""

# The initiative target that makes the kernel scan for the best blocking mate.
BEST_MATE = -1

_ROWS = ("rank", "caps", "indptr", "adj", "adj_rank")
_CONFIGURATION = ("mate", "deg", "thr")


class MatchingState(ctypes.Structure):
    """The kernel's ``matching_t``: pointers into one configuration's arrays.

    Built by :func:`matching_state`, which keeps a reference to every
    array it points into, so the pointers stay valid as long as the
    struct lives.  The configuration arrays must be written in place:
    rebinding them leaves the struct pointing at the old ones.
    """

    _fields_ = [
        ("n", ctypes.c_int64),
        ("width", ctypes.c_int64),
        *((name, ctypes.c_void_p) for name in _ROWS + _CONFIGURATION),
    ]


_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_STATE = ctypes.POINTER(MatchingState)
# Return and argument types, one row per line of each C prototype above.
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
    "initiative": (ctypes.c_int64, (_STATE, ctypes.c_int64, ctypes.c_int64)),
    "is_blocking": (ctypes.c_int64, (_STATE, ctypes.c_int64, ctypes.c_int64)),
}

_library: Optional[ctypes.CDLL] = None


def load() -> ctypes.CDLL:
    """The compiled kernel, built on the first call in this process."""
    global _library
    if _library is None:
        _library = native.build("the fast matching engine", SOURCE, _SIGNATURES)
    return _library


def _check_neighborhoods(
    rank: np.ndarray, caps: np.ndarray, indptr: np.ndarray, adj: np.ndarray, width: int
) -> None:
    """Shapes, row bounds and budgets of a CSR, before the kernel sees a pointer."""
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
    if n and not 0 <= caps.min() <= caps.max() <= width:
        raise ValueError("a slot budget is negative or exceeds the width of the mate table")


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
    _check_neighborhoods(rank, caps, indptr, adj, width)
    n = rank.shape[0]
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


def matching_state(
    arrays: "PeerArrays", mate: np.ndarray, deg: np.ndarray, thr: np.ndarray
) -> MatchingState:
    """The kernel's state over ``arrays`` and one configuration's arrays.

    ``mate`` is the ``(n, width)`` mate table, ``deg`` and ``thr`` each
    row's degree and acceptance threshold.  Every array must be int64 and
    C-contiguous, and the configuration's writable; shapes, row bounds and
    budgets are checked as for :func:`stable_table`.  The struct keeps a
    reference to each array.
    """
    rows = [getattr(arrays, name) for name in _ROWS]
    configuration = [mate, deg, thr]
    n = arrays.rank.shape[0]
    if any(
        array.dtype != np.int64 or not array.flags.c_contiguous
        for array in rows + configuration
    ) or not all(array.flags.writeable for array in configuration):
        raise TypeError("the kernel needs C-contiguous int64 arrays, the configuration writable")
    if (
        mate.ndim != 2
        or mate.shape[0] != n
        or deg.shape != (n,)
        or thr.shape != (n,)
        or arrays.adj_rank.shape != arrays.adj.shape
    ):
        raise ValueError("array shapes do not match the peers and their neighborhoods")
    _check_neighborhoods(arrays.rank, arrays.caps, arrays.indptr, arrays.adj, mate.shape[1])
    state = MatchingState(
        n, mate.shape[1], *(array.ctypes.data for array in rows + configuration)
    )
    state.arrays = (arrays, mate, deg, thr)
    return state
