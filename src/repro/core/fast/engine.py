"""Array-backed configurations: mate table, initiatives, Algorithm 1.

:class:`FastMatching` is the vectorized counterpart of
:class:`repro.core.matching.Matching`.  The configuration lives in a fixed
width ``(n, b_max)`` mate table (dense peer indices, ``-1`` = empty slot)
plus two ``(n,)`` vectors:

* ``deg`` -- how many slots of each row are filled;
* ``thr`` -- the *acceptance threshold*: peer ``i`` would take candidate
  ``c`` as a new mate iff ``rank[c] < thr[i]``.  A peer with a free slot
  has ``thr = n + 1`` (accepts anyone, since ranks are <= n); a full peer
  has ``thr`` equal to its worst mate's rank; a zero-capacity peer has
  ``thr = 0``.

This turns the reference predicates into integer comparisons:
``(p, q)`` is a blocking pair iff they are acceptance neighbors, not
matched together, and ``rank[q] < thr[p] and rank[p] < thr[q]`` -- exactly
:func:`repro.core.matching.is_blocking_pair` restated on arrays.

Each initiative is one call of the compiled kernel
(:mod:`repro.core.fast.kernel`) on the three arrays in place: the
best-blocking-mate scan exploits that neighborhoods are stored sorted by
rank, so the candidates acceptable to the scanning peer form a *prefix*
of its row, and the first candidate of that prefix that reciprocates and
is not yet a mate is the best blocking mate; the worst-mate drops, the
slot updates and the threshold refreshes follow in the same call.

The module also hosts :func:`fast_stable_table` (Algorithm 1, one call
of the compiled loop in :mod:`repro.core.fast.kernel`) and the
vectorized disorder computation.  Disorder totals are integer
sums of rank offsets, so the fast engine reproduces the reference float
values bit-for-bit (the reference accumulates the same integers in a
float, which is exact below 2**53).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.acceptance import AcceptanceGraph
from repro.core.exceptions import UnknownPeerError
from repro.core.fast import kernel
from repro.core.fast.arrays import PeerArrays
from repro.core.matching import Matching

__all__ = [
    "FastMatching",
    "fast_stable_table",
]

_EMPTY = -1


class FastMatching:
    """A b-matching configuration stored as a fixed-width mate table.

    All peers are dense indices into ``arrays``; conversions from/to the
    reference :class:`~repro.core.matching.Matching` exist for
    interoperability and testing.  ``mate``, ``deg`` and ``thr`` are
    allocated once and only ever written in place, because the kernel's
    :class:`~repro.core.fast.kernel.MatchingState` holds their addresses.
    Unlike the reference class, an initiative does not re-validate
    acceptance-graph membership -- candidates are always drawn from the
    CSR neighborhoods.
    """

    def __init__(self, arrays: PeerArrays) -> None:
        self.arrays = arrays
        n = arrays.n
        self.width = max(1, arrays.b_max)
        self.inf_rank = n + 1
        self.mate = np.full((n, self.width), _EMPTY, dtype=np.int64)
        self.deg = np.zeros(n, dtype=np.int64)
        self.thr = np.where(arrays.caps > 0, self.inf_rank, 0).astype(np.int64)
        self._state = kernel.matching_state(arrays, self.mate, self.deg, self.thr)
        self._initiative = kernel.load().initiative

    # -- queries ---------------------------------------------------------------

    def mates_of(self, i: int) -> np.ndarray:
        """Current mates (dense indices) of peer ``i``."""
        return self.mate[i, : self.deg[i]]

    def is_blocking(self, i: int, j: int) -> bool:
        """Whether the acceptance edge (i, j) is a blocking pair.

        Callers must pass an actual acceptance-graph edge; the membership
        test is not repeated here.
        """
        blocking = kernel.load().is_blocking(self._state, i, j)
        if blocking < 0:
            raise IndexError(f"peer index {i} or {j} outside [0, {self.arrays.n})")
        return blocking == 1

    # -- mutation --------------------------------------------------------------

    def initiative(self, i: int, j: int = kernel.BEST_MATE) -> bool:
        """Run peer ``i``'s initiative toward ``j``, in one kernel call.

        ``j`` is a neighbor of ``i``, or :data:`~repro.core.fast.kernel.BEST_MATE`
        for ``i``'s best blocking mate (:func:`repro.core.matching.find_blocking_mate`
        on arrays).  Mirrors :func:`repro.core.initiatives.apply_initiative`:
        when (i, j) blocks, both endpoints drop their worst mate if full,
        then match.  Returns whether the configuration changed.
        """
        active = self._initiative(self._state, i, j)
        if active < 0:
            raise IndexError(f"peer index {i} or target {j} outside [0, {self.arrays.n})")
        return active == 1

    def _set_thresholds(self) -> None:
        """Every peer's threshold from the mate table, in place."""
        mate_ranks = np.where(self.mate >= 0, self.arrays.rank[self.mate], 0)
        self.thr[:] = np.where(
            self.deg < self.arrays.caps, self.inf_rank, mate_ranks.max(axis=1)
        )

    # -- disorder and comparisons ----------------------------------------------

    def sorted_rank_table(self) -> np.ndarray:
        """Per-peer mate ranks sorted ascending, empty slots = ``n + 1``.

        Slots beyond a peer's capacity are also ``n + 1``; they cancel out
        when two tables over the same population are compared, so the
        integer distance below equals the reference
        :func:`repro.core.metrics.matching_distance` numerator.
        """
        table = np.where(
            self.mate >= 0, self.arrays.rank[self.mate], self.inf_rank
        )
        table.sort(axis=1)
        return table

    def disorder_int(self, stable_sorted: np.ndarray) -> int:
        """Integer disorder numerator against a precomputed sorted table."""
        return int(np.abs(self.sorted_rank_table() - stable_sorted).sum())

    def disorder(self, stable_sorted: np.ndarray) -> float:
        """The paper's disorder D, identical to the reference float value."""
        n = self.arrays.n
        if n == 0:
            return 0.0
        return self.disorder_int(stable_sorted) * 2.0 / (n * (n + 1))

    # -- conversions -----------------------------------------------------------

    def pairs(self) -> List[Tuple[int, int]]:
        """Matched pairs as (min_id, max_id) peer-id tuples, row by row in slot order."""
        ids = self.arrays.ids
        filled = np.arange(self.width) < self.deg[:, None]
        low = ids[np.nonzero(filled)[0]]
        high = ids[self.mate[filled]]
        keep = low < high
        return list(zip(low[keep].tolist(), high[keep].tolist()))

    def load_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Reset the configuration to the given peer-id pairs.

        Each row's mates take its slots in the order the pairs name them.
        An id that is not a peer raises :class:`UnknownPeerError`, and a
        peer named more often than its slot budget raises ``ValueError``.
        """
        ids = self.arrays.ids
        # Both endpoints of each pair, interleaved, and each one's partner.
        ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64)
        rows = np.searchsorted(ids, ends)
        known = rows < ids.size
        known[known] = ids[rows[known]] == ends[known]
        if not known.all():
            raise UnknownPeerError(f"peer {ends[~known][0]} is not one of the arrays' peers")
        partners = rows.reshape(-1, 2)[:, ::-1].ravel()
        counts = np.bincount(rows, minlength=self.arrays.n)
        over = counts > self.arrays.caps
        if over.any():
            raise ValueError(f"peer {ids[over.argmax()]} is given more mates than its slots")
        # A stable sort by row keeps each row's mates in the order named.
        order = np.argsort(rows, kind="stable")
        by_row = rows[order]
        slots = np.arange(by_row.size) - (np.cumsum(counts) - counts)[by_row]
        self.mate.fill(_EMPTY)
        self.mate[by_row, slots] = partners[order]
        self.deg[:] = counts
        self._set_thresholds()

    def load_matching(self, matching: Matching) -> None:
        """Reset the configuration to mirror a reference ``Matching``."""
        self.load_pairs(matching.pairs())

    def to_matching(self, acceptance: AcceptanceGraph) -> Matching:
        """Convert to a reference ``Matching`` (with full validation)."""
        return Matching.from_pairs(acceptance, self.pairs())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FastMatching(peers={self.arrays.n}, "
            f"pairs={int(self.deg.sum()) // 2})"
        )


def fast_stable_table(arrays: PeerArrays) -> FastMatching:
    """Algorithm 1 on arrays: the unique stable configuration.

    One call of the compiled greedy pass
    (:func:`repro.core.fast.kernel.stable_table`) over the rank-sorted
    CSR, then every threshold in one vectorized pass.  It equals
    :func:`repro.core.stable.stable_configuration` (asserted by the
    equivalence tests).
    """
    matching = FastMatching(arrays)
    mate, deg = kernel.stable_table(
        arrays.rank, arrays.caps, arrays.indptr, arrays.adj, matching.width
    )
    matching.mate[:] = mate
    matching.deg[:] = deg
    matching._set_thresholds()
    return matching
