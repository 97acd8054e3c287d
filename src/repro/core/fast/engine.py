"""Array-backed configurations: mate table, blocking pairs, Algorithm 1.

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

The best-blocking-mate scan exploits that neighborhoods are stored sorted
by rank: candidates acceptable to the scanning peer form a *prefix* of the
neighborhood (found with one ``searchsorted``), and the first candidate of
that prefix that reciprocates is the best blocking mate.  Work is split by
size: neighborhood-scale scans are vectorized numpy, while the O(b)
per-peer bookkeeping (worst-mate lookup, slot updates, threshold refresh)
runs on plain Python integers -- at b ~ a few slots, avoiding numpy call
overhead on tiny arrays is worth ~3x on the initiative loop.

The module also hosts :func:`fast_stable_table` (Algorithm 1, one call
of the compiled loop in :mod:`repro.core.fast.kernel`) and the
vectorized disorder computation.  Disorder totals are integer
sums of rank offsets, so the fast engine reproduces the reference float
values bit-for-bit (the reference accumulates the same integers in a
float, which is exact below 2**53).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.core.acceptance import AcceptanceGraph
from repro.core.fast import kernel
from repro.core.fast.arrays import PeerArrays
from repro.core.matching import Matching

__all__ = [
    "FastMatching",
    "fast_stable_table",
]

_EMPTY = -1

# Below this many candidates a scalar scan beats the vectorized mask
# (numpy call overhead dominates on tiny slices).
_SCALAR_SCAN_LIMIT = 8


class FastMatching:
    """A b-matching configuration stored as a fixed-width mate table.

    All peers are dense indices into ``arrays``; conversions from/to the
    reference :class:`~repro.core.matching.Matching` exist for
    interoperability and testing.  Mutators assume (and preserve) the
    configuration invariants; unlike the reference class they do not
    re-validate acceptance-graph membership on every call -- candidates
    are always drawn from the CSR neighborhoods.
    """

    def __init__(self, arrays: PeerArrays) -> None:
        self.arrays = arrays
        n = arrays.n
        self.width = max(1, arrays.b_max)
        self.inf_rank = n + 1
        self.mate = np.full((n, self.width), _EMPTY, dtype=np.int64)
        self.deg: List[int] = [0] * n
        # thr is kept twice: as a numpy array for vectorized gathers in the
        # blocking scan, and as a Python list for O(100ns) scalar reads in
        # the per-initiative bookkeeping.  _refresh_thr updates both for
        # one peer, _set_thresholds for all of them.
        self.thr = np.where(arrays.caps > 0, self.inf_rank, 0).astype(np.int64)
        self._thr_list: List[int] = self.thr.tolist()
        self._rank_list: List[int] = arrays.rank.tolist()
        self._caps_list: List[int] = arrays.caps.tolist()
        self._indptr_list: List[int] = arrays.indptr.tolist()

    # -- queries ---------------------------------------------------------------

    def mates_of(self, i: int) -> np.ndarray:
        """Current mates (dense indices) of peer ``i``."""
        return self.mate[i, : self.deg[i]]

    def is_matched(self, i: int, j: int) -> bool:
        """Whether ``i`` and ``j`` are currently matched together."""
        row = self.mate[i]
        for position in range(self.deg[i]):
            if row[position] == j:
                return True
        return False

    def worst_mate(self, i: int) -> int:
        """The worst-ranked current mate of ``i`` (requires deg > 0)."""
        row = self.mate[i]
        rank = self._rank_list
        worst = int(row[0])
        worst_rank = rank[worst]
        for position in range(1, self.deg[i]):
            candidate = int(row[position])
            if rank[candidate] > worst_rank:
                worst, worst_rank = candidate, rank[candidate]
        return worst

    def is_blocking(self, i: int, j: int) -> bool:
        """Whether the acceptance edge (i, j) is a blocking pair.

        Callers must pass an actual acceptance-graph edge; the membership
        test is not repeated here.
        """
        if i == j:
            return False
        rank = self._rank_list
        thr = self._thr_list
        if rank[j] >= thr[i] or rank[i] >= thr[j]:
            return False
        return not self.is_matched(i, j)

    def best_blocking_mate(self, i: int) -> int:
        """Best-ranked blocking mate of ``i``, or ``-1`` when none exists.

        Matches :func:`repro.core.matching.find_blocking_mate` on the full
        acceptance neighborhood.
        """
        thr = self._thr_list
        thr_i = thr[i]
        if thr_i <= 1:
            return _EMPTY
        start = self._indptr_list[i]
        end = self._indptr_list[i + 1]
        if start == end:
            return _EMPTY
        arrays = self.arrays
        # Neighbors are sorted by rank: candidates acceptable to i form a
        # prefix (rank < thr[i]).
        if thr_i == self.inf_rank:
            cutoff = end - start
        else:
            cutoff = int(
                np.searchsorted(arrays.adj_rank[start:end], thr_i, side="left")
            )
            if cutoff == 0:
                return _EMPTY
        rank_i = self._rank_list[i]
        adj = arrays.adj
        if cutoff <= _SCALAR_SCAN_LIMIT:
            for offset in range(cutoff):
                candidate = int(adj[start + offset])
                if rank_i < thr[candidate] and not self.is_matched(i, candidate):
                    return candidate
            return _EMPTY
        candidates = adj[start:start + cutoff]
        mask = self.thr[candidates] > rank_i
        row = self.mate[i]
        for position in range(self.deg[i]):
            mask &= candidates != row[position]
        position = int(mask.argmax())
        if not mask[position]:
            return _EMPTY
        return int(candidates[position])

    # -- mutation --------------------------------------------------------------

    def _refresh_thr(self, i: int) -> None:
        degree = self.deg[i]
        if degree < self._caps_list[i]:
            value = self.inf_rank
        elif degree == 0:
            value = 0
        else:
            row = self.mate[i]
            rank = self._rank_list
            value = rank[int(row[0])]
            for position in range(1, degree):
                candidate_rank = rank[int(row[position])]
                if candidate_rank > value:
                    value = candidate_rank
        self.thr[i] = value
        self._thr_list[i] = value

    def _set_thresholds(self) -> None:
        """Every peer's threshold from the mate table, as ``_refresh_thr`` sets one."""
        mate_ranks = np.where(self.mate >= 0, self.arrays.rank[self.mate], 0)
        self.thr = np.where(
            np.asarray(self.deg) < self.arrays.caps, self.inf_rank, mate_ranks.max(axis=1)
        )
        self._thr_list = self.thr.tolist()

    def _drop_direction(self, a: int, b: int) -> None:
        row = self.mate[a]
        degree = self.deg[a]
        for position in range(degree):
            if row[position] == b:
                row[position] = row[degree - 1]
                row[degree - 1] = _EMPTY
                self.deg[a] = degree - 1
                return
        raise ValueError(f"peers {a} and {b} are not matched")

    def unmatch(self, i: int, j: int) -> None:
        """Break the collaboration between ``i`` and ``j``."""
        self._drop_direction(i, j)
        self._drop_direction(j, i)
        self._refresh_thr(i)
        self._refresh_thr(j)

    def match(self, i: int, j: int) -> None:
        """Match ``i`` and ``j`` together (both must have a free slot)."""
        self.mate[i, self.deg[i]] = j
        self.mate[j, self.deg[j]] = i
        self.deg[i] += 1
        self.deg[j] += 1
        self._refresh_thr(i)
        self._refresh_thr(j)

    def apply_initiative(self, i: int, j: int) -> bool:
        """Execute the initiative pairing ``i`` with ``j``.

        Mirrors :func:`repro.core.initiatives.apply_initiative`: when
        (i, j) blocks, both endpoints drop their worst mate if full, then
        match.  Returns whether the configuration changed.
        """
        if not self.is_blocking(i, j):
            return False
        for endpoint in (i, j):
            if self.deg[endpoint] >= self._caps_list[endpoint]:
                self.unmatch(endpoint, self.worst_mate(endpoint))
        self.match(i, j)
        return True

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
        """Matched pairs as (min_id, max_id) peer-id tuples."""
        ids = self.arrays.ids
        out: List[Tuple[int, int]] = []
        for i in range(self.arrays.n):
            a = int(ids[i])
            for j in self.mate[i, : self.deg[i]]:
                b = int(ids[j])
                if a < b:
                    out.append((a, b))
        return out

    def load_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Reset the configuration to the given peer-id pairs."""
        self.mate.fill(_EMPTY)
        n = self.arrays.n
        self.deg = [0] * n
        index = self.arrays.index_of()
        for a, b in pairs:
            i, j = index[a], index[b]
            self.mate[i, self.deg[i]] = j
            self.mate[j, self.deg[j]] = i
            self.deg[i] += 1
            self.deg[j] += 1
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
            f"pairs={sum(self.deg) // 2})"
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
    matching.mate = mate
    matching.deg = deg.tolist()
    matching._set_thresholds()
    return matching
