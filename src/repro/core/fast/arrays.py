"""CSR-style array snapshot of an acceptance graph.

:class:`PeerArrays` freezes a :class:`repro.core.acceptance.AcceptanceGraph`
(and the global ranking of its population) into dense integer arrays.  The
snapshot is immutable: the churn pipeline rebuilds it after every
population change, which keeps the hot initiative loop free of any
dictionary access.  A build works on whole arrays: one pass reads every
neighbor set, one every rank and one every slot budget (a mapping lookup
per peer, no checked call), one lookup table maps peer ids to
rows, and one sort orders all neighborhoods by rank and one by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Mapping, Optional

import numpy as np

from repro.core.acceptance import AcceptanceGraph
from repro.core.exceptions import UnknownPeerError
from repro.core.ranking import GlobalRanking

__all__ = ["PeerArrays"]


def _sort_rows(values: np.ndarray, degrees: np.ndarray, bound: int) -> np.ndarray:
    """Sort every CSR row of ``values`` (all in ``[0, bound)``) in place, in one sort.

    Row ``r`` is offset by ``r * bound``, so one sort of the whole array
    keeps the rows apart and orders each.
    """
    offsets = np.repeat(np.arange(degrees.size, dtype=np.int64) * bound, degrees)
    values += offsets
    values.sort()
    values -= offsets
    return values


def _column(table: Mapping[int, int], peer_ids: List[int], holder: str) -> np.ndarray:
    """``table[pid]`` for every id, one mapping lookup each; a missing id is named."""
    try:
        return np.fromiter(map(table.__getitem__, peer_ids), dtype=np.int64, count=len(peer_ids))
    except KeyError as missing:
        raise UnknownPeerError(f"peer {missing.args[0]} not in {holder}") from None


@dataclass(frozen=True)
class PeerArrays:
    """Immutable array view of an acceptance graph and its global ranking.

    Peers are densely indexed ``0..n-1`` in increasing peer-id order (the
    same order as ``AcceptanceGraph.peer_ids()``, so drawing a uniform
    index reproduces the reference simulators' uniform peer choice).

    Attributes
    ----------
    ids:
        ``(n,)`` sorted peer ids; ``ids[i]`` is the id of index ``i``.
    rank:
        ``(n,)`` 1-based global rank of each index (1 = best peer).
    caps:
        ``(n,)`` slot budgets b(p).
    indptr:
        ``(n + 1,)`` CSR row pointers into the adjacency arrays.
    adj:
        ``(2m,)`` neighbor indices; the slice of peer ``i`` is sorted by
        increasing rank (best candidate first -- preference order).
    adj_rank:
        ``(2m,)`` precomputed ``rank[adj]`` (saves one gather per scan).
    adj_by_id:
        ``(2m,)`` the same neighborhoods sorted by increasing peer id,
        matching the candidate order the reference random strategy feeds
        to ``rng.choice``.
    adj_ids:
        ``(2m,)`` peer ids aligned with ``adj_by_id``.
    ranking:
        The :class:`GlobalRanking` the ranks were derived from.
    """

    ids: np.ndarray
    rank: np.ndarray
    caps: np.ndarray
    indptr: np.ndarray
    adj: np.ndarray
    adj_rank: np.ndarray
    adj_by_id: np.ndarray
    adj_ids: np.ndarray
    ranking: GlobalRanking

    @property
    def n(self) -> int:
        """Number of peers."""
        return int(self.ids.size)

    @property
    def b_max(self) -> int:
        """Largest slot budget (width of the mate table)."""
        return int(self.caps.max()) if self.caps.size else 0

    def neighborhood(self, i: int) -> np.ndarray:
        """Neighbor indices of ``i``, best-ranked first."""
        return self.adj[self.indptr[i]:self.indptr[i + 1]]

    @classmethod
    def build(
        cls,
        acceptance: AcceptanceGraph,
        ranking: Optional[GlobalRanking] = None,
    ) -> "PeerArrays":
        """Snapshot ``acceptance`` (and its ranking) into dense arrays.

        The id-to-index table spans the id range, so its size is the
        largest peer id minus the smallest; every population here numbers
        its peers densely (churn gives a joining peer the next id).
        """
        if ranking is None:
            ranking = GlobalRanking.from_population(acceptance.population)
        peer_ids = acceptance.peer_ids()
        ids = np.asarray(peer_ids, dtype=np.int64)
        n = int(ids.size)
        rank = _column(ranking.ranks(), peer_ids, "ranking")
        caps = _column(acceptance.population.slots(), peer_ids, "population")

        neighbor_sets = list(map(acceptance.graph.neighbors, peer_ids))
        degrees = np.fromiter(map(len, neighbor_sets), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        neighbors = np.fromiter(
            chain.from_iterable(neighbor_sets), dtype=np.int64, count=int(indptr[-1])
        )
        # One table over the id range maps id -> dense index (ids is sorted).
        low, high = (int(ids[0]), int(ids[-1])) if n else (0, -1)
        index = np.zeros(high - low + 1, dtype=np.int64)
        index[ids - low] = np.arange(n)
        neighbors -= low
        np.take(index, neighbors, out=neighbors)

        # Ranks are distinct, so sorting the rows by rank and reading each
        # rank back names the neighbor.
        row_of_rank = np.zeros(int(rank.max(initial=0)) + 1, dtype=np.int64)
        row_of_rank[rank] = np.arange(n)
        adj_rank = _sort_rows(rank[neighbors], degrees, row_of_rank.size)
        adj = row_of_rank[adj_rank]
        adj_by_id = _sort_rows(neighbors, degrees, n)
        adj_ids = ids[adj_by_id]

        for array in (ids, rank, caps, indptr, adj, adj_rank, adj_by_id, adj_ids):
            array.setflags(write=False)
        return cls(
            ids=ids,
            rank=rank,
            caps=caps,
            indptr=indptr,
            adj=adj,
            adj_rank=adj_rank,
            adj_by_id=adj_by_id,
            adj_ids=adj_ids,
            ranking=ranking,
        )
