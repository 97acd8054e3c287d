"""Peers and peer populations.

A peer (Section 2) is identified by an integer id and carries

* a *mark* ``S(p)`` -- its intrinsic value (upload bandwidth, CPU, storage);
  higher is better, and the paper assumes marks are all distinct;
* a *slot budget* ``b(p)`` -- the maximum number of simultaneous
  collaborations it maintains.

:class:`PeerPopulation` is the container used by the rest of the library:
it owns the peers, exposes the induced global ranking and provides the
samplers used by the variable-b experiments (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.exceptions import ModelError, UnknownPeerError, is_count

__all__ = ["Peer", "PeerPopulation"]


@dataclass(frozen=True)
class Peer:
    """An immutable peer record.

    Attributes
    ----------
    peer_id:
        Unique integer identifier.
    score:
        The global mark S(p); higher is better.
    slots:
        The slot budget b(p); must be >= 0.
    """

    peer_id: int
    score: float
    slots: int

    def __post_init__(self) -> None:
        if self.slots < 0:
            raise ModelError(f"peer {self.peer_id} has negative slot budget {self.slots}")

    def with_slots(self, slots: int) -> "Peer":
        """Return a copy of this peer with a different slot budget."""
        return Peer(self.peer_id, self.score, slots)

    def with_score(self, score: float) -> "Peer":
        """Return a copy of this peer with a different mark."""
        return Peer(self.peer_id, score, self.slots)


class PeerPopulation:
    """A collection of peers with distinct ids.

    The population is mutable (peers can join and leave, as required by the
    churn experiments) and keeps no ordering assumptions: the global ranking
    is always re-derived from the scores via :class:`repro.core.ranking.GlobalRanking`.
    """

    def __init__(self, peers: Optional[Iterable[Peer]] = None) -> None:
        self._peers: Dict[int, Peer] = {}
        if peers is not None:
            for peer in peers:
                self.add(peer)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def ranked(
        cls,
        n: int,
        *,
        slots: int | Sequence[int] = 1,
        first_id: int = 1,
    ) -> "PeerPopulation":
        """Build the paper's canonical population: peers 1..n, rank = id.

        Peer 1 is the best peer; scores are ``n - rank + 1`` so that a lower
        id means a higher score.  ``slots`` may be a single integer applied
        to everyone or a per-peer sequence of length ``n``.
        """
        if not is_count(n) or n < 0:
            raise ModelError(f"n must be a non-negative integer, got {n!r}")
        slot_list = cls._expand_slots(slots, n)
        peers = [
            Peer(first_id + i, float(n - i), slot_list[i])
            for i in range(n)
        ]
        return cls(peers)

    @classmethod
    def from_scores(
        cls,
        scores: Sequence[float],
        *,
        slots: int | Sequence[int] = 1,
        first_id: int = 1,
    ) -> "PeerPopulation":
        """Build a population from explicit scores (ids assigned in order)."""
        slot_list = cls._expand_slots(slots, len(scores))
        peers = [
            Peer(first_id + i, float(score), slot_list[i])
            for i, score in enumerate(scores)
        ]
        return cls(peers)

    @staticmethod
    def _expand_slots(slots: int | Sequence[int], n: int) -> List[int]:
        if isinstance(slots, (int, np.integer)):
            return [int(slots)] * n
        slot_list = [int(s) for s in slots]
        if len(slot_list) != n:
            raise ModelError(
                f"slot sequence has length {len(slot_list)}, expected {n}"
            )
        return slot_list

    # -- container protocol ---------------------------------------------------

    def add(self, peer: Peer) -> None:
        """Add a peer; its id must not already be present."""
        if peer.peer_id in self._peers:
            raise ModelError(f"duplicate peer id {peer.peer_id}")
        self._peers[peer.peer_id] = peer

    def remove(self, peer_id: int) -> Peer:
        """Remove and return the peer with the given id."""
        if peer_id not in self._peers:
            raise UnknownPeerError(f"peer {peer_id} not in population")
        return self._peers.pop(peer_id)

    def replace(self, peer: Peer) -> None:
        """Replace an existing peer record (same id) with a new one."""
        if peer.peer_id not in self._peers:
            raise UnknownPeerError(f"peer {peer.peer_id} not in population")
        self._peers[peer.peer_id] = peer

    def get(self, peer_id: int) -> Peer:
        """Return the peer with the given id."""
        if peer_id not in self._peers:
            raise UnknownPeerError(f"peer {peer_id} not in population")
        return self._peers[peer_id]

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def __iter__(self) -> Iterator[Peer]:
        return iter(self._peers.values())

    # -- views ----------------------------------------------------------------

    def ids(self) -> List[int]:
        """Sorted list of peer ids."""
        return sorted(self._peers)

    def scores(self) -> Dict[int, float]:
        """Mapping peer id -> score."""
        return {peer_id: peer.score for peer_id, peer in self._peers.items()}

    def slots(self) -> Dict[int, int]:
        """Mapping peer id -> slot budget b(p)."""
        return {peer_id: peer.slots for peer_id, peer in self._peers.items()}

    def total_slots(self) -> int:
        """B = sum of all slot budgets (the paper's maximal connection count)."""
        return sum(peer.slots for peer in self._peers.values())

    def next_id(self) -> int:
        """Smallest integer id strictly greater than all current ids."""
        return max(self._peers, default=0) + 1

    def copy(self) -> "PeerPopulation":
        """Shallow copy (peers are immutable, so this is effectively deep)."""
        return PeerPopulation(self._peers.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PeerPopulation(n={len(self._peers)})"
