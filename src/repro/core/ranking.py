"""Global rankings and utility functions.

The paper studies the *global ranking* class of utility functions: every
peer has an intrinsic mark S(p) and every peer prefers partners with a
higher mark.  :class:`GlobalRanking` captures that order;
:class:`UtilityFunction` is the generic interface mentioned in the paper's
framework discussion, with two concrete instances:

* :class:`RankingUtility` -- utility equals the partner's global mark (the
  class analysed throughout the paper).
* :class:`TitForTatUtility` -- utility equals the amount of data recently
  received from the partner (BitTorrent's Tit-for-Tat); in the post
  flash-crowd regime this reduces to the partner's upload-per-slot, i.e. a
  global ranking, which is exactly the reduction Section 6 relies on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.exceptions import ModelError, UnknownPeerError
from repro.core.peer import PeerPopulation

__all__ = ["GlobalRanking", "UtilityFunction", "RankingUtility", "TitForTatUtility"]


class GlobalRanking:
    """A strict total order over peers derived from their marks.

    Rank 1 is the best peer.  Ties in the marks are broken deterministically
    by peer id (the paper assumes distinct marks; the tie-break only exists
    so that the library never silently produces an ill-defined instance).
    """

    def __init__(self, scores: Mapping[int, float]) -> None:
        if not scores:
            raise ModelError("cannot build a ranking over an empty population")
        # Sort by decreasing score, ties broken by increasing peer id.
        ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        self._order: List[int] = [peer_id for peer_id, _ in ordered]
        self._rank: Dict[int, int] = {
            peer_id: position + 1 for position, (peer_id, _) in enumerate(ordered)
        }
        self._scores: Dict[int, float] = dict(scores)

    @classmethod
    def from_population(cls, population: PeerPopulation) -> "GlobalRanking":
        """Build the ranking induced by a population's scores."""
        return cls(population.scores())

    @classmethod
    def identity(cls, ids: Iterable[int]) -> "GlobalRanking":
        """The paper's convention: peer id == rank (id 1 is the best)."""
        ids = list(ids)
        n = len(ids)
        return cls({peer_id: float(n - index) for index, peer_id in enumerate(sorted(ids))})

    # -- queries -------------------------------------------------------------

    def rank(self, peer_id: int) -> int:
        """1-based rank of a peer (1 = best)."""
        if peer_id not in self._rank:
            raise UnknownPeerError(f"peer {peer_id} not in ranking")
        return self._rank[peer_id]

    def ranks(self) -> Mapping[int, int]:
        """Every ranked peer's 1-based rank, by peer id (read-only: do not mutate).

        One lookup per peer, without :meth:`rank`'s membership check: a
        missing id raises :class:`KeyError`.
        """
        return self._rank

    def score(self, peer_id: int) -> float:
        """The mark S(p) used to build this ranking."""
        if peer_id not in self._scores:
            raise UnknownPeerError(f"peer {peer_id} not in ranking")
        return self._scores[peer_id]

    def prefers(self, judge: int, candidate: int, incumbent: int) -> bool:
        """Whether ``judge`` strictly prefers ``candidate`` over ``incumbent``.

        In the global-ranking class the judge's identity is irrelevant: every
        peer prefers better-ranked partners.  The argument is kept so that
        alternative utility functions share the same call signature.
        """
        del judge  # global ranking: preference is judge-independent
        return self.rank(candidate) < self.rank(incumbent)

    def better_of(self, a: int, b: int) -> int:
        """Return whichever of the two peers has the better rank."""
        return a if self.rank(a) < self.rank(b) else b

    def worst_of(self, peers: Iterable[int]) -> int:
        """Return the worst-ranked peer among ``peers`` (must be non-empty)."""
        peers = list(peers)
        if not peers:
            raise ModelError("worst_of() needs at least one peer")
        return max(peers, key=self.rank)

    def best_of(self, peers: Iterable[int]) -> int:
        """Return the best-ranked peer among ``peers`` (must be non-empty)."""
        peers = list(peers)
        if not peers:
            raise ModelError("best_of() needs at least one peer")
        return min(peers, key=self.rank)

    def sorted_by_rank(self, peers: Optional[Iterable[int]] = None) -> List[int]:
        """Peers sorted best-first; defaults to the whole ranking."""
        if peers is None:
            return list(self._order)
        return sorted(peers, key=self.rank)

    def ids(self) -> List[int]:
        """All ranked peer ids, best first."""
        return list(self._order)

    def offset(self, a: int, b: int) -> int:
        """Absolute rank difference between two peers (the paper's 'offset')."""
        return abs(self.rank(a) - self.rank(b))

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._rank

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GlobalRanking(n={len(self._order)})"


class UtilityFunction(ABC):
    """Interface for the utility a peer assigns to a potential partner."""

    @abstractmethod
    def value(self, peer_id: int, partner_id: int) -> float:
        """Utility of ``partner_id`` from the point of view of ``peer_id``."""

    def prefers(self, peer_id: int, candidate: int, incumbent: int) -> bool:
        """Whether ``peer_id`` strictly prefers ``candidate`` to ``incumbent``."""
        return self.value(peer_id, candidate) > self.value(peer_id, incumbent)

    def preference_list(self, peer_id: int, partners: Iterable[int]) -> List[int]:
        """Partners sorted by decreasing utility for ``peer_id``."""
        return sorted(partners, key=lambda q: -self.value(peer_id, q))


class RankingUtility(UtilityFunction):
    """Utility equal to the partner's global mark: the paper's main class."""

    def __init__(self, ranking: GlobalRanking) -> None:
        self.ranking = ranking

    def value(self, peer_id: int, partner_id: int) -> float:
        del peer_id
        return self.ranking.score(partner_id)

    def induces_global_ranking(self) -> bool:
        """Ranking utilities trivially belong to the global-ranking class."""
        return True


class TitForTatUtility(UtilityFunction):
    """Utility equal to the volume recently received from the partner.

    This is BitTorrent's Tit-for-Tat.  When every peer splits its upload
    bandwidth evenly across its slots (the post flash-crowd regime of
    Section 6), the volume received from partner q is ``upload(q) / b(q)``,
    a quantity that depends only on q: the utility collapses to a global
    ranking, which is how the paper connects TFT to its model.
    """

    def __init__(self, received: Mapping[int, Mapping[int, float]]) -> None:
        # received[p][q] = volume p downloaded from q over the last period.
        self._received: Dict[int, Dict[int, float]] = {
            p: dict(q_map) for p, q_map in received.items()
        }

    def value(self, peer_id: int, partner_id: int) -> float:
        return self._received.get(peer_id, {}).get(partner_id, 0.0)

    def record(self, peer_id: int, partner_id: int, volume: float) -> None:
        """Accumulate ``volume`` bytes downloaded by ``peer_id`` from ``partner_id``."""
        if volume < 0:
            raise ModelError("downloaded volume cannot be negative")
        self._received.setdefault(peer_id, {})
        self._received[peer_id][partner_id] = (
            self._received[peer_id].get(partner_id, 0.0) + volume
        )

    def reset(self) -> None:
        """Clear all measurements (start of a new TFT evaluation period)."""
        self._received.clear()

    @classmethod
    def from_upload_per_slot(
        cls, uploads: Mapping[int, float], slots: Mapping[int, int]
    ) -> "GlobalRanking":
        """The Section 6 reduction: TFT ranks peers by upload-per-slot.

        Returns the induced :class:`GlobalRanking` directly, since in this
        regime the utility no longer depends on who is judging.
        """
        scores: Dict[int, float] = {}
        for peer_id, upload in uploads.items():
            slot_count = max(1, int(slots.get(peer_id, 1)))
            scores[peer_id] = float(upload) / slot_count
        return GlobalRanking(scores)
