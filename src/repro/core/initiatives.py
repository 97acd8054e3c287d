"""Initiative strategies: the decentralised dynamics of Section 3.

Starting from any configuration, peers take *initiatives*: peer p proposes a
new collaboration to some acceptable peer q.  The initiative is *active*
when (p, q) is a blocking pair -- both then drop their worst mate if needed
and match together.  The paper identifies three scanning strategies:

* **best mate** -- p picks the best available blocking mate (requires full
  knowledge of its neighborhood's state);
* **decremental** -- p circularly scans its acceptance list by decreasing
  rank, starting just after the last peer it asked;
* **random** -- p asks one uniformly random acceptable peer (this is the
  strategy that models BitTorrent's optimistic unchoke probing).

Every strategy converges to the unique stable configuration (Theorem 1);
they differ only in the number of initiatives needed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np

from repro.core.matching import Matching, find_blocking_mate, is_blocking_pair
from repro.core.ranking import GlobalRanking

__all__ = [
    "InitiativeStrategy",
    "BestMateInitiative",
    "DecrementalInitiative",
    "RandomInitiative",
    "STRATEGY_NAMES",
    "make_strategy",
    "apply_initiative",
]


def apply_initiative(
    matching: Matching, ranking: GlobalRanking, peer_id: int, mate_id: int
) -> bool:
    """Execute the active initiative pairing ``peer_id`` with ``mate_id``.

    Both peers drop their worst current mate when they are at capacity, then
    match together.  Returns ``True`` when the configuration changed (the
    pair was indeed blocking), ``False`` otherwise.
    """
    if not is_blocking_pair(matching, ranking, peer_id, mate_id):
        return False
    for endpoint in (peer_id, mate_id):
        if matching.free_slots(endpoint) <= 0:
            worst = ranking.worst_of(matching.mates(endpoint))
            matching.unmatch(endpoint, worst)
    matching.match(peer_id, mate_id)
    return True


class InitiativeStrategy(ABC):
    """How an initiating peer scans its acceptance list for a blocking mate."""

    name: str = "abstract"

    @abstractmethod
    def propose(
        self,
        matching: Matching,
        ranking: GlobalRanking,
        peer_id: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Return the peer that ``peer_id`` proposes to, or ``None``.

        Returning a non-blocking peer is allowed (the initiative is then
        simply inactive); returning ``None`` means the peer proposes to
        nobody this turn.
        """

    def take_initiative(
        self,
        matching: Matching,
        ranking: GlobalRanking,
        peer_id: int,
        rng: np.random.Generator,
    ) -> bool:
        """Run one initiative of ``peer_id``; return whether it was active."""
        target = self.propose(matching, ranking, peer_id, rng)
        if target is None:
            return False
        return apply_initiative(matching, ranking, peer_id, target)


class BestMateInitiative(InitiativeStrategy):
    """Propose to the best available blocking mate (full local knowledge)."""

    name = "best-mate"

    def propose(
        self,
        matching: Matching,
        ranking: GlobalRanking,
        peer_id: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        del rng
        return find_blocking_mate(matching, ranking, peer_id)


class DecrementalInitiative(InitiativeStrategy):
    """Circularly scan the acceptance list starting after the last asked peer.

    The peer knows the rank of its acceptable peers but not whether they
    will accept, so it asks them one at a time; this strategy remembers, per
    peer, where the scan stopped last time.
    """

    name = "decremental"

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def propose(
        self,
        matching: Matching,
        ranking: GlobalRanking,
        peer_id: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        del rng
        candidates = ranking.sorted_by_rank(matching.acceptance.acceptable_peers(peer_id))
        if not candidates:
            return None
        start = self._cursor.get(peer_id, 0) % len(candidates)
        # Ask the next peer in the circular scan; advance the cursor whether
        # or not the proposal succeeds.
        target = candidates[start]
        self._cursor[peer_id] = (start + 1) % len(candidates)
        return target

    def reset(self) -> None:
        """Forget all scan positions."""
        self._cursor.clear()


class RandomInitiative(InitiativeStrategy):
    """Propose to one uniformly random acceptable peer (no prior knowledge).

    This models BitTorrent's optimistic-unchoke probing: the peer discovers
    its neighborhood's quality only by trying.
    """

    name = "random"

    def propose(
        self,
        matching: Matching,
        ranking: GlobalRanking,
        peer_id: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        candidates = sorted(matching.acceptance.acceptable_peers(peer_id))
        if not candidates:
            return None
        return int(rng.choice(candidates))


_STRATEGIES = {
    "best-mate": BestMateInitiative,
    "decremental": DecrementalInitiative,
    "random": RandomInitiative,
}

#: The three strategy names, which both matching engines implement.
STRATEGY_NAMES = tuple(_STRATEGIES)


def make_strategy(name: str) -> InitiativeStrategy:
    """Instantiate a strategy by name (``best-mate``, ``decremental``, ``random``)."""
    if name not in _STRATEGIES:
        raise ValueError(
            f"unknown initiative strategy '{name}'; available: {sorted(_STRATEGIES)}"
        )
    return _STRATEGIES[name]()
