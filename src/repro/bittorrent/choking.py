"""Choking: the Tit-for-Tat unchoke algorithm.

Every rechoke period a BitTorrent peer unchokes the ``regular_slots``
interested neighbors from which it downloaded the most during the last
period (the Tit-for-Tat slots) plus one *optimistic* unchoke chosen at
random, which lets it probe unknown peers -- the paper's "random initiative".
Seeds have nothing to download, so they unchoke the neighbors to which they
can push the most (by convention here: round-robin random).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

__all__ = [
    "UnchokeDecision",
    "ChokingPolicy",
    "TitForTatChoker",
    "SeedChoker",
    "rotate_optimistic",
    "seed_unchoke",
]


def rotate_optimistic(
    optimistic_state: Dict[int, List[int]],
    age_state: Dict[int, int],
    peer_id: int,
    pool: List[int],
    rng: np.random.Generator,
    slots: int,
    period: int,
) -> List[int]:
    """One optimistic-unchoke rotation step for ``peer_id``.

    The peers still in ``pool`` stay unchoked until ``period`` rounds
    have passed.  A slot left empty is refilled from one shuffle of the
    other candidates, and at the period every slot is redrawn from that
    shuffle, so the old peers make way.  State
    lives in the caller-owned ``optimistic_state`` / ``age_state``
    dictionaries, keyed by peer id.  The fast engine's compiled rechoke
    (:func:`repro.bittorrent.fast.kernel.leecher_unchoke`) replays these
    decisions and draws, held to them by the engine equivalence suite.
    """
    if slots == 0 or not pool:
        optimistic_state[peer_id] = []
        return []
    current = [q for q in optimistic_state.get(peer_id, []) if q in pool]
    age = age_state.get(peer_id, 0) + 1
    if len(current) < slots or age >= period:
        candidates = [q for q in pool if q not in current]
        rng.shuffle(candidates)
        if age >= period:
            current = []
            age = 0
        current = (current + candidates)[:slots]
    optimistic_state[peer_id] = current
    age_state[peer_id] = age
    return list(current)


def seed_unchoke(
    interested: Sequence[int], slots: int, rng: np.random.Generator
) -> List[int]:
    """The seed policy: a rotating random subset of the interested peers."""
    pool = list(interested)
    if not pool:
        return []
    rng.shuffle(pool)
    return pool[:slots]


@dataclass
class UnchokeDecision:
    """Outcome of one rechoke: reciprocity-driven slots vs exploratory slots."""

    regular: List[int] = field(default_factory=list)
    optimistic: List[int] = field(default_factory=list)

    @property
    def all(self) -> List[int]:
        """Every unchoked neighbor, regular first."""
        return self.regular + self.optimistic

    def __len__(self) -> int:
        return len(self.regular) + len(self.optimistic)


class ChokingPolicy:
    """Interface for unchoke decisions."""

    def select_unchoked(
        self,
        peer_id: int,
        interested: Sequence[int],
        received: Mapping[int, float],
        rng: np.random.Generator,
    ) -> UnchokeDecision:
        """Return the neighbors to unchoke for the coming period."""
        raise NotImplementedError


@dataclass
class TitForTatChoker(ChokingPolicy):
    """The standard BitTorrent leecher policy.

    Attributes
    ----------
    regular_slots:
        Number of Tit-for-Tat slots (the paper's b0; BitTorrent default 3).
    optimistic_slots:
        Number of optimistic unchoke slots (default 1, making 4 in total).
    optimistic_period:
        How many rechoke rounds an optimistic unchoke is kept before being
        rotated (BitTorrent uses 3 x 10 s; the simulator's rounds are
        rechoke periods, so the default is 3).
    """

    regular_slots: int = 3
    optimistic_slots: int = 1
    optimistic_period: int = 3
    _optimistic: Dict[int, List[int]] = field(default_factory=dict, repr=False)
    _age: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.regular_slots < 0:
            raise ValueError("regular_slots cannot be negative")
        if self.optimistic_slots < 0:
            raise ValueError("optimistic_slots cannot be negative")
        if self.optimistic_period <= 0:
            raise ValueError("optimistic_period must be positive")

    @property
    def total_slots(self) -> int:
        """Regular + optimistic slot count."""
        return self.regular_slots + self.optimistic_slots

    def select_unchoked(
        self,
        peer_id: int,
        interested: Sequence[int],
        received: Mapping[int, float],
        rng: np.random.Generator,
    ) -> UnchokeDecision:
        """Top uploaders fill the TFT slots; the rest compete for optimistic ones."""
        interested = list(interested)
        if not interested:
            return UnchokeDecision()

        # Tit-for-Tat slots: neighbors ranked by what they sent us recently.
        by_contribution = sorted(
            interested, key=lambda q: (-received.get(q, 0.0), q)
        )
        contributors = [q for q in by_contribution if received.get(q, 0.0) > 0.0]
        regular = contributors[: self.regular_slots]

        # Optimistic slots: rotate among the remaining interested neighbors.
        remaining = [q for q in interested if q not in regular]
        optimistic = self._rotate_optimistic(peer_id, remaining, rng)

        # If some TFT slots are unused (nobody uploaded to us), fill them
        # optimistically as well -- this is what bootstraps a cold swarm.
        spare = self.regular_slots - len(regular)
        if spare > 0:
            extra_pool = [q for q in remaining if q not in optimistic]
            rng.shuffle(extra_pool)
            optimistic = optimistic + extra_pool[:spare]

        return UnchokeDecision(regular=regular, optimistic=optimistic)

    def _rotate_optimistic(
        self, peer_id: int, pool: List[int], rng: np.random.Generator
    ) -> List[int]:
        return rotate_optimistic(
            self._optimistic,
            self._age,
            peer_id,
            pool,
            rng,
            self.optimistic_slots,
            self.optimistic_period,
        )


@dataclass
class SeedChoker(ChokingPolicy):
    """Seed policy: unchoke a rotating random subset of interested peers."""

    slots: int = 4

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ValueError("a seed needs at least one unchoke slot")

    def select_unchoked(
        self,
        peer_id: int,
        interested: Sequence[int],
        received: Mapping[int, float],
        rng: np.random.Generator,
    ) -> UnchokeDecision:
        del peer_id, received
        return UnchokeDecision(optimistic=seed_unchoke(interested, self.slots, rng))
