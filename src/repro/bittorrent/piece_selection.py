"""Local rarest-first piece selection.

BitTorrent's *local rarest first* policy is what justifies the paper's
post-flash-crowd assumption: after the initial phase, every piece has
roughly the same replication level, so content availability stops shaping
who exchanges with whom and only bandwidth matters.  Rarest-first is the
swarm's one piece policy: :class:`RarestFirstSelector` is the reference
engine's oracle, and the fast engine's compiled transfer loop
(:mod:`repro.bittorrent.fast.kernel`) reproduces its picks draw for draw.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.bittorrent.pieces import Bitfield

__all__ = ["RarestFirstSelector", "piece_availability"]


def piece_availability(bitfields: Iterable[Bitfield], piece_count: int) -> List[int]:
    """Replication level of every piece across the given bitfields."""
    counts = [0] * piece_count
    for bitfield in bitfields:
        for piece in bitfield.held():
            counts[piece] += 1
    return counts


class RarestFirstSelector:
    """Pick the globally rarest piece among the wanted ones (ties random).

    The tie-break pool is built in ascending piece order.  Iterating the
    ``wanted`` set directly would make the ``rng.choice`` outcome depend on
    CPython's set iteration order -- an implementation detail that varies
    across interpreters and that no other engine could reproduce.
    """

    def select(
        self,
        wanted: Set[int],
        availability: Sequence[int],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Pick one piece from ``wanted`` (or None when empty)."""
        if not wanted:
            return None
        ordered = sorted(wanted)
        rarity = min(availability[piece] for piece in ordered)
        rarest = [piece for piece in ordered if availability[piece] == rarity]
        return int(rng.choice(rarest))
