"""One round's planned transfers as columns: the swarm's transfer batch.

The round protocol (:class:`~repro.bittorrent.swarm.SwarmSimulator`) asks
its backend for a plan, filters it through the fault layer, counts its
reciprocated Tit-for-Tat pairs, applies it, gossips along it and shows it
to the observer.  A :class:`TransferBatch` carries the plan through every
one of those steps as four arrays in plan order -- owners ascending, each
owner's unchokes in its decision order, regular slots first -- so no step
builds a Python object per transfer.

This module is the one place that packs pairs.  A pair of non-negative
ids -- pids, or the fast backend's dense rows -- packs into one int64,
``first << PID_SHIFT | second`` (:func:`pair_keys`), and
:func:`split_keys` unpacks it.  While the first id stays at most
``2**31 - 1`` and the second below ``2**32``, packed keys are
non-negative and sort like the ``(first, second)`` tuples they stand
for; :func:`find_keys` looks keys up in a sorted array of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["PID_SHIFT", "TransferBatch", "find_keys", "pair_keys", "split_keys"]

#: Bits of a packed pair key's low half, which holds the second id.
PID_SHIFT = 32
_LOW = (1 << PID_SHIFT) - 1


def pair_keys(first: np.ndarray, second: "np.ndarray | int") -> np.ndarray:
    """The directed pairs ``(first, second)`` as packed int64 keys."""
    return first << PID_SHIFT | second


def split_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(first, second)`` id columns of packed pair keys."""
    return keys >> PID_SHIFT, keys & _LOW


def find_keys(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Each query's index in the sorted ``keys``, -1 where it is absent."""
    at = keys.searchsorted(queries)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == queries[hit]
    return np.where(hit, at, -1)


@dataclass(frozen=True, eq=False)
class TransferBatch:
    """One round's transfers: four columns of one length, in plan order.

    ``senders`` and ``receivers`` are int64 pids, ``kbit`` the float64
    kilobits the sender pushes to the receiver, and ``regular`` (bool) is
    set where the receiver holds one of the sender's regular Tit-for-Tat
    slots.  A directed pair occurs at most once per batch.
    """

    senders: np.ndarray
    receivers: np.ndarray
    kbit: np.ndarray
    regular: np.ndarray

    @classmethod
    def empty(cls) -> "TransferBatch":
        """A batch without transfers."""
        no_pids = np.empty(0, dtype=np.int64)
        return cls(no_pids, no_pids, np.empty(0, dtype=np.float64), np.empty(0, dtype=bool))

    def __len__(self) -> int:
        return int(self.senders.size)

    def keys(self) -> np.ndarray:
        """Each transfer's ``(sender, receiver)`` pair as a packed key."""
        return pair_keys(self.senders, self.receivers)

    def take(self, keep: np.ndarray) -> "TransferBatch":
        """The transfers where the boolean mask ``keep`` is set, in plan order."""
        return TransferBatch(
            self.senders[keep], self.receivers[keep], self.kbit[keep], self.regular[keep]
        )

    def reciprocal_pairs(self) -> np.ndarray:
        """The pairs whose regular slots point at each other, as packed keys.

        Each pair comes once, lower pid first, at the place of the lower
        pid's grant in plan order: by the lower pid, then by that peer's
        slot order.  One intersection of packed keys finds them: a grant
        ``(s, t)`` is reciprocated when ``(t, s)`` is a grant too.
        """
        senders, receivers = self.senders[self.regular], self.receivers[self.regular]
        granted = pair_keys(senders, receivers)
        mutual = (senders < receivers) & np.isin(granted, pair_keys(receivers, senders))
        return granted[mutual]
