"""Batched Tit-for-Tat rechoke for the fast swarm engine.

The regular (reciprocity) slots of *every* leecher are computed in one
vectorized pass: all "q sent something to p last round and q is interested
in p" edges are ranked with a single :func:`numpy.lexsort` by
``(peer, -volume, partner id)`` -- exactly the reference
:class:`~repro.bittorrent.choking.TitForTatChoker` ordering -- and each
peer takes the head of its segment.

The rest of a leecher's rechoke -- the optimistic rotation and the
spare-slot fill -- consumes the shared random stream one shuffle at a
time, in peer-row order, and depends on per-peer rotation state.
:class:`FastChokerState` keeps that state as arrays and hands a whole run
of consecutive leechers to the compiled kernel
(:func:`repro.bittorrent.fast.kernel.leecher_unchoke`), which replays
numpy's shuffle draws and the reference's decisions owner by owner.  The
seed policy is the reference's own :func:`~repro.bittorrent.choking.seed_unchoke`.
Equivalence is enforced by ``tests/test_swarm_engine_equivalence.py``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.bittorrent.choking import seed_unchoke
from repro.bittorrent.fast import kernel

__all__ = ["batched_regular_slots", "FastChokerState"]


def batched_regular_slots(
    edge_peer: np.ndarray,
    edge_partner_id: np.ndarray,
    received_edge: np.ndarray,
    interested_edge: np.ndarray,
    regular_slots: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-peer Tit-for-Tat slots from last round's received volumes.

    Parameters
    ----------
    edge_peer:
        Dense peer index owning each directed edge (CSR expansion).
    edge_partner_id:
        Peer *id* of the edge's partner (the unchoke candidate).
    received_edge:
        Kilobits the owning peer received from the partner last round.
    interested_edge:
        Whether the partner is an eligible unchoke target this round
        (non-seed and interested in the owner's content).
    regular_slots:
        The paper's b0 -- slots granted per peer.

    Returns
    -------
    ``(peers, partner_ids)``: one entry per granted slot, peers ascending
    and each peer's partners best contributor first, ties broken by
    ascending id -- byte-for-byte the ordering of
    ``TitForTatChoker.select_unchoked``.
    """
    eligible = np.flatnonzero(interested_edge & (received_edge > 0.0))
    if regular_slots <= 0 or eligible.size == 0:
        return edge_peer[:0], edge_partner_id[:0]
    order = np.lexsort(
        (edge_partner_id[eligible], -received_edge[eligible], edge_peer[eligible])
    )
    ranked = eligible[order]
    peers = edge_peer[ranked]
    position = np.arange(peers.size)
    # Each entry's rank inside its peer's segment: position minus segment start.
    start = np.maximum.accumulate(
        np.where(np.r_[True, peers[1:] != peers[:-1]], position, 0)
    )
    head = ranked[position - start < regular_slots]
    return edge_peer[head], edge_partner_id[head]


class FastChokerState:
    """Optimistic-unchoke state for all leechers, and the seed policy.

    Row ``i`` of :attr:`optimistic` holds leecher ``i``'s optimistic peers
    (ids, in rotation order, -1 where empty) and ``age[i]`` the rounds
    since they were drawn -- the per-peer state of
    :func:`repro.bittorrent.choking.rotate_optimistic`, one row per dense
    peer index instead of one dictionary entry per peer id.
    """

    def __init__(
        self,
        regular_slots: int,
        optimistic_slots: int,
        optimistic_period: int,
        seed_slots: int,
    ) -> None:
        if regular_slots < 0:
            raise ValueError("regular_slots cannot be negative")
        if optimistic_slots < 0:
            raise ValueError("optimistic_slots cannot be negative")
        if optimistic_period <= 0:
            raise ValueError("optimistic_period must be positive")
        if seed_slots <= 0:
            raise ValueError("a seed needs at least one unchoke slot")
        self.regular_slots = regular_slots
        self.optimistic_slots = optimistic_slots
        self.optimistic_period = optimistic_period
        self.seed_slots = seed_slots
        self.optimistic = np.full((0, optimistic_slots), -1, dtype=np.int64)
        self.age = np.zeros(0, dtype=np.int64)

    def add_rows(self, count: int) -> None:
        """Append ``count`` fresh rows: no optimistic peer, age 0."""
        self.optimistic = np.concatenate(
            [self.optimistic, np.full((count, self.optimistic_slots), -1, dtype=np.int64)]
        )
        self.age = np.concatenate([self.age, np.zeros(count, dtype=np.int64)])

    def leecher_unchoke(
        self,
        rng: np.random.Generator,
        owners: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        partners: np.ndarray,
        regular_owner: np.ndarray,
        regular_partner: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rechoke a run of leechers in one kernel call.

        Owner ``o`` is row ``owners[o]``, interested in
        ``partners[lo[o]:hi[o]]``; the regular slots are
        :func:`batched_regular_slots`' arrays.  Returns (owner rows, target
        ids, regular flags), each owner's regular targets first, then its
        optimistic and spare ones; see
        :func:`repro.bittorrent.fast.kernel.leecher_unchoke`.
        """
        return kernel.leecher_unchoke(
            rng,
            self.regular_slots,
            self.optimistic_period,
            owners,
            lo,
            hi,
            partners,
            regular_owner,
            regular_partner,
            self.optimistic,
            self.age,
        )

    def seed_unchoke(
        self, interested: List[int], rng: np.random.Generator
    ) -> List[int]:
        """The seed policy, via the shared reference implementation."""
        return seed_unchoke(interested, self.seed_slots, rng)

    def drop(self, row: int) -> None:
        """Reset a departed or crashed peer's rotation state.

        Mirrors the reference simulator deleting the peer's choker object:
        a crashed peer that rejoins starts with a fresh rotation.
        """
        self.optimistic[row] = -1
        self.age[row] = 0
