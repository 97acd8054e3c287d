"""Array-backed tracker announces, with dynamic membership.

The reference :class:`repro.bittorrent.tracker.Tracker` materializes and
sorts the known-peer set on every announce -- O(k log k) per call, O(n^2
log n) for a whole swarm, which alone makes 100k-peer populations
infeasible.  This tracker keeps two regimes:

* **contiguous** (the construction path): peers join in increasing id
  order and nobody has departed, so the known set is always the range
  ``1..k`` and an announce is one ``rng.choice(k, size, replace=False)``
  with no materialization at all;
* **dynamic** (scenario churn): once a peer departs, the tracker drops to
  a sorted alive-id list (joins insert in order, and departures and
  registration tests bisect it); an announce is one
  ``rng.choice(len(alive), size, replace=False)`` mapped through the
  list, still far cheaper than the reference's per-announce set sort.

Either way the draw consumes the random stream exactly like the reference
(``Generator.choice`` consumption depends only on the population *size*,
and the alive list is precisely the reference's ``sorted(known)``), so
announces are id-for-id identical under a shared seed -- the equivalence
tests cover both the construction path and churning scenarios.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bittorrent.tracker import ScrapeStats
from repro.bittorrent.transfers import pair_keys, split_keys

__all__ = ["FastTracker", "build_neighbor_csr"]


class FastTracker:
    """A tracker whose peers join with strictly increasing ids.

    The scrape counters (:meth:`scrape`) mirror the reference
    :class:`~repro.bittorrent.tracker.Tracker` exactly -- same
    :class:`~repro.bittorrent.tracker.ScrapeStats` type, same
    seeder/snatch semantics -- so an observer sees identical numbers on
    either engine.
    """

    def __init__(self, announce_size: int) -> None:
        if announce_size <= 0:
            raise ValueError("announce_size must be positive")
        self.announce_size = announce_size
        self._max_id = 0
        # Sorted alive ids; None while the alive set is the range 1..max_id
        # (the contiguous fast path used during swarm construction).
        self._alive: Optional[List[int]] = None
        self._complete: Set[int] = set()
        self._snatches = 0

    def announce(self, peer_id: int, rng: np.random.Generator) -> np.ndarray:
        """Register ``peer_id`` and return its random contacts (peer ids).

        Ids grow monotonically even under churn (departed ids are never
        reused), which keeps the alive set a range -- and announces
        materialization-free -- for as long as nobody departs and ids
        arrive in order.  The fault layer breaks both assumptions:
        crashed peers *re-announce* on rejoin (a fresh contact draw, no
        registration -- the crash never deregistered them), and an
        announce delayed by outage backoff can arrive after a younger
        peer's.  Both drop to the dynamic sorted-list regime and consume
        the random stream exactly like the reference tracker.
        """
        if self.is_registered(peer_id):
            # Re-announce (a crashed peer rejoining): draw fresh contacts
            # from the other registered peers, no registration.
            others = [p for p in self.known_peers() if p != peer_id]
            if not others:
                return np.empty(0, dtype=np.int64)
            count = min(self.announce_size, len(others))
            idx = rng.choice(len(others), size=count, replace=False)
            return np.asarray(others, dtype=np.int64)[idx]
        if self._alive is None:
            if peer_id == self._max_id + 1:
                # Contiguous fast path: the alive set is the range 1..max_id.
                self._max_id = peer_id
                known = peer_id - 1
                if known == 0:
                    return np.empty(0, dtype=np.int64)
                count = min(self.announce_size, known)
                return (
                    rng.choice(known, size=count, replace=False).astype(np.int64) + 1
                )
            # Out-of-order new id (outage backoff): materialize the range
            # and fall through to the dynamic regime.
            self._alive = list(range(1, self._max_id + 1))
        others = self._alive
        contacts = np.empty(0, dtype=np.int64)
        if others:
            count = min(self.announce_size, len(others))
            idx = rng.choice(len(others), size=count, replace=False)
            contacts = np.asarray(others, dtype=np.int64)[idx]
        bisect.insort(others, peer_id)
        self._max_id = max(self._max_id, peer_id)
        return contacts

    def depart(self, peer_id: int) -> None:
        """Remove a peer; later announces can no longer return it."""
        if self._alive is None:
            self._alive = list(range(1, self._max_id + 1))
        alive = self._alive
        at = bisect.bisect_left(alive, peer_id)
        if at < len(alive) and alive[at] == peer_id:
            del alive[at]  # absent ids are ignored, as Tracker.depart discards
        self._complete.discard(peer_id)

    def is_registered(self, peer_id: int) -> bool:
        """Whether the peer is currently in the swarm (not departed)."""
        alive = self._alive
        if alive is None:
            return 1 <= peer_id <= self._max_id
        at = bisect.bisect_left(alive, peer_id)
        return at < len(alive) and alive[at] == peer_id

    def register_complete(self, peer_id: int) -> None:
        """Mark a registered peer as a seeder without counting a snatch."""
        if self.is_registered(peer_id):
            self._complete.add(peer_id)

    def record_completion(self, peer_id: int) -> None:
        """Count one completed download (idempotent per peer)."""
        if self.is_registered(peer_id) and peer_id not in self._complete:
            self._complete.add(peer_id)
            self._snatches += 1

    def scrape(self) -> ScrapeStats:
        """The scrape-endpoint counters (seeders / leechers / snatches)."""
        seeders = len(self._complete)
        return ScrapeStats(
            seeders=seeders,
            leechers=self.swarm_size - seeders,
            snatches=self._snatches,
        )

    def stale_count(self, present: Iterable[int]) -> int:
        """Registered peers that are no longer actually in the swarm.

        Mirrors :meth:`repro.bittorrent.tracker.Tracker.stale_count`: the
        crashed-peer registrations still counted by :meth:`scrape`,
        measured against the ground-truth ``present`` ids.
        """
        alive = frozenset(present)
        return sum(1 for pid in self.known_peers() if pid not in alive)

    def known_peers(self) -> List[int]:
        """Currently registered peer ids, ascending (departed excluded)."""
        if self._alive is None:
            return list(range(1, self._max_id + 1))
        return list(self._alive)

    @property
    def swarm_size(self) -> int:
        """Number of peers currently registered."""
        return self._max_id if self._alive is None else len(self._alive)


def build_neighbor_csr(
    n_peers: int,
    tracker: FastTracker,
    rng: np.random.Generator,
    contact_filter: Optional[Callable[[int, np.ndarray], List[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray, List[set]]:
    """Announce peers ``1..n_peers`` and build the symmetric contact CSR.

    Returns ``(indptr, adj, neighbor_sets)`` over dense indices
    ``0..n_peers-1`` (dense index = peer id - 1); each adjacency segment is
    sorted ascending, matching the reference simulator's
    ``sorted(peer.neighbors)`` iteration order.  ``neighbor_sets`` is the
    live adjacency the dynamic-membership engine keeps mutating; the CSR
    arrays are its frozen snapshot (see ``FastSwarmSimulator._rebuild_csr``
    for the re-snapshot under churn).

    ``contact_filter`` (the behavior layer's locality / NAT edge rules)
    sees each announce result -- ``(peer_id, contacts)`` in tracker draw
    order -- and returns the contact ids actually connected to; the
    announce draw itself is untouched, so a filter cannot perturb the
    tracker stream.
    """
    neighbor_sets: List[set] = [set() for _ in range(n_peers)]
    for peer_id in range(1, n_peers + 1):
        announced = tracker.announce(peer_id, rng)
        contacts = (
            announced if contact_filter is None else contact_filter(peer_id, announced)
        )
        for contact in contacts:
            neighbor_sets[peer_id - 1].add(int(contact) - 1)
            neighbor_sets[int(contact) - 1].add(peer_id - 1)
    indptr, adj = neighbor_sets_to_csr(neighbor_sets)
    return indptr, adj, neighbor_sets


def neighbor_sets_to_csr(neighbor_sets: List[set]) -> Tuple[np.ndarray, np.ndarray]:
    """Freeze per-peer neighbor sets into (indptr, adj) CSR arrays.

    Row ``i`` holds ``neighbor_sets[i]`` (non-negative ids) ascending.
    The sets are read in one pass, and one sort of the packed
    ``(row, id)`` keys orders every row at once: the rows keep their
    place and each row's ids come out ascending.
    """
    n_peers = len(neighbor_sets)
    degrees = np.fromiter(map(len, neighbor_sets), dtype=np.int64, count=n_peers)
    indptr = np.zeros(n_peers + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    adj = np.fromiter(
        itertools.chain.from_iterable(neighbor_sets), dtype=np.int64, count=int(indptr[-1])
    )
    keys = pair_keys(np.repeat(np.arange(n_peers, dtype=np.int64), degrees), adj)
    keys.sort()
    _, adj = split_keys(keys)
    return indptr, adj
