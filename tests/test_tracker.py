"""Targeted tracker tests: the FastTracker depart / sorted-alive-list path.

The scenario and equivalence suites exercise the trackers through whole
swarms; these tests pin the announce-after-depart machinery directly --
the regime switch from the contiguous range to the sorted alive list, the
draw parity with the reference tracker, and the scrape counters across
churn -- and hold the CSR freeze of the live adjacency to the per-row
loop it replaced.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.bittorrent.fast.tracker import FastTracker, neighbor_sets_to_csr
from repro.bittorrent.tracker import ScrapeStats, Tracker


def _paired_rngs(seed: int = 0):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestFastTrackerAnnounce:
    def test_out_of_order_announce_matches_reference(self):
        # An announce delayed past a younger peer's (outage backoff)
        # drops the fast tracker to the dynamic regime; the draw still
        # matches the reference tracker id-for-id.
        fast = FastTracker(announce_size=4)
        reference = Tracker(announce_size=4)
        fast_rng, ref_rng = _paired_rngs(3)
        for peer_id in (1, 2, 3, 5):
            fast_contacts = fast.announce(peer_id, fast_rng)
            ref_contacts = reference.announce(peer_id, ref_rng)
            assert sorted(int(c) for c in fast_contacts) == sorted(ref_contacts)
        fast_contacts = fast.announce(4, fast_rng)
        ref_contacts = reference.announce(4, ref_rng)
        assert [int(c) for c in fast_contacts] == ref_contacts
        assert fast.known_peers() == reference.known_peers() == [1, 2, 3, 4, 5]

    def test_reannounce_draws_fresh_contacts_without_registration(self):
        # A crashed peer rejoining re-announces: fresh contacts, no
        # membership change, bit-identical across trackers.
        fast = FastTracker(announce_size=2)
        reference = Tracker(announce_size=2)
        fast_rng, ref_rng = _paired_rngs(11)
        for peer_id in range(1, 7):
            fast.announce(peer_id, fast_rng)
            reference.announce(peer_id, ref_rng)
        before = fast.known_peers()
        fast_contacts = fast.announce(2, fast_rng)
        ref_contacts = reference.announce(2, ref_rng)
        assert [int(c) for c in fast_contacts] == ref_contacts
        assert 2 not in set(int(c) for c in fast_contacts)
        assert fast.known_peers() == before
        assert fast.swarm_size == reference.swarm_size == 6

    def test_rejects_nonpositive_announce_size(self):
        with pytest.raises(ValueError):
            FastTracker(announce_size=0)

    def test_contiguous_announces_match_reference(self):
        fast = FastTracker(announce_size=3)
        reference = Tracker(announce_size=3)
        fast_rng, ref_rng = _paired_rngs(42)
        for peer_id in range(1, 12):
            fast_contacts = fast.announce(peer_id, fast_rng)
            ref_contacts = reference.announce(peer_id, ref_rng)
            assert sorted(int(c) for c in fast_contacts) == sorted(ref_contacts)
        assert fast.known_peers() == reference.known_peers()

    def test_depart_then_announce_matches_reference(self):
        fast = FastTracker(announce_size=3)
        reference = Tracker(announce_size=3)
        fast_rng, ref_rng = _paired_rngs(7)
        for peer_id in range(1, 9):
            fast.announce(peer_id, fast_rng)
            reference.announce(peer_id, ref_rng)
        for departing in (3, 6, 1):
            fast.depart(departing)
            reference.depart(departing)
        assert fast.known_peers() == reference.known_peers()
        # Announces after the regime switch draw from the same sorted
        # alive list, so the contacts are id-for-id identical.
        for peer_id in range(9, 14):
            fast_contacts = fast.announce(peer_id, fast_rng)
            ref_contacts = reference.announce(peer_id, ref_rng)
            assert [int(c) for c in fast_contacts] == ref_contacts
            assert not set(int(c) for c in fast_contacts) & {1, 3, 6}

    def test_alive_list_stays_sorted_under_interleaved_churn(self):
        tracker = FastTracker(announce_size=2)
        rng = np.random.default_rng(1)
        for peer_id in range(1, 6):
            tracker.announce(peer_id, rng)
        tracker.depart(2)
        tracker.announce(6, rng)
        tracker.depart(5)
        tracker.announce(7, rng)
        assert tracker.known_peers() == [1, 3, 4, 6, 7]
        assert tracker.known_peers() == sorted(tracker.known_peers())
        assert tracker.swarm_size == 5

    def test_registration_matches_reference_under_interleaved_churn(self):
        # Joins, departures (repeated and unknown ids too) and rejoining
        # re-announces, interleaved; after every step both trackers agree
        # on who is registered, and the announces agree id for id.
        fast = FastTracker(announce_size=3)
        reference = Tracker(announce_size=3)
        fast_rng, ref_rng = _paired_rngs(5)
        steps = np.random.default_rng(9)
        next_id = 1
        for _ in range(300):
            if next_id <= 3 or steps.random() < 0.5:
                peer_id, op = next_id, "join"
                next_id += 1
            else:
                peer_id = int(steps.integers(0, next_id + 2))
                op = "depart" if steps.random() < 0.7 else "reannounce"
            if op == "depart":
                fast.depart(peer_id)
                reference.depart(peer_id)
            elif op == "join" or reference.is_registered(peer_id):
                fast_contacts = fast.announce(peer_id, fast_rng)
                ref_contacts = reference.announce(peer_id, ref_rng)
                assert [int(c) for c in fast_contacts] == [int(c) for c in ref_contacts]
            for pid in range(0, next_id + 2):
                assert fast.is_registered(pid) == reference.is_registered(pid), pid
            assert fast.known_peers() == reference.known_peers()

    def test_depart_unknown_id_is_noop(self):
        tracker = FastTracker(announce_size=2)
        rng = np.random.default_rng(0)
        for peer_id in range(1, 4):
            tracker.announce(peer_id, rng)
        tracker.depart(99)
        tracker.depart(2)
        tracker.depart(2)  # repeated departure: discard semantics
        assert tracker.known_peers() == [1, 3]

    def test_announce_into_emptied_swarm_returns_no_contacts(self):
        tracker = FastTracker(announce_size=4)
        rng = np.random.default_rng(0)
        for peer_id in range(1, 4):
            tracker.announce(peer_id, rng)
        for peer_id in range(1, 4):
            tracker.depart(peer_id)
        assert tracker.swarm_size == 0
        contacts = tracker.announce(4, rng)
        assert contacts.size == 0
        assert tracker.known_peers() == [4]


class TestFastTrackerScrape:
    def _churned(self) -> FastTracker:
        tracker = FastTracker(announce_size=3)
        rng = np.random.default_rng(0)
        for peer_id in range(1, 6):
            tracker.announce(peer_id, rng)
        return tracker

    def test_is_registered_both_regimes(self):
        tracker = self._churned()
        # Contiguous regime: the range 1..max_id.
        assert tracker.is_registered(5)
        assert not tracker.is_registered(0)
        assert not tracker.is_registered(6)
        tracker.depart(2)
        # Dynamic regime: membership of the alive list.
        assert tracker.is_registered(1)
        assert not tracker.is_registered(2)

    def test_scrape_after_seeder_departs(self):
        tracker = self._churned()
        tracker.record_completion(4)
        assert tracker.scrape() == ScrapeStats(seeders=1, leechers=4, snatches=1)
        tracker.depart(4)
        # The seeder leaves the live counters; the snatch is cumulative.
        assert tracker.scrape() == ScrapeStats(seeders=0, leechers=4, snatches=1)

    def test_register_complete_vs_record_completion(self):
        tracker = self._churned()
        tracker.register_complete(1)  # joined-as-seed: no snatch
        tracker.record_completion(2)
        tracker.record_completion(2)  # idempotent
        tracker.record_completion(1)  # already complete: no snatch
        assert tracker.scrape() == ScrapeStats(seeders=2, leechers=3, snatches=1)

    def test_departed_peer_cannot_complete(self):
        tracker = self._churned()
        tracker.depart(3)
        tracker.record_completion(3)
        tracker.register_complete(3)
        assert tracker.scrape() == ScrapeStats(seeders=0, leechers=4, snatches=0)

    def test_scrape_matches_reference_across_identical_history(self):
        fast = FastTracker(announce_size=3)
        reference = Tracker(announce_size=3)
        fast_rng, ref_rng = _paired_rngs(5)
        for peer_id in range(1, 8):
            fast.announce(peer_id, fast_rng)
            reference.announce(peer_id, ref_rng)
        for tracker in (fast, reference):
            tracker.register_complete(1)
            tracker.record_completion(4)
            tracker.depart(4)
            tracker.record_completion(6)
        assert fast.scrape() == reference.scrape()
        assert fast.known_peers() == reference.known_peers()


# -- oracle: the per-row freeze loop the one-sort freeze replaced --
#
# Copied verbatim, so the freeze is held to the same int64 arrays.


def _per_row_neighbor_sets_to_csr(neighbor_sets: List[set]) -> Tuple[np.ndarray, np.ndarray]:
    n_peers = len(neighbor_sets)
    degrees = np.fromiter(
        (len(s) for s in neighbor_sets), dtype=np.int64, count=n_peers
    )
    indptr = np.zeros(n_peers + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    adj = np.empty(int(indptr[-1]), dtype=np.int64)
    for i, neighbors in enumerate(neighbor_sets):
        adj[indptr[i]:indptr[i + 1]] = sorted(neighbors)
    return indptr, adj


def _random_neighbor_sets(n_peers: int, seed: int) -> List[set]:
    """Symmetric random sets over ``0..n_peers-1``, a quarter of the rows tombstoned."""
    rng = np.random.default_rng(seed)
    sets: List[set] = [set() for _ in range(n_peers)]
    dead = set(rng.choice(n_peers, size=n_peers // 4, replace=False).tolist()) if n_peers else set()
    for _ in range(n_peers * 4):
        a, b = (int(x) for x in rng.integers(0, n_peers, size=2))
        if a != b and a not in dead and b not in dead:
            sets[a].add(b)
            sets[b].add(a)
    return sets


class TestNeighborSetsToCsr:
    @pytest.mark.parametrize(
        "neighbor_sets",
        [
            [],
            [set()],
            [set(), set(), set()],
            [{1}, {0}],
            [{3, 1, 2}, {0}, {0}, {0}],
            [set(), {5, 2}, {1}, set(), set(), {1}],
        ],
    )
    def test_matches_per_row_loop_on_small_cases(self, neighbor_sets):
        indptr, adj = neighbor_sets_to_csr(neighbor_sets)
        expected_indptr, expected_adj = _per_row_neighbor_sets_to_csr(neighbor_sets)
        assert indptr.dtype == adj.dtype == np.int64
        np.testing.assert_array_equal(indptr, expected_indptr)
        np.testing.assert_array_equal(adj, expected_adj)

    @pytest.mark.parametrize("n_peers", [1, 2, 17, 300, 2_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_row_loop_with_tombstoned_rows(self, n_peers, seed):
        neighbor_sets = _random_neighbor_sets(n_peers, seed)
        indptr, adj = neighbor_sets_to_csr(neighbor_sets)
        expected_indptr, expected_adj = _per_row_neighbor_sets_to_csr(neighbor_sets)
        assert indptr.dtype == adj.dtype == np.int64
        np.testing.assert_array_equal(indptr, expected_indptr)
        np.testing.assert_array_equal(adj, expected_adj)
        # The input sets are left as they were.
        assert neighbor_sets == _random_neighbor_sets(n_peers, seed)
