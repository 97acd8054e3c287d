"""Tests for the BitTorrent content substrate: pieces, selection, choking, tracker."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.bittorrent.choking import SeedChoker, TitForTatChoker, UnchokeDecision
from repro.bittorrent.pieces import Bitfield, Torrent
from repro.bittorrent.piece_selection import RarestFirstSelector, piece_availability
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
from repro.bittorrent.tracker import Tracker


class TestTorrentAndBitfield:
    def test_torrent_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            built = Torrent(piece_count=10, piece_size_kbit=100.0)
            replaced = dataclasses.replace(Torrent(4, piece_size_kbit=100.0), piece_count=10)
        for torrent in (built, replaced):
            assert torrent.piece_size_kbit == 100.0
            assert torrent.total_size_kbit == 1000.0
            assert list(torrent.pieces()) == list(range(10))

    def test_torrent_validation(self):
        with pytest.raises(ValueError):
            Torrent(0)
        with pytest.raises(ValueError):
            Torrent(10, piece_size_kbit=0)

    def test_bitfield_complete_and_empty(self):
        seed = Bitfield.complete(5)
        leecher = Bitfield.empty(5)
        assert seed.is_complete() and not leecher.is_complete()
        assert seed.completion() == 1.0
        assert leecher.missing() == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("piece_count", [1, 7, 8, 300, 801])
    def test_complete_equals_the_element_wise_build(self, piece_count):
        built = Bitfield(piece_count, range(piece_count))
        complete = Bitfield.complete(piece_count)
        assert complete.held() == built.held()
        assert complete.count() == built.count() == piece_count
        assert complete.is_complete() and built.is_complete()
        # Every call owns its set: emptying one leaves the next complete.
        complete.held().clear()
        assert Bitfield.complete(piece_count).count() == piece_count
        for piece in (-1, piece_count):
            with pytest.raises(IndexError):
                complete.add(piece)

    def test_add_and_bounds(self):
        bitfield = Bitfield(3)
        bitfield.add(1)
        assert bitfield.has(1)
        with pytest.raises(IndexError):
            bitfield.add(3)

    def test_interest(self):
        a = Bitfield(4, have=[0, 1])
        b = Bitfield(4, have=[1, 2])
        assert a.is_interested_in(b)
        assert a.interesting_pieces(b) == {2}
        c = Bitfield(4, have=[0])
        assert not a.is_interested_in(c)

    def test_iteration_sorted(self):
        bitfield = Bitfield(5, have=[3, 1])
        assert list(bitfield) == [1, 3]


class TestPieceSelection:
    def test_availability(self):
        fields = [Bitfield(3, have=[0]), Bitfield(3, have=[0, 1])]
        assert piece_availability(fields, 3) == [2, 1, 0]

    def test_rarest_first_picks_rarest(self, rng):
        selector = RarestFirstSelector()
        piece = selector.select({0, 1, 2}, availability=[5, 1, 3], rng=rng)
        assert piece == 1

    def test_rarest_first_breaks_ties_within_rarest(self, rng):
        selector = RarestFirstSelector()
        choices = {selector.select({0, 1, 2}, [1, 1, 5], rng) for _ in range(30)}
        assert choices <= {0, 1}
        assert len(choices) == 2

    def test_empty_wanted_returns_none(self, rng):
        assert RarestFirstSelector().select(set(), [0], rng) is None


class TestChoking:
    def test_tft_prefers_top_uploaders(self, rng):
        choker = TitForTatChoker(regular_slots=2, optimistic_slots=1)
        decision = choker.select_unchoked(
            1,
            interested=[10, 11, 12, 13],
            received={10: 5.0, 11: 50.0, 12: 20.0},
            rng=rng,
        )
        assert decision.regular == [11, 12]
        assert len(decision.optimistic) == 1
        assert set(decision.optimistic) <= {10, 13}

    def test_no_interested_peers(self, rng):
        decision = TitForTatChoker().select_unchoked(1, [], {}, rng)
        assert decision.all == []

    def test_cold_start_fills_slots_optimistically(self, rng):
        choker = TitForTatChoker(regular_slots=3, optimistic_slots=1)
        decision = choker.select_unchoked(1, interested=[2, 3, 4, 5, 6], received={}, rng=rng)
        assert decision.regular == []
        assert len(decision.optimistic) == 4

    def test_optimistic_rotation(self, rng):
        choker = TitForTatChoker(regular_slots=1, optimistic_slots=1, optimistic_period=2)
        seen = set()
        for _ in range(12):
            decision = choker.select_unchoked(
                1, interested=[2, 3, 4, 5], received={2: 10.0}, rng=rng
            )
            seen.update(decision.optimistic)
        # Over several periods the optimistic slot visits several peers.
        assert len(seen) >= 2

    def test_total_slots_and_validation(self):
        assert TitForTatChoker(regular_slots=3, optimistic_slots=1).total_slots == 4
        with pytest.raises(ValueError):
            TitForTatChoker(regular_slots=-1)
        with pytest.raises(ValueError):
            SeedChoker(slots=0)

    def test_seed_choker_rotates_randomly(self, rng):
        choker = SeedChoker(slots=2)
        decision = choker.select_unchoked(1, interested=[2, 3, 4, 5], received={}, rng=rng)
        assert len(decision.optimistic) == 2
        assert decision.regular == []

    def test_unchoke_decision_all(self):
        decision = UnchokeDecision(regular=[1], optimistic=[2, 3])
        assert decision.all == [1, 2, 3]
        assert len(decision) == 3


class TestTracker:
    def test_announce_returns_a_subset_of_the_registered_peers(self, rng):
        tracker = Tracker(announce_size=3)
        assert tracker.announce(1, rng) == []
        for peer in range(2, 8):
            contacts = tracker.announce(peer, rng)
            assert 0 < len(contacts) == len(set(contacts)) <= 3
            assert set(contacts) <= set(range(1, peer))

    def test_announce_size_respected(self, rng):
        tracker = Tracker(announce_size=2)
        for peer in range(1, 30):
            returned = tracker.announce(peer, rng)
            assert len(returned) <= 2

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_swarm_neighbor_degree_close_to_announce_size(self, engine):
        """The acceptance graph a run uses is the swarm's neighbor sets."""
        announce = 8
        config = SwarmConfig(
            leechers=198, seeds=2, piece_count=10, rounds=1, announce_size=announce
        )
        peers = SwarmSimulator(config, seed=12345, engine=engine).peers
        assert len(peers) == 200
        for pid, peer in peers.items():
            assert pid not in peer.neighbors
            assert all(pid in peers[other].neighbors for other in peer.neighbors)
        mean_degree = sum(len(peer.neighbors) for peer in peers.values()) / len(peers)
        # Each announce adds ~announce_size symmetric edges -> expected
        # degree around 2 * announce * (1 - o(1)); just check the right scale.
        assert announce <= mean_degree <= 3 * announce

    def test_depart(self, rng):
        tracker = Tracker(announce_size=2)
        tracker.announce(1, rng)
        tracker.announce(2, rng)
        tracker.depart(1)
        assert tracker.swarm_size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracker(announce_size=0)
