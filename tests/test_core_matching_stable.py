"""Tests for acceptance graphs, matchings, blocking pairs and Algorithm 1."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acceptance import AcceptanceGraph
from repro.core.exceptions import CapacityError, MatchingError, ModelError, UnknownPeerError
from repro.core.matching import (
    Matching,
    blocking_pairs,
    find_blocking_mate,
    is_blocking_pair,
    is_stable,
)
from repro.core.metrics import mean_max_offset, mean_max_offset_exact_constant
from repro.core.peer import Peer, PeerPopulation
from repro.core.ranking import GlobalRanking
from repro.core.stable import stable_configuration
from repro.graphs.components import cluster_sizes


class TestAcceptanceGraph:
    def test_complete_graph_degree(self, small_population):
        acceptance = AcceptanceGraph.complete(small_population)
        assert acceptance.degree(1) == 8
        assert acceptance.accepts(1, 9)

    def test_erdos_renyi_requires_one_parameter(self, small_population, rng):
        with pytest.raises(ModelError):
            AcceptanceGraph.erdos_renyi(small_population, rng=rng)
        with pytest.raises(ModelError):
            AcceptanceGraph.erdos_renyi(
                small_population, expected_degree=2, probability=0.5, rng=rng
            )

    def test_erdos_renyi_expected_degree(self, rng):
        population = PeerPopulation.ranked(300)
        acceptance = AcceptanceGraph.erdos_renyi(population, expected_degree=10, rng=rng)
        degrees = [acceptance.degree(p) for p in acceptance.peer_ids()]
        assert np.mean(degrees) == pytest.approx(10, rel=0.25)

    def test_symmetry_of_acceptability(self, small_population):
        acceptance = AcceptanceGraph(small_population)
        acceptance.declare_acceptable(1, 2)
        assert acceptance.accepts(2, 1)
        acceptance.declare_unacceptable(2, 1)
        assert not acceptance.accepts(1, 2)

    def test_self_acceptance_rejected(self, small_population):
        acceptance = AcceptanceGraph(small_population)
        with pytest.raises(ModelError):
            acceptance.declare_acceptable(3, 3)

    def test_add_and_remove_peer(self, small_population):
        acceptance = AcceptanceGraph.complete(small_population)
        new_peer = Peer(100, 0.5, 1)
        acceptance.add_peer(new_peer, acceptable=[1, 2])
        assert acceptance.accepts(100, 1)
        removed = acceptance.remove_peer(100)
        assert removed.peer_id == 100
        assert 100 not in acceptance.population

    def test_unknown_peer_rejected(self, small_population):
        acceptance = AcceptanceGraph(small_population)
        with pytest.raises(UnknownPeerError):
            acceptance.declare_acceptable(1, 999)
        with pytest.raises(UnknownPeerError):
            acceptance.acceptable_peers(999)


class TestMatching:
    def test_match_and_unmatch(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        assert matching.is_matched(1, 2) and matching.is_matched(2, 1)
        matching.unmatch(1, 2)
        assert not matching.is_matched(1, 2)

    def test_capacity_enforced(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        matching.match(1, 3)
        with pytest.raises(CapacityError):
            matching.match(1, 4)

    def test_cannot_match_outside_acceptance_graph(self, small_population):
        acceptance = AcceptanceGraph(small_population)  # no edges
        matching = Matching(acceptance)
        with pytest.raises(MatchingError):
            matching.match(1, 2)

    def test_cannot_match_twice_or_self(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        with pytest.raises(MatchingError):
            matching.match(1, 2)
        with pytest.raises(MatchingError):
            matching.match(3, 3)

    def test_mate_of_requires_one_matching(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        assert matching.mate_of(1) == 2
        assert matching.mate_of(5) is None
        matching.match(1, 3)
        with pytest.raises(MatchingError):
            matching.mate_of(1)

    def test_pairs_and_counts(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        matching.match(3, 4)
        assert list(matching.pairs()) == [(1, 2), (3, 4)]
        assert matching.pair_count() == 2

    def test_remove_peer(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        ex_mates = matching.remove_peer(1)
        assert ex_mates == [2]
        assert matching.degree(2) == 0

    def test_copy_and_equality(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        clone = matching.copy()
        assert clone == matching
        clone.unmatch(1, 2)
        assert clone != matching

    def test_as_graph(self, small_complete_acceptance):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        graph = matching.as_graph()
        assert graph.has_edge(1, 2)
        assert graph.vertex_count == 9


class TestBlockingPairs:
    def test_both_free_and_acceptable_is_blocking(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        assert is_blocking_pair(matching, ranking, 1, 2)

    def test_matched_pair_is_not_blocking(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        assert not is_blocking_pair(matching, ranking, 1, 2)

    def test_full_peer_blocks_only_for_better_candidate(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        # Fill peer 5's two slots with peers 6 and 7.
        matching.match(5, 6)
        matching.match(5, 7)
        # Peer 4 is better than 5's worst mate (7): blocking.
        assert is_blocking_pair(matching, ranking, 4, 5)
        # Peer 9 is worse than both mates: not blocking.
        assert not is_blocking_pair(matching, ranking, 9, 5)

    def test_find_blocking_mate_returns_best(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        matching.match(1, 2)
        best = find_blocking_mate(matching, ranking, 5)
        assert best == 1  # peer 1 still has a free slot and is the best

    def test_blocking_pairs_empty_for_stable(self, small_complete_acceptance, ranking):
        stable = stable_configuration(small_complete_acceptance, ranking)
        assert blocking_pairs(stable, ranking) == []
        assert is_stable(stable, ranking)


class TestStableConfiguration:
    def test_complete_graph_clusters(self, small_complete_acceptance, ranking):
        stable = stable_configuration(small_complete_acceptance, ranking)
        # b0 = 2 on a complete graph: 3-cliques {1,2,3}, {4,5,6}, {7,8,9}.
        assert sorted(stable.mates(1)) == [2, 3]
        assert sorted(stable.mates(5)) == [4, 6]
        assert sorted(stable.mates(9)) == [7, 8]
        assert cluster_sizes(stable.as_graph()) == [3, 3, 3]

    def test_mmo_matches_closed_form(self, small_complete_acceptance, ranking):
        stable = stable_configuration(small_complete_acceptance, ranking)
        assert mean_max_offset(stable, ranking) == pytest.approx(
            mean_max_offset_exact_constant(2)
        )

    def test_stability_on_er_graphs(self, medium_er_acceptance):
        ranking = GlobalRanking.from_population(medium_er_acceptance.population)
        stable = stable_configuration(medium_er_acceptance, ranking)
        assert is_stable(stable, ranking)

    def test_uniqueness_independent_of_processing(self, medium_er_acceptance):
        # Running the algorithm twice (same inputs) gives the same matching;
        # uniqueness against the dynamics is covered in the dynamics tests.
        ranking = GlobalRanking.from_population(medium_er_acceptance.population)
        first = stable_configuration(medium_er_acceptance, ranking)
        second = stable_configuration(medium_er_acceptance, ranking)
        assert first == second

    def test_respects_capacities(self, rng):
        population = PeerPopulation.ranked(20, slots=[3] * 10 + [1] * 10)
        acceptance = AcceptanceGraph.erdos_renyi(population, expected_degree=6, rng=rng)
        stable = stable_configuration(acceptance)
        for peer in population:
            assert stable.degree(peer.peer_id) <= peer.slots

    def test_zero_slots_peer_gets_no_mates(self):
        population = PeerPopulation.ranked(5, slots=[1, 1, 0, 1, 1])
        acceptance = AcceptanceGraph.complete(population)
        stable = stable_configuration(acceptance)
        assert stable.degree(3) == 0

    def test_empty_acceptance_graph_yields_empty_matching(self):
        population = PeerPopulation.ranked(5, slots=2)
        acceptance = AcceptanceGraph(population)
        stable = stable_configuration(acceptance)
        assert stable.pair_count() == 0

    def test_last_peer_may_stay_unmatched(self):
        # Odd number of peers with 1-matching on a complete graph: the worst
        # peer has nobody left (the paper's remark after Algorithm 1).
        population = PeerPopulation.ranked(5, slots=1)
        acceptance = AcceptanceGraph.complete(population)
        stable = stable_configuration(acceptance)
        assert stable.degree(5) == 0
        assert stable.pair_count() == 2
