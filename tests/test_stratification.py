"""Tests for the stratification analysis (Section 4)."""

from __future__ import annotations

from collections import deque
from typing import List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acceptance import AcceptanceGraph
from repro.core.matching import Matching
from repro.core.metrics import mean_max_offset
from repro.core.peer import PeerPopulation
from repro.core.ranking import GlobalRanking
from repro.core.stable import stable_configuration
from repro.stratification.bvalues import constant_slots, rounded_normal_slots, slot_statistics
from repro.stratification.clustering import (
    analyze_complete_matching,
    complete_graph_stable_matching,
    constant_matching_cluster_size,
)
from repro.stratification.mmo import (
    mmo_constant_matching,
    mmo_constant_matching_limit,
    mmo_from_edges,
)
from repro.stratification.phase_transition import (
    estimate_transition_sigma,
    sigma_sweep,
    table1,
    variable_matching_statistics,
)


class TestSlotSamplers:
    def test_constant_slots(self):
        assert constant_slots(5, 3) == [3, 3, 3, 3, 3]
        with pytest.raises(ValueError):
            constant_slots(-1, 3)

    def test_rounded_normal_zero_sigma_is_constant(self, rng):
        slots = rounded_normal_slots(100, 4.0, 0.0, rng)
        assert set(slots) == {4}

    def test_rounded_normal_values_are_positive_integers(self, rng):
        slots = rounded_normal_slots(2000, 2.0, 1.5, rng)
        assert all(isinstance(s, int) and s >= 1 for s in slots)

    def test_rounded_normal_mean_close_to_target(self, rng):
        slots = rounded_normal_slots(5000, 6.0, 0.5, rng)
        assert np.mean(slots) == pytest.approx(6.0, abs=0.1)

    def test_slot_statistics(self):
        stats = slot_statistics([2, 2, 3])
        assert stats["heterogeneous"]
        assert stats["min"] == 2 and stats["max"] == 3
        assert not slot_statistics([4, 4])["heterogeneous"]
        with pytest.raises(ValueError):
            slot_statistics([])

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            rounded_normal_slots(10, 0.5, 0.1, rng)
        with pytest.raises(ValueError):
            rounded_normal_slots(10, 3.0, -1.0, rng)


class TestCompleteGraphMatching:
    def test_matches_general_algorithm(self, rng):
        # The specialised O(n*b) construction must agree with Algorithm 1 on
        # a complete acceptance graph, for heterogeneous slot budgets.
        slots = rounded_normal_slots(40, 3.0, 1.0, rng)
        fast_edges = set(complete_graph_stable_matching(slots))

        population = PeerPopulation.ranked(40, slots=slots)
        acceptance = AcceptanceGraph.complete(population)
        matching = stable_configuration(acceptance)
        slow_edges = set(matching.pairs())
        assert fast_edges == slow_edges

    def test_constant_matching_forms_cliques(self):
        edges = complete_graph_stable_matching([2] * 9)
        analysis = analyze_complete_matching([2] * 9)
        assert analysis.cluster_sizes == [3, 3, 3]
        assert len(edges) == 9  # three 3-cliques of 3 edges each

    def test_figure5_extra_connection_connects_graph(self):
        slots = [2] * 8
        disconnected = analyze_complete_matching(slots)
        assert not disconnected.connected
        slots[0] += 1
        connected = analyze_complete_matching(slots)
        assert connected.connected

    def test_cluster_size_closed_form(self):
        assert constant_matching_cluster_size(4) == 5
        assert constant_matching_cluster_size(0) == 1

    def test_capacity_respected(self, rng):
        slots = rounded_normal_slots(200, 4.0, 1.0, rng)
        edges = complete_graph_stable_matching(slots)
        degree = np.zeros(len(slots), dtype=int)
        for a, b in edges:
            degree[a - 1] += 1
            degree[b - 1] += 1
        assert np.all(degree <= np.asarray(slots))

    def test_zero_slot_peer_excluded(self):
        edges = complete_graph_stable_matching([1, 0, 1])
        assert edges == [(1, 3)]


def _bfs_cluster_sizes(matching: Matching) -> List[int]:
    """Connected-component sizes of a matching's graph, descending."""
    seen: Set[int] = set()
    sizes: List[int] = []
    for start in matching.peer_ids():
        if start in seen:
            continue
        seen.add(start)
        frontier = deque([start])
        size = 0
        while frontier:
            peer = frontier.popleft()
            size += 1
            for mate in matching.mates(peer):
                if mate not in seen:
                    seen.add(mate)
                    frontier.append(mate)
        sizes.append(size)
    return sorted(sizes, reverse=True)


class TestClusterAnalysisOracle:
    """``analyze_complete_matching`` against Algorithm 1 and a plain BFS."""

    @settings(max_examples=60, deadline=None)
    @given(slots=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
    def test_agrees_with_algorithm1_on_the_complete_graph(self, slots):
        population = PeerPopulation.ranked(len(slots), slots=slots)
        ranking = GlobalRanking.from_population(population)
        stable = stable_configuration(AcceptanceGraph.complete(population), ranking)
        sizes = _bfs_cluster_sizes(stable)
        analysis = analyze_complete_matching(slots)
        assert analysis.n == len(slots)
        assert analysis.edges == stable.pair_count()
        assert analysis.cluster_sizes == sizes
        assert analysis.largest_cluster == sizes[0]
        assert analysis.mean_cluster_size == float(np.mean(sizes))
        assert analysis.connected == (len(sizes) == 1)
        assert analysis.mean_max_offset == mean_max_offset(stable, ranking)


class TestMMO:
    def test_table1_constant_values(self):
        # Paper Table 1: 1.67, 2.5, 3.2, 4, 4.71, 5.5 for b0 = 2..7.
        expected = [1.67, 2.5, 3.2, 4.0, 4.71, 5.5]
        for b0, value in zip(range(2, 8), expected):
            assert mmo_constant_matching(b0) == pytest.approx(value, abs=0.01)

    def test_limit(self):
        assert mmo_constant_matching_limit(8) == 6.0

    def test_mmo_from_edges(self):
        edges = [(1, 2), (2, 3)]
        # offsets: peer1 -> 1, peer2 -> 1, peer3 -> 1 ; mean = 1.
        assert mmo_from_edges(edges, 3) == 1.0
        with pytest.raises(ValueError):
            mmo_from_edges([(0, 2)], 3)
        with pytest.raises(ValueError, match="integers"):
            mmo_from_edges([(1.5, 2)], 3)

    def test_empirical_mmo_matches_closed_form(self):
        analysis = analyze_complete_matching(constant_slots(30, 5))
        assert analysis.mean_max_offset == pytest.approx(mmo_constant_matching(5))


class TestPhaseTransition:
    def test_sigma_zero_gives_small_clusters(self):
        point = variable_matching_statistics(3000, 6.0, 0.0, repetitions=1, seed=0)
        assert point.mean_cluster_size == pytest.approx(7.0, abs=0.5)

    def test_cluster_size_explodes_past_transition(self):
        below = variable_matching_statistics(6000, 6.0, 0.05, repetitions=2, seed=1)
        above = variable_matching_statistics(6000, 6.0, 0.3, repetitions=2, seed=1)
        assert above.mean_cluster_size > 10 * below.mean_cluster_size

    def test_mmo_drops_past_transition(self):
        below = variable_matching_statistics(6000, 6.0, 0.0, repetitions=1, seed=2)
        above = variable_matching_statistics(6000, 6.0, 0.3, repetitions=2, seed=2)
        assert above.mean_max_offset < below.mean_max_offset

    def test_sigma_sweep_returns_all_points(self):
        points = sigma_sweep(2000, 4.0, [0.0, 0.2, 0.5], repetitions=1, seed=3)
        assert [p.sigma for p in points] == [0.0, 0.2, 0.5]

    def test_transition_sigma_estimate_in_paper_range(self):
        sigma = estimate_transition_sigma(
            6000, 6.0, sigmas=[0.0, 0.05, 0.1, 0.15, 0.2, 0.3], repetitions=2, seed=4
        )
        # The paper locates the explosion around sigma ~ 0.15.
        assert 0.05 <= sigma <= 0.3

    def test_cluster_growth_with_b(self):
        rows = table1((2, 3, 4), n=8000, repetitions=2, seed=5)
        sizes = [row["normal_cluster_size"] for row in rows]
        # Cluster size grows steeply (roughly factorially) with b.
        assert sizes[1] > 2 * sizes[0]
        assert sizes[2] > 2 * sizes[1]
        # Constant-matching columns match the closed forms.
        assert rows[0]["constant_cluster_size"] == 3
        assert rows[0]["constant_mmo"] == pytest.approx(5 / 3)

    def test_table1_rejects_bad_b(self):
        with pytest.raises(ValueError):
            table1((0,), n=100)
