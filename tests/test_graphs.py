"""Tests for the graph substrate (base structure and generators)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acceptance import AcceptanceGraph
from repro.core.peer import PeerPopulation
from repro.graphs import erdos_renyi as erdos_renyi_module
from repro.graphs.base import UndirectedGraph
from repro.graphs.complete import complete_graph
from repro.graphs.erdos_renyi import (
    _pairs_from_indices,
    erdos_renyi_expected_degree,
    erdos_renyi_graph,
    expected_degree_to_probability,
)


class TestUndirectedGraph:
    def test_add_edge_creates_vertices(self):
        graph = UndirectedGraph()
        graph.add_edge(1, 2)
        assert graph.has_vertex(1) and graph.has_vertex(2)
        assert graph.has_edge(2, 1)

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            UndirectedGraph().add_edge(1, 1)

    def test_remove_vertex_removes_incident_edges(self):
        graph = UndirectedGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        graph.remove_vertex(1)
        assert not graph.has_vertex(1)
        assert graph.degree(2) == 0 and graph.degree(3) == 0

    def test_remove_missing_edge_raises(self):
        graph = UndirectedGraph([1, 2])
        with pytest.raises(KeyError):
            graph.remove_edge(1, 2)

    def test_edge_count_and_iteration(self):
        graph = UndirectedGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.edge_count == 2
        assert list(graph.edges()) == [(1, 2), (2, 3)]

    def test_copy_is_independent(self):
        graph = UndirectedGraph()
        graph.add_edge(1, 2)
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert not graph.has_edge(2, 3)

    def test_subgraph(self):
        graph = complete_graph(5)
        sub = graph.subgraph([1, 2, 3])
        assert sub.vertex_count == 3
        assert sub.edge_count == 3

    def test_equality(self):
        a = UndirectedGraph([1, 2])
        b = UndirectedGraph([1, 2])
        assert a == b
        a.add_edge(1, 2)
        assert a != b

    def test_from_neighbor_lists_fills_sets_in_the_given_order(self):
        graph = UndirectedGraph.from_neighbor_lists([30, 10, 20, 40], [[10, 20], [30], [30], []])
        built = UndirectedGraph([30, 10, 20, 40])
        built.add_edge(30, 10)
        built.add_edge(30, 20)
        assert graph == built
        assert list(graph.degrees()) == [30, 10, 20, 40]
        assert list(graph.neighbors(30)) == list(built.neighbors(30))

    def test_from_neighbor_lists_needs_one_list_per_vertex(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_neighbor_lists([1, 2], [[2]])

    def test_relabel_renames_in_place_and_sorts_by_old_id(self):
        graph = UndirectedGraph(range(4))
        for u, v in [(2, 3), (0, 3), (0, 1)]:
            graph.add_edge(u, v)
        mapping = {0: 900, 1: 5, 2: 7, 3: 1}
        expected = UndirectedGraph(mapping.values())
        for u, v in sorted(graph.edges()):
            expected.add_edge(mapping[u], mapping[v])
        graph.relabel(mapping)
        assert graph == expected
        assert list(graph.degrees()) == [900, 5, 7, 1]
        for vertex in expected.vertices():
            assert list(graph.neighbors(vertex)) == list(expected.neighbors(vertex))

    def test_relabel_rejects_colliding_labels(self):
        graph = UndirectedGraph(range(3))
        graph.add_edge(0, 1)
        with pytest.raises(ValueError):
            graph.relabel({0: 5, 1: 6, 2: 5})
        assert graph.has_edge(0, 1)


class TestErdosRenyi:
    def test_probability_conversion(self):
        assert expected_degree_to_probability(101, 10) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            expected_degree_to_probability(10, 100)

    def test_p_zero_and_one(self, rng):
        empty = erdos_renyi_graph(10, 0.0, rng)
        assert empty.edge_count == 0
        full = erdos_renyi_graph(10, 1.0, rng)
        assert full.edge_count == 45

    def test_vertex_labels_start_at_one(self, rng):
        graph = erdos_renyi_graph(5, 0.5, rng)
        assert graph.vertices() == [1, 2, 3, 4, 5]

    def test_expected_degree_is_respected(self, rng):
        n, d = 400, 12.0
        graph = erdos_renyi_expected_degree(n, d, rng)
        assert 2 * graph.edge_count / graph.vertex_count == pytest.approx(d, rel=0.2)

    def test_edge_probability_is_respected(self, rng):
        n, p = 300, 0.05
        graph = erdos_renyi_graph(n, p, rng)
        expected_edges = p * n * (n - 1) / 2
        assert graph.edge_count == pytest.approx(expected_edges, rel=0.2)

    def test_reproducible_with_same_rng_seed(self):
        a = erdos_renyi_graph(50, 0.1, np.random.default_rng(3))
        b = erdos_renyi_graph(50, 0.1, np.random.default_rng(3))
        assert a == b

    def test_no_self_loops_generated(self, rng):
        graph = erdos_renyi_graph(100, 0.2, rng)
        for u, v in graph.edges():
            assert u != v


# -- oracle: the scalar sampler and per-edge relabel the bulk ones replaced --
#
# Copied verbatim so the bulk versions can be held to the same edges, the
# same neighbor-set iteration order and the same generator state.


def _reference_erdos_renyi_graph(
    n: int,
    p: float,
    rng: np.random.Generator,
    *,
    first_id: int = 1,
) -> UndirectedGraph:
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")

    graph = UndirectedGraph(range(first_id, first_id + n))
    if n < 2 or p == 0.0:
        return graph

    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(first_id + u, first_id + v)
        return graph

    # Geometric skipping over the n(n-1)/2 pair indices: the gap between
    # consecutive present edges is geometrically distributed.
    total_pairs = n * (n - 1) // 2
    log_q = np.log1p(-p)
    index = -1
    while True:
        with np.errstate(over="ignore", divide="ignore"):
            ratio = np.log(1.0 - rng.random()) / log_q
        if not np.isfinite(ratio) or ratio >= total_pairs:
            # The skip jumps past every remaining pair (tiny p or unlucky draw).
            break
        index += int(np.floor(ratio)) + 1
        if index >= total_pairs:
            break
        u, v = _reference_pair_from_index(index, n)
        graph.add_edge(first_id + u, first_id + v)
    return graph


def _reference_pair_from_index(index: int, n: int) -> tuple[int, int]:
    """Map a linear index in [0, n(n-1)/2) to the (u, v) pair it encodes.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    # Row u contains (n - 1 - u) pairs; find the row by solving the
    # triangular-number inequality, then the column within the row.
    # cumulative(u) = u*n - u*(u+1)/2 pairs precede row u.
    u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * index)) // 2)
    # Guard against floating point rounding at row boundaries.
    while u * n - u * (u + 1) // 2 > index:
        u -= 1
    while (u + 1) * n - (u + 1) * (u + 2) // 2 <= index:
        u += 1
    preceding = u * n - u * (u + 1) // 2
    v = u + 1 + (index - preceding)
    return u, v


def _reference_acceptance_graph(
    population: PeerPopulation, probability: float, rng: np.random.Generator
) -> UndirectedGraph:
    ids = population.ids()
    n = len(ids)
    # Sample on contiguous labels then relabel onto the population ids.
    sampled = _reference_erdos_renyi_graph(n, float(probability), rng, first_id=0)
    graph = UndirectedGraph(ids)
    for u, v in sampled.edges():
        graph.add_edge(ids[u], ids[v])
    return graph


def _assert_same_graph(graph: UndirectedGraph, reference: UndirectedGraph) -> None:
    """Same edges, same vertex order, same iteration order of every neighbor set."""
    assert list(graph.edges()) == list(reference.edges())
    assert list(graph.degrees()) == list(reference.degrees())
    for vertex in reference.vertices():
        assert list(graph.neighbors(vertex)) == list(reference.neighbors(vertex))


def _generators(seed: int, buffered: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state; a buffered pair holds a spare 32-bit draw."""
    pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    if buffered:
        for rng in pair:
            rng.integers(0, 7)
    return pair


def _population(n: int, ranked: bool) -> PeerPopulation:
    """Peers 1..n, or n peers with ids from 100 up and one id missing."""
    if ranked:
        return PeerPopulation.ranked(n)
    population = PeerPopulation.ranked(n + 1, first_id=100)
    population.remove(100 + (n + 1) // 2)
    return population


_ORACLE_NS = (2, 3, 30, 200, 1000, 5000)
_ORACLE_PS = (1e-9, 1e-3, 0.05, 0.5, 0.999, 1.0)
#: The scalar oracle spends about 6 us per edge, so the grid keeps the cells
#: that expect at most this many edges (n = 1000 up to p = 0.05, n = 5000 up
#: to p = 1e-3).
_ORACLE_EDGE_BUDGET = 30_000
_ORACLE_GRID = [
    pytest.param(n, p, id=f"n{n}-p{p:g}")
    for n in _ORACLE_NS
    for p in _ORACLE_PS
    if p * n * (n - 1) / 2 <= _ORACLE_EDGE_BUDGET
]
_ORACLE_SEEDS = (0, 7, 2024)


class TestErdosRenyiOracle:
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    @pytest.mark.parametrize("n, p", _ORACLE_GRID)
    def test_sampler_matches_scalar_reference(self, n, p, buffered):
        for seed in _ORACLE_SEEDS:
            rng, reference_rng = _generators(seed, buffered)
            graph = erdos_renyi_graph(n, p, rng)
            _assert_same_graph(graph, _reference_erdos_renyi_graph(n, p, reference_rng))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("ranked", [True, False], ids=["ranked", "gapped-ids"])
    @pytest.mark.parametrize("n, p", _ORACLE_GRID)
    def test_acceptance_graph_matches_per_edge_relabel(self, n, p, ranked):
        population = _population(n, ranked)
        for seed in _ORACLE_SEEDS[:2]:
            rng, reference_rng = _generators(seed, buffered=seed % 2 == 1)
            acceptance = AcceptanceGraph.erdos_renyi(population, probability=p, rng=rng)
            reference = _reference_acceptance_graph(population, p, reference_rng)
            _assert_same_graph(acceptance.graph, reference)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_figure1_graph_matches_per_edge_relabel(self):
        # Figure 1's size and degree, as the matching benchmark samples them.
        population = PeerPopulation.ranked(5000)
        rng, reference_rng = _generators(7, buffered=False)
        acceptance = AcceptanceGraph.erdos_renyi(population, expected_degree=50, rng=rng)
        reference = _reference_acceptance_graph(population, 50 / 4999, reference_rng)
        _assert_same_graph(acceptance.graph, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("n, p", [(30, 0.5), (30, 0.999), (200, 0.05), (1000, 1e-3)])
    def test_chunk_boundaries_do_not_change_the_sample(self, n, p, chunk):
        # Real chunks hold 2**18 uniforms, more than any graph above needs.
        with mock.patch.object(erdos_renyi_module, "_CHUNK", chunk):
            for seed in _ORACLE_SEEDS:
                rng, reference_rng = _generators(seed, buffered=True)
                graph = erdos_renyi_graph(n, p, rng)
                _assert_same_graph(graph, _reference_erdos_renyi_graph(n, p, reference_rng))
                assert rng.bit_generator.state == reference_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 40),
        p=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-12, 0.5, 1.0 - 1e-12, 1.0]),
            st.floats(0.0, 1.0),
        ),
        first_id=st.integers(-300, 10**6),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.booleans(),
        chunk=st.sampled_from([1, 2, 7, 1 << 18]),
    )
    def test_sampler_matches_scalar_reference_property(
        self, n, p, first_id, seed, buffered, chunk
    ):
        rng, reference_rng = _generators(seed, buffered)
        with mock.patch.object(erdos_renyi_module, "_CHUNK", chunk):
            graph = erdos_renyi_graph(n, p, rng, first_id=first_id)
        reference = _reference_erdos_renyi_graph(n, p, reference_rng, first_id=first_id)
        _assert_same_graph(graph, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestPairDecode:
    def test_matches_triu_indices(self):
        for n in range(81):
            rows, cols = _pairs_from_indices(np.arange(n * (n - 1) // 2, dtype=np.int64), n)
            expected_rows, expected_cols = np.triu_indices(n, 1)
            np.testing.assert_array_equal(rows, expected_rows)
            np.testing.assert_array_equal(cols, expected_cols)

    @staticmethod
    def _assert_row_boundaries(rows: np.ndarray, n: int) -> None:
        """Each row's first pair, and the pair just before it, decode exactly."""
        starts = rows * n - rows * (rows + 1) // 2
        first_rows, first_cols = _pairs_from_indices(starts, n)
        np.testing.assert_array_equal(first_rows, rows)
        np.testing.assert_array_equal(first_cols, rows + 1)
        inner = rows > 0
        last_rows, last_cols = _pairs_from_indices(starts[inner] - 1, n)
        np.testing.assert_array_equal(last_rows, rows[inner] - 1)
        np.testing.assert_array_equal(last_cols, np.full(last_cols.size, n - 1))

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_every_row_boundary(self, n):
        self._assert_row_boundaries(np.arange(n - 1, dtype=np.int64), n)

    def test_rounding_is_corrected_at_a_billion_vertices(self):
        # At this size the floating-point estimate alone puts the last pair
        # of most rows one row too far; the integer steps must move it back.
        n = 10**9
        rows = np.unique(
            np.concatenate(
                (
                    np.arange(2000, dtype=np.int64),
                    np.random.default_rng(0).integers(1, n - 1, 5000),
                    np.arange(n - 2000, n - 1, dtype=np.int64),
                )
            )
        )
        self._assert_row_boundaries(rows, n)


class TestOtherGenerators:
    def test_complete_graph(self):
        graph = complete_graph(6)
        assert graph.edge_count == 15
        assert all(graph.degree(v) == 5 for v in graph.vertices())

