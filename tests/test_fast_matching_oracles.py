"""The fast matching engine's set-up against its per-vertex oracles.

``PeerArrays.build`` reads every neighbor set in one pass and orders all
rows with two sorts, ``fast_stable_table`` runs Algorithm 1 in one C call,
and both it and ``FastMatching.load_pairs`` set every threshold in one
vectorized pass.  The oracles below are the per-vertex build loop and the
Python Algorithm 1 loop they replaced, kept verbatim, and the per-peer
``_refresh_thr``.  A hypothesis property holds the new code to them on
small instances: mixed slot budgets 0-3, isolated peers, complete graphs,
ids made non-contiguous by ``remove_peer`` and ``add_peer`` (negative ids
included), and rankings over a larger population than the graph's.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acceptance import AcceptanceGraph
from repro.core.fast import kernel
from repro.core.fast.arrays import PeerArrays
from repro.core.fast.engine import FastMatching, fast_stable_table
from repro.core.peer import Peer, PeerPopulation
from repro.core.ranking import GlobalRanking

_EMPTY = -1


def _per_vertex_build(acceptance, ranking=None) -> PeerArrays:
    """``PeerArrays.build`` before the whole-array build, verbatim."""
    if ranking is None:
        ranking = GlobalRanking.from_population(acceptance.population)
    ids = np.asarray(acceptance.peer_ids(), dtype=np.int64)
    n = int(ids.size)
    rank = np.fromiter(
        (ranking.rank(int(pid)) for pid in ids), dtype=np.int64, count=n
    )
    caps = np.fromiter(
        (acceptance.population.get(int(pid)).slots for pid in ids),
        dtype=np.int64,
        count=n,
    )

    graph = acceptance.graph
    degrees = np.fromiter(
        (len(graph.neighbors(int(pid))) for pid in ids), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])

    adj = np.empty(total, dtype=np.int64)
    adj_by_id = np.empty(total, dtype=np.int64)
    for i, pid in enumerate(ids):
        nbr_ids = np.fromiter(graph.neighbors(int(pid)), dtype=np.int64)
        # ids is sorted, so searchsorted maps id -> dense index.
        nbr_idx = np.searchsorted(ids, nbr_ids)
        start, end = indptr[i], indptr[i + 1]
        adj_by_id[start:end] = np.sort(nbr_idx)
        adj[start:end] = nbr_idx[np.argsort(rank[nbr_idx], kind="stable")]
    adj_rank = rank[adj]
    adj_ids = ids[adj_by_id]

    for array in (ids, rank, caps, indptr, adj, adj_rank, adj_by_id, adj_ids):
        array.setflags(write=False)
    return PeerArrays(
        ids=ids,
        rank=rank,
        caps=caps,
        indptr=indptr,
        adj=adj,
        adj_rank=adj_rank,
        adj_by_id=adj_by_id,
        adj_ids=adj_ids,
        ranking=ranking,
    )


def _python_stable_table(arrays: PeerArrays) -> FastMatching:
    """``fast_stable_table`` before the C kernel, verbatim."""
    n = arrays.n
    width = max(1, arrays.b_max)
    mate = np.full((n, width), _EMPTY, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    remaining = arrays.caps.copy()
    order = np.argsort(arrays.rank, kind="stable")
    for i in order:
        budget = int(remaining[i])
        if budget <= 0:
            continue
        start, end = arrays.indptr[i], arrays.indptr[i + 1]
        neighbors = arrays.adj[start:end]
        # Better-ranked neighbors already took every pairing they wanted
        # when they were processed, so only worse-ranked candidates with
        # capacity left are eligible.
        eligible = neighbors[
            (arrays.adj_rank[start:end] > arrays.rank[i]) & (remaining[neighbors] > 0)
        ]
        if eligible.size == 0:
            continue
        taken = eligible[:budget]
        mate[i, deg[i]:deg[i] + taken.size] = taken
        deg[i] += taken.size
        mate[taken, deg[taken]] = i
        deg[taken] += 1
        remaining[taken] -= 1
        remaining[i] -= taken.size

    matching = FastMatching(arrays)
    matching.mate = mate
    matching.deg = deg.tolist()
    for i in range(n):
        matching._refresh_thr(i)
    return matching


@st.composite
def _instances(draw):
    """An acceptance graph and the ranking to build it with."""
    n = draw(st.integers(min_value=1, max_value=80))
    slots = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    first_id = draw(st.integers(min_value=-3, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    population = PeerPopulation.from_scores(rng.random(n), slots=slots, first_id=first_id)
    if draw(st.booleans()):
        acceptance = AcceptanceGraph.complete(population)
    else:
        # Probability 0 (or a sparse graph) leaves peers isolated.
        probability = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9]))
        acceptance = AcceptanceGraph.erdos_renyi(population, probability=probability, rng=rng)
    before = GlobalRanking.from_population(acceptance.population)
    for _ in range(draw(st.integers(min_value=0, max_value=n - 1))):
        acceptance.remove_peer(int(rng.choice(acceptance.peer_ids())))
    joins = draw(st.integers(min_value=0, max_value=6))
    for _ in range(joins):
        ids = acceptance.peer_ids()
        acceptable = [pid for pid in ids if rng.random() < 0.3]
        peer = Peer(ids[-1] + 1, float(rng.random()), int(rng.integers(0, 4)))
        acceptance.add_peer(peer, acceptable)
    # A ranking over the population before the departures gives ranks
    # that skip values and exceed the peer count.
    ranking = before if joins == 0 and draw(st.booleans()) else None
    return acceptance, ranking


_settings = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_FIELDS = ("ids", "rank", "caps", "indptr", "adj", "adj_rank", "adj_by_id", "adj_ids")


@_settings
@given(instance=_instances())
def test_build_equals_the_per_vertex_build(instance):
    acceptance, ranking = instance
    expected = _per_vertex_build(acceptance, ranking)
    arrays = PeerArrays.build(acceptance, ranking)
    for name in _FIELDS:
        value = getattr(arrays, name)
        assert value.dtype == np.int64, name
        assert not value.flags.writeable, name
        assert value.tolist() == getattr(expected, name).tolist(), name
    assert arrays.ranking is expected.ranking or ranking is None


@_settings
@given(instance=_instances())
def test_stable_table_equals_the_python_loop(instance):
    acceptance, ranking = instance
    arrays = PeerArrays.build(acceptance, ranking)
    expected = _python_stable_table(arrays)
    table = fast_stable_table(arrays)
    assert table.mate.tolist() == expected.mate.tolist()
    assert table.deg == expected.deg
    assert table.thr.dtype == np.int64
    assert table.thr.tolist() == expected.thr.tolist()
    assert table._thr_list == expected._thr_list


@_settings
@given(instance=_instances(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_load_pairs_sets_the_thresholds_refresh_thr_sets(instance, seed):
    acceptance, _ = instance
    arrays = PeerArrays.build(acceptance)
    # A feasible configuration in no particular order: edges taken in a
    # random order while both ends have a slot left, so full peers' mates
    # are not a rank prefix.
    ids = arrays.ids.tolist()
    edges = [(ids[i], ids[j]) for i in range(arrays.n) for j in arrays.neighborhood(i) if i < j]
    np.random.default_rng(seed).shuffle(edges)
    free = dict(zip(ids, arrays.caps.tolist()))
    pairs = []
    for a, b in edges:
        if free[a] and free[b]:
            free[a] -= 1
            free[b] -= 1
            pairs.append((a, b))
    matching = FastMatching(arrays)
    matching.load_pairs(pairs)
    expected = FastMatching(arrays)
    expected.mate = matching.mate.copy()
    expected.deg = list(matching.deg)
    for i in range(arrays.n):
        expected._refresh_thr(i)
    assert matching.thr.dtype == np.int64
    assert matching.thr.tolist() == expected.thr.tolist()
    assert matching._thr_list == expected._thr_list


def _arrays():
    population = PeerPopulation.ranked(4, slots=[1, 2, 0, 1])
    return PeerArrays.build(AcceptanceGraph.complete(population))


def test_stable_table_refuses_wrong_arrays_before_the_call():
    arrays = _arrays()
    args = dict(rank=arrays.rank, caps=arrays.caps, indptr=arrays.indptr, adj=arrays.adj, width=2)

    def call(**changes):
        return kernel.stable_table(**{**args, **changes})

    with pytest.raises(ctypes.ArgumentError):
        call(rank=arrays.rank.astype(np.int32))
    with pytest.raises(ValueError):
        call(caps=arrays.caps[:3])
    for bad in (
        dict(adj=arrays.adj[:-1]),
        dict(adj=np.where(arrays.adj == 3, 4, arrays.adj)),
        dict(indptr=arrays.indptr[[0, 2, 1, 3, 4]]),
    ):
        with pytest.raises(IndexError):
            call(**bad)
    with pytest.raises(ValueError):
        call(width=1)
    mate, deg = call()
    assert deg.tolist() == [1, 2, 0, 1]
    assert mate.tolist() == [[1, -1], [0, 3], [-1, -1], [1, -1]]
