"""The fast matching engine against its per-vertex and Python oracles.

``PeerArrays.build`` reads every neighbor set in one pass and orders all
rows with two sorts, ``fast_stable_table`` runs Algorithm 1 in one C call,
both it and ``FastMatching.load_pairs`` set every threshold in one
vectorized pass, ``load_pairs`` and ``pairs`` work on whole arrays, and
``FastMatching.initiative`` runs one initiative in one C call.  The
oracles below are the code they replaced, kept verbatim: the per-vertex
build loop, the Python Algorithm 1 loop, and the Python configuration
class with its initiative path (best-blocking-mate scan, blocking test,
worst-mate drops, match and per-peer ``_refresh_thr``) and its pair
loops.  Hypothesis properties hold the new code to them on small
instances: mixed slot budgets 0-3, isolated peers, complete graphs, ids
made non-contiguous by ``remove_peer`` and ``add_peer`` (negative ids
included), and rankings over a larger population than the graph's.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import Iterable, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acceptance import AcceptanceGraph
from repro.core.exceptions import UnknownPeerError
from repro.core.fast import kernel
from repro.core.fast.arrays import PeerArrays
from repro.core.fast.engine import FastMatching, fast_stable_table
from repro.core.peer import Peer, PeerPopulation
from repro.core.ranking import GlobalRanking

_EMPTY = -1

# Below this many candidates a scalar scan beats the vectorized mask
# (numpy call overhead dominates on tiny slices).
_SCALAR_SCAN_LIMIT = 8


class _PythonMatching:
    """``FastMatching`` before the C initiative, verbatim: list mirrors, the
    Python initiative path and the pair loops.  ``load_pairs`` inlines the
    removed ``PeerArrays.index_of``."""

    def __init__(self, arrays: PeerArrays) -> None:
        self.arrays = arrays
        n = arrays.n
        self.width = max(1, arrays.b_max)
        self.inf_rank = n + 1
        self.mate = np.full((n, self.width), _EMPTY, dtype=np.int64)
        self.deg: List[int] = [0] * n
        # thr is kept twice: as a numpy array for vectorized gathers in the
        # blocking scan, and as a Python list for O(100ns) scalar reads in
        # the per-initiative bookkeeping.  _refresh_thr updates both for
        # one peer, _set_thresholds for all of them.
        self.thr = np.where(arrays.caps > 0, self.inf_rank, 0).astype(np.int64)
        self._thr_list: List[int] = self.thr.tolist()
        self._rank_list: List[int] = arrays.rank.tolist()
        self._caps_list: List[int] = arrays.caps.tolist()
        self._indptr_list: List[int] = arrays.indptr.tolist()

    def is_matched(self, i: int, j: int) -> bool:
        """Whether ``i`` and ``j`` are currently matched together."""
        row = self.mate[i]
        for position in range(self.deg[i]):
            if row[position] == j:
                return True
        return False

    def worst_mate(self, i: int) -> int:
        """The worst-ranked current mate of ``i`` (requires deg > 0)."""
        row = self.mate[i]
        rank = self._rank_list
        worst = int(row[0])
        worst_rank = rank[worst]
        for position in range(1, self.deg[i]):
            candidate = int(row[position])
            if rank[candidate] > worst_rank:
                worst, worst_rank = candidate, rank[candidate]
        return worst

    def is_blocking(self, i: int, j: int) -> bool:
        """Whether the acceptance edge (i, j) is a blocking pair.

        Callers must pass an actual acceptance-graph edge; the membership
        test is not repeated here.
        """
        if i == j:
            return False
        rank = self._rank_list
        thr = self._thr_list
        if rank[j] >= thr[i] or rank[i] >= thr[j]:
            return False
        return not self.is_matched(i, j)

    def best_blocking_mate(self, i: int) -> int:
        """Best-ranked blocking mate of ``i``, or ``-1`` when none exists.

        Matches :func:`repro.core.matching.find_blocking_mate` on the full
        acceptance neighborhood.
        """
        thr = self._thr_list
        thr_i = thr[i]
        if thr_i <= 1:
            return _EMPTY
        start = self._indptr_list[i]
        end = self._indptr_list[i + 1]
        if start == end:
            return _EMPTY
        arrays = self.arrays
        # Neighbors are sorted by rank: candidates acceptable to i form a
        # prefix (rank < thr[i]).
        if thr_i == self.inf_rank:
            cutoff = end - start
        else:
            cutoff = int(
                np.searchsorted(arrays.adj_rank[start:end], thr_i, side="left")
            )
            if cutoff == 0:
                return _EMPTY
        rank_i = self._rank_list[i]
        adj = arrays.adj
        if cutoff <= _SCALAR_SCAN_LIMIT:
            for offset in range(cutoff):
                candidate = int(adj[start + offset])
                if rank_i < thr[candidate] and not self.is_matched(i, candidate):
                    return candidate
            return _EMPTY
        candidates = adj[start:start + cutoff]
        mask = self.thr[candidates] > rank_i
        row = self.mate[i]
        for position in range(self.deg[i]):
            mask &= candidates != row[position]
        position = int(mask.argmax())
        if not mask[position]:
            return _EMPTY
        return int(candidates[position])

    def _refresh_thr(self, i: int) -> None:
        degree = self.deg[i]
        if degree < self._caps_list[i]:
            value = self.inf_rank
        elif degree == 0:
            value = 0
        else:
            row = self.mate[i]
            rank = self._rank_list
            value = rank[int(row[0])]
            for position in range(1, degree):
                candidate_rank = rank[int(row[position])]
                if candidate_rank > value:
                    value = candidate_rank
        self.thr[i] = value
        self._thr_list[i] = value

    def _set_thresholds(self) -> None:
        """Every peer's threshold from the mate table, as ``_refresh_thr`` sets one."""
        mate_ranks = np.where(self.mate >= 0, self.arrays.rank[self.mate], 0)
        self.thr = np.where(
            np.asarray(self.deg) < self.arrays.caps, self.inf_rank, mate_ranks.max(axis=1)
        )
        self._thr_list = self.thr.tolist()

    def _drop_direction(self, a: int, b: int) -> None:
        row = self.mate[a]
        degree = self.deg[a]
        for position in range(degree):
            if row[position] == b:
                row[position] = row[degree - 1]
                row[degree - 1] = _EMPTY
                self.deg[a] = degree - 1
                return
        raise ValueError(f"peers {a} and {b} are not matched")

    def unmatch(self, i: int, j: int) -> None:
        """Break the collaboration between ``i`` and ``j``."""
        self._drop_direction(i, j)
        self._drop_direction(j, i)
        self._refresh_thr(i)
        self._refresh_thr(j)

    def match(self, i: int, j: int) -> None:
        """Match ``i`` and ``j`` together (both must have a free slot)."""
        self.mate[i, self.deg[i]] = j
        self.mate[j, self.deg[j]] = i
        self.deg[i] += 1
        self.deg[j] += 1
        self._refresh_thr(i)
        self._refresh_thr(j)

    def apply_initiative(self, i: int, j: int) -> bool:
        """Execute the initiative pairing ``i`` with ``j``.

        Mirrors :func:`repro.core.initiatives.apply_initiative`: when
        (i, j) blocks, both endpoints drop their worst mate if full, then
        match.  Returns whether the configuration changed.
        """
        if not self.is_blocking(i, j):
            return False
        for endpoint in (i, j):
            if self.deg[endpoint] >= self._caps_list[endpoint]:
                self.unmatch(endpoint, self.worst_mate(endpoint))
        self.match(i, j)
        return True

    def pairs(self) -> List[Tuple[int, int]]:
        """Matched pairs as (min_id, max_id) peer-id tuples."""
        ids = self.arrays.ids
        out: List[Tuple[int, int]] = []
        for i in range(self.arrays.n):
            a = int(ids[i])
            for j in self.mate[i, : self.deg[i]]:
                b = int(ids[j])
                if a < b:
                    out.append((a, b))
        return out

    def load_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Reset the configuration to the given peer-id pairs."""
        self.mate.fill(_EMPTY)
        n = self.arrays.n
        self.deg = [0] * n
        index = {int(pid): i for i, pid in enumerate(self.arrays.ids)}
        for a, b in pairs:
            i, j = index[a], index[b]
            self.mate[i, self.deg[i]] = j
            self.mate[j, self.deg[j]] = i
            self.deg[i] += 1
            self.deg[j] += 1
        self._set_thresholds()


def _python_initiative(matching: _PythonMatching, i: int, j: int) -> bool:
    """One initiative as ``FastInitiativeStrategy.take_initiative`` ran it,
    with best-mate's ``propose`` for the target ``BEST_MATE``."""
    target = matching.best_blocking_mate(i) if j == kernel.BEST_MATE else j
    if target < 0:
        return False
    return matching.apply_initiative(i, target)


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


def _python_stable_table(arrays: PeerArrays) -> _PythonMatching:
    """``fast_stable_table`` before the C kernel, verbatim, on the Python class."""
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

    matching = _PythonMatching(arrays)
    matching.mate[:] = mate
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
    assert table.deg.dtype == np.int64
    assert table.deg.tolist() == expected.deg
    assert table.thr.dtype == np.int64
    assert table.thr.tolist() == expected.thr.tolist() == expected._thr_list


def test_build_names_a_peer_missing_from_the_population(monkeypatch):
    population = PeerPopulation.ranked(5, slots=1)
    acceptance = AcceptanceGraph.complete(population)
    ranking = GlobalRanking.from_population(population)
    ids = acceptance.peer_ids()
    acceptance.population.remove(5)
    # The graph still names peer 5, which the population no longer holds.
    monkeypatch.setattr(acceptance, "peer_ids", lambda: ids)
    with pytest.raises(UnknownPeerError, match="peer 5 not in population"):
        PeerArrays.build(acceptance, ranking)


def _feasible_pairs(
    arrays: PeerArrays, rng: np.random.Generator, keep: float = 1.0
) -> List[Tuple[int, int]]:
    """A feasible configuration in no particular order, as peer-id pairs.

    Edges are taken in a random order while both ends have a slot left, so
    full peers' mates are not a rank prefix.  With ``keep < 1`` each edge
    is offered with that probability, so the configuration need not be
    maximal.
    """
    ids = arrays.ids.tolist()
    edges = [(ids[i], ids[j]) for i in range(arrays.n) for j in arrays.neighborhood(i) if i < j]
    rng.shuffle(edges)
    free = dict(zip(ids, arrays.caps.tolist()))
    pairs = []
    for a, b in edges:
        if keep < 1.0 and rng.random() >= keep:
            continue
        if free[a] and free[b]:
            free[a] -= 1
            free[b] -= 1
            pairs.append((a, b))
    return pairs


@_settings
@given(instance=_instances(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_load_pairs_sets_the_thresholds_refresh_thr_sets(instance, seed):
    acceptance, _ = instance
    arrays = PeerArrays.build(acceptance)
    pairs = _feasible_pairs(arrays, np.random.default_rng(seed))
    matching = FastMatching(arrays)
    matching.load_pairs(pairs)
    expected = _PythonMatching(arrays)
    expected.mate[:] = matching.mate
    expected.deg = matching.deg.tolist()
    for i in range(arrays.n):
        expected._refresh_thr(i)
    assert matching.thr.dtype == np.int64
    assert matching.thr.tolist() == expected.thr.tolist() == expected._thr_list


def _assert_same_configuration(fast: FastMatching, oracle: _PythonMatching) -> None:
    assert fast.mate.tolist() == oracle.mate.tolist()
    assert fast.deg.tolist() == oracle.deg
    assert fast.thr.tolist() == oracle.thr.tolist() == oracle._thr_list


@_settings
@given(
    instance=_instances(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    keep=st.floats(min_value=0.0, max_value=1.0),
)
def test_pairs_and_load_pairs_equal_the_loops(instance, seed, keep):
    acceptance, ranking = instance
    arrays = PeerArrays.build(acceptance, ranking)
    rng = np.random.default_rng(seed)
    # About half of the pairs written (high, low).
    pairs = [
        (b, a) if rng.random() < 0.5 else (a, b) for a, b in _feasible_pairs(arrays, rng, keep)
    ]
    fast = FastMatching(arrays)
    fast.load_pairs(pairs)
    oracle = _PythonMatching(arrays)
    oracle.load_pairs(pairs)
    _assert_same_configuration(fast, oracle)
    assert fast.pairs() == oracle.pairs()
    assert fast_stable_table(arrays).pairs() == _python_stable_table(arrays).pairs()


def _ranking_past_n(acceptance: AcceptanceGraph, phantoms: int) -> GlobalRanking:
    """The population's ranking behind ``phantoms`` better peers outside the
    graph, so the worst ``phantoms`` peers rank past ``n``."""
    scores = acceptance.population.scores()
    top, lowest_id = max(scores.values()), min(scores)
    better = {lowest_id - 1 - k: top + 1.0 + k for k in range(phantoms)}
    return GlobalRanking({**scores, **better})


@_settings
@given(
    instance=_instances(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    keep=st.floats(min_value=0.0, max_value=1.0),
    best_mate_share=st.sampled_from([0.0, 0.5, 1.0]),
    phantoms=st.sampled_from([0, 0, 1, 2]),
)
def test_initiatives_equal_the_python_path(instance, seed, keep, best_mate_share, phantoms):
    """After every initiative, the C path and the Python path agree on
    the outcome and on the whole configuration."""
    acceptance, ranking = instance
    if phantoms:
        ranking = _ranking_past_n(acceptance, phantoms)
    arrays = PeerArrays.build(acceptance, ranking)
    rng = np.random.default_rng(seed)
    pairs = _feasible_pairs(arrays, rng, keep)
    fast = FastMatching(arrays)
    fast.load_pairs(pairs)
    oracle = _PythonMatching(arrays)
    oracle.load_pairs(pairs)
    for _ in range(4 * arrays.n + 8):
        i = int(rng.integers(arrays.n))
        row = arrays.neighborhood(i)
        if row.size and rng.random() >= best_mate_share:
            j = int(row[rng.integers(row.size)])
        else:
            j = kernel.BEST_MATE
        assert fast.initiative(i, j) == _python_initiative(oracle, i, j)
        _assert_same_configuration(fast, oracle)
    assert fast.pairs() == oracle.pairs()


def test_ranks_past_n_follow_the_python_path():
    """A ranking over a larger population gives ranks n + 1 and beyond, which
    a peer with a free slot (threshold n + 1) refuses on both paths: every
    initiative from every feasible configuration."""
    population = PeerPopulation.ranked(6, slots=[1, 1, 2, 1, 1, 1])
    acceptance = AcceptanceGraph.complete(population)
    ranking = GlobalRanking.from_population(population)
    for peer_id in (1, 2):
        acceptance.remove_peer(peer_id)
    arrays = PeerArrays.build(acceptance, ranking)
    assert arrays.rank.tolist() == [3, 4, 5, 6]
    edges = list(combinations(arrays.ids.tolist(), 2))
    starts = [
        list(pairs)
        for size in range(len(edges) + 1)
        for pairs in combinations(edges, size)
        if all(
            sum(peer in pair for pair in pairs) <= slots
            for peer, slots in zip(arrays.ids.tolist(), arrays.caps.tolist())
        )
    ]
    for start in starts:
        for i in range(arrays.n):
            for j in [kernel.BEST_MATE, *arrays.neighborhood(i).tolist()]:
                fast = FastMatching(arrays)
                fast.load_pairs(start)
                oracle = _PythonMatching(arrays)
                oracle.load_pairs(start)
                assert fast.initiative(i, j) == _python_initiative(oracle, i, j)
                _assert_same_configuration(fast, oracle)


def test_load_pairs_refuses_unknown_ids_and_overfilled_rows():
    arrays = _arrays()
    a, b, c, d = arrays.ids.tolist()
    matching = FastMatching(arrays)
    matching.load_pairs([(a, b)])
    before = (matching.mate.copy(), matching.deg.copy(), matching.thr.copy())
    for pairs in ([(a, d + 1)], [(a - 1, b)], [(b, a + 100)]):
        with pytest.raises(UnknownPeerError):
            matching.load_pairs(pairs)
    # a has one slot and c none.
    for pairs in ([(a, b), (a, d)], [(b, c)]):
        with pytest.raises(ValueError, match="more mates than its slots"):
            matching.load_pairs(pairs)
    after = (matching.mate, matching.deg, matching.thr)
    assert all((old == new).all() for old, new in zip(before, after))


def test_configuration_arrays_are_written_in_place():
    arrays = _arrays()
    a, b, _, d = arrays.ids.tolist()
    table = fast_stable_table(arrays)
    matching = FastMatching(arrays)
    held = (matching.mate, matching.deg, matching.thr)
    matching.load_pairs([(b, d)])
    matching._set_thresholds()
    assert matching.initiative(0)
    matching.load_pairs([(a, b)])
    for configuration in (table, matching):
        state = configuration._state
        arrays_now = (configuration.mate, configuration.deg, configuration.thr)
        assert [state.mate, state.deg, state.thr] == [array.ctypes.data for array in arrays_now]
    assert all(old is new for old, new in zip(held, (matching.mate, matching.deg, matching.thr)))
    assert matching.deg.tolist() == [1, 1, 0, 0]


def test_out_of_range_rows_raise_and_change_nothing():
    arrays = _arrays()
    matching = fast_stable_table(arrays)
    before = (matching.mate.copy(), matching.deg.copy(), matching.thr.copy())
    for i, j in ((4, kernel.BEST_MATE), (-1, kernel.BEST_MATE), (0, 4), (0, -2), (2**40, 0)):
        with pytest.raises(IndexError):
            matching.initiative(i, j)
    for i, j in ((0, 4), (4, 0), (0, kernel.BEST_MATE), (-1, 1)):
        with pytest.raises(IndexError):
            matching.is_blocking(i, j)
    after = (matching.mate, matching.deg, matching.thr)
    assert all((old == new).all() for old, new in zip(before, after))


_NULL_STATE_RUN = """
from repro.core.fast import kernel
state = kernel.MatchingState(3, 1)  # every array pointer NULL
library = kernel.load()
print(*(library.initiative(state, i, j) for i, j in ((3, -1), (-1, 0), (0, 3), (0, -2))))
print(*(library.is_blocking(state, i, j) for i, j in ((3, 0), (0, -1))))
"""


def test_out_of_range_rows_are_refused_before_the_kernel_reads_an_array():
    """On a state whose array pointers are all NULL, any read would crash."""
    src = Path(kernel.__file__).resolve().parents[3]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run(
        [sys.executable, "-c", _NULL_STATE_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["-1"] * 6


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


def test_matching_state_refuses_wrong_arrays():
    arrays = _arrays()
    n = arrays.n

    def state(arrays=arrays, mate=None, deg=None, thr=None):
        return kernel.matching_state(
            arrays,
            np.full((n, 2), -1, dtype=np.int64) if mate is None else mate,
            np.zeros(n, dtype=np.int64) if deg is None else deg,
            np.zeros(n, dtype=np.int64) if thr is None else thr,
        )

    read_only = np.zeros(n, dtype=np.int64)
    read_only.setflags(write=False)
    for bad in (
        dict(deg=np.zeros(n, dtype=np.int32)),
        dict(mate=np.full((2, n), -1, dtype=np.int64).T),
        dict(thr=read_only),
        dict(arrays=dataclasses.replace(arrays, rank=arrays.rank.astype(np.int32))),
    ):
        with pytest.raises(TypeError):
            state(**bad)
    for bad in (
        dict(deg=np.zeros(n + 1, dtype=np.int64)),
        dict(mate=np.full((n - 1, 2), -1, dtype=np.int64)),
        dict(mate=np.full(n, -1, dtype=np.int64)),
        dict(arrays=dataclasses.replace(arrays, adj_rank=arrays.adj_rank[:-1])),
        dict(mate=np.full((n, 1), -1, dtype=np.int64)),
        dict(arrays=dataclasses.replace(arrays, caps=np.array([1, -1, 0, 1]))),
    ):
        with pytest.raises(ValueError):
            state(**bad)
    with pytest.raises(IndexError):
        state(arrays=dataclasses.replace(arrays, adj=np.where(arrays.adj == 3, 4, arrays.adj)))
    assert state().n == n
