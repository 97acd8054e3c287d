"""The one packing of pairs: ``pair_keys``, ``split_keys`` and ``find_keys``.

The round protocol's pid pairs and the fast backend's row pairs and CSR
edges all pack through :mod:`repro.bittorrent.transfers`.  Hypothesis
holds ``find_keys`` to a dict lookup, and ``pair_keys`` to the order of
the ``(first, second)`` tuples it packs over every id a fast swarm can
hold, up to its largest pid, :data:`~repro.bittorrent.fast.swarm.MAX_PEERS`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bittorrent.fast.swarm import MAX_PEERS
from repro.bittorrent.transfers import find_keys, pair_keys, split_keys

_ids = st.integers(min_value=0, max_value=MAX_PEERS)
_keys = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def _lookups(draw):
    """Sorted unique keys, and queries that hit some of them and miss."""
    keys = sorted(draw(st.sets(_keys, max_size=40)))
    pool = st.one_of(_keys, st.sampled_from(keys)) if keys else _keys
    return keys, draw(st.lists(pool, max_size=40))


@settings(max_examples=300, deadline=None)
@given(_lookups())
@example(([], []))
@example(([], [0, 7]))
@example(([3, 9], []))
@example(([0, 2**63 - 1], [2**63 - 1, 0, 1, 2**63 - 2]))
def test_find_keys_is_a_dict_lookup(lookup):
    keys, queries = lookup
    index = {key: at for at, key in enumerate(keys)}
    found = find_keys(np.array(keys, dtype=np.int64), np.array(queries, dtype=np.int64))
    assert found.tolist() == [index.get(query, -1) for query in queries]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ids, _ids), max_size=40))
def test_pair_keys_sort_like_the_tuples_they_pack(pairs):
    first = np.array([a for a, _ in pairs], dtype=np.int64)
    second = np.array([b for _, b in pairs], dtype=np.int64)
    keys = pair_keys(first, second)
    assert (keys >= 0).all()
    low, high = split_keys(np.sort(keys))
    assert list(zip(low.tolist(), high.tolist())) == sorted(pairs)


def test_the_largest_pid_packs_round_trips_and_sorts_last():
    first = np.array([0, 1, MAX_PEERS - 1, MAX_PEERS, 2], dtype=np.int64)
    second = np.array([MAX_PEERS, 0, MAX_PEERS, 1, 3], dtype=np.int64)
    keys = pair_keys(first, second)
    assert (keys >= 0).all()
    low, high = split_keys(keys)
    assert low.tolist() == first.tolist()
    assert high.tolist() == second.tolist()
    assert int(keys.argmax()) == 3
