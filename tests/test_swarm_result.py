"""The contract of ``SwarmResult.peers`` on both engines.

The fast engine's ``peers`` is a read-only mapping over the backend's
columns (:class:`~repro.bittorrent.fast.swarm.ColumnarPeers`): its run
builds no :class:`SwarmPeer`, and the first read of a value builds one
per key, in one pass.  The reference engine returns a plain dict of the
peer objects it ran on.  Either way the keys ascend, a result pickles to
equal peers, and the two engines' results are equal.  The run has
departures, crashes without a rejoin and crashes with one, so the
result holds peers of every kind.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bittorrent.fast.swarm import ColumnarPeers, _PairTable
from repro.bittorrent.swarm import SwarmConfig, SwarmPeer, SwarmSimulator
from repro.bittorrent.transfers import pair_keys

from test_swarm_engine_equivalence import assert_results_identical

CONFIG = SwarmConfig(
    leechers=20,
    seeds=2,
    piece_count=40,
    rounds=20,
    start_completion=0.2,
    seed_upload_kbps=600.0,
    faults="crash:3@4~3,crash:2@8,outage:6+2",
)


def _run(engine: str):
    return SwarmSimulator(CONFIG, seed=7, engine=engine, scenario="poisson").run()


@pytest.fixture
def built(monkeypatch):
    """Counts the :class:`SwarmPeer`\\ s constructed from here on."""
    count = {"peers": 0}
    init = SwarmPeer.__init__

    def counting_init(self, *args, **kwargs):
        count["peers"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SwarmPeer, "__init__", counting_init)
    return count


def test_a_fast_run_builds_no_swarm_peer(built):
    result = _run("fast")
    assert isinstance(result.peers, ColumnarPeers)
    population = CONFIG.leechers + CONFIG.seeds + result.arrivals
    assert len(result.peers) == len(list(result.peers)) == population
    assert 1 in result.peers and len(result.peers) in result.peers
    assert 0 not in result.peers and len(result.peers) + 1 not in result.peers
    pickle.dumps(result)
    assert built["peers"] == 0


def test_the_first_read_builds_one_peer_per_key_and_a_second_read_none(built):
    result = _run("fast")
    peers = list(result.peers.values())
    assert built["peers"] == len(peers) == len(result.peers)
    assert list(result.peers.values()) == peers
    assert [result.peers[pid] for pid in result.peers] == peers
    assert [peer for _, peer in result.peers.items()] == peers
    assert built["peers"] == len(peers)


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_the_keys_ascend_over_peers_of_every_kind(engine):
    result = _run(engine)
    pids = list(result.peers)
    assert pids == list(range(1, len(pids) + 1))
    assert [pid for pid, _ in result.peers.items()] == pids
    assert [peer.peer_id for peer in result.peers.values()] == pids
    gone = [peer for peer in result.peers.values() if peer.departed_round is not None]
    crashed = [peer for peer in gone if not peer.neighbors]
    assert len(gone) == result.departures and crashed and len(crashed) < len(gone)


def test_the_fast_peers_refuse_item_assignment():
    peers = _run("fast").peers
    for read in (False, True):
        if read:
            list(peers.values())
        with pytest.raises(TypeError):
            peers[1] = peers[2]
        with pytest.raises(TypeError):
            del peers[1]


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_a_result_pickles_to_equal_peers(engine, read_first):
    result = _run(engine)
    if read_first:
        list(result.peers.values())
    assert_results_identical(result, pickle.loads(pickle.dumps(result)))


def test_the_fast_result_equals_the_reference_one():
    assert_results_identical(_run("reference"), _run("fast"))


def test_pair_table_dicts_read_ascending_rows_in_serial_order():
    # Row 0 received from rows 3 and 1, in that order of first transfer.
    table = _PairTable(
        pair_keys(np.array([0, 0, 2, 5]), np.array([3, 1, 0, 2])),
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([0, 1, 2, 3]),
    )
    dicts = table.dicts(np.array([0, 1, 2, 5]))
    assert [list(row.items()) for row in dicts] == [
        [(4, 1.0), (2, 2.0)],
        [],
        [(1, 3.0)],
        [(3, 4.0)],
    ]
    assert table.dicts(np.array([1, 3])) == [{}, {}]
    assert table.dicts(np.empty(0, dtype=np.int64)) == []


def test_pair_table_dicts_refuse_rows_out_of_order():
    # Unchecked, rows 5, 0, 2 would read the window from row 5's first
    # pair to row 2's last, which is empty: three empty dicts, no error.
    table = _PairTable(
        pair_keys(np.array([0, 2, 5]), np.array([1, 0, 2])),
        np.array([1.0, 2.0, 3.0]),
        np.array([0, 1, 2]),
    )
    with pytest.raises(ValueError, match="row 0 at position 1 follows row 5"):
        table.dicts(np.array([5, 0, 2]))
    with pytest.raises(ValueError, match="row 2 at position 2 follows row 5"):
        table.dicts(np.array([0, 5, 2]))
