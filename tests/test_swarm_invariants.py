"""Two state invariants of the swarm, checked after every step that changes pieces.

After every apply pass and every membership step, on both engines:

* piece availability equals the column sums of the present peers'
  bitfields -- on the fast engine its incremental ``counts`` and its
  per-row ``have_count`` against the unpacked bit matrix, on the
  reference engine :func:`piece_availability` and each peer's count
  against the held pieces;
* a present downloading leecher has its completion round set exactly
  when it holds every piece.

The runs cover every scenario preset, with no faults and with each fault
preset under the full resilience policy, for the homogeneous population
and the hostile behavior mix.  The hooks are wrapped the way
``tests/test_swarm_pair_state.py`` wraps them.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.bittorrent.faults import FAULT_PRESET_NAMES
from repro.bittorrent.piece_selection import piece_availability
from repro.bittorrent.scenarios import SCENARIO_NAMES
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator


def _fast_violations(simulator) -> List[str]:
    found = []
    n, piece_count = simulator.n_total, simulator.config.piece_count
    bits = np.unpackbits(simulator.bitfields.packed[:n], axis=1, count=piece_count)
    held = bits.sum(axis=1)
    if not np.array_equal(simulator.bitfields.have_count[:n], held):
        found.append("have_count differs from the popcount")
    if not np.array_equal(simulator.counts, bits[simulator.alive].sum(axis=0)):
        found.append("counts differ from the present rows' column sums")
    for i in np.flatnonzero(
        simulator.alive & ~simulator.is_seed & simulator.can_download
    ).tolist():
        if (simulator.completed_round[i] is not None) != (held[i] == piece_count):
            found.append(f"peer {i + 1}: completed_round {simulator.completed_round[i]}")
    return found


def _reference_violations(simulator) -> List[str]:
    found = []
    piece_count = simulator.config.piece_count
    peers = list(simulator._peers.values())
    bits = np.zeros((len(peers), piece_count), dtype=np.int64)
    for row, peer in enumerate(peers):
        bits[row, list(peer.bitfield.held())] = 1
    held = bits.sum(axis=1)
    if piece_availability((peer.bitfield for peer in peers), piece_count) != bits.sum(
        axis=0
    ).tolist():
        found.append("piece_availability differs from the column sums")
    for peer, count in zip(peers, held.tolist()):
        if peer.bitfield.count() != count:
            found.append(f"peer {peer.peer_id}: count {peer.bitfield.count()} != {count}")
        if peer.is_seed or not simulator._profiles[peer.peer_id - 1].downloads:
            continue
        if (peer.completed_round is not None) != (count == piece_count):
            found.append(f"peer {peer.peer_id}: completed_round {peer.completed_round}")
    return found


_VIOLATIONS = {"fast": _fast_violations, "reference": _reference_violations}
# Slow initial leechers (20-120 kbps), so even a static swarm still trades
# in round 20, when the last fault window opens.
_UPLOADS = [20.0 + 100.0 * k / 11 for k in range(12)]


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("behaviors", [None, "hostile"], ids=["obedient", "hostile"])
@pytest.mark.parametrize("faults", [None, *FAULT_PRESET_NAMES], ids=str)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_availability_and_completion_hold_after_every_step(engine, behaviors, faults, scenario):
    config = SwarmConfig(
        leechers=12,
        seeds=2,
        piece_count=150,
        rounds=26,
        start_completion=0.3,
        seed_upload_kbps=300.0,
        behaviors=behaviors,
        faults=faults,
        resilience="full" if faults else None,
    )
    simulator = SwarmSimulator(
        config, bandwidths=_UPLOADS, seed=3, engine=engine, scenario=scenario
    )
    violations = _VIOLATIONS[engine]
    checked = {"apply": 0, "membership": 0}
    apply, membership = simulator._apply_round, simulator._process_membership

    def checked_apply(batch, rng, round_index):
        completed = apply(batch, rng, round_index)
        assert violations(simulator) == [], f"after the apply pass of round {round_index}"
        checked["apply"] += 1
        return completed

    def checked_membership(round_index):
        membership(round_index)
        assert violations(simulator) == [], f"after the membership step of round {round_index}"
        checked["membership"] += 1

    simulator._apply_round = checked_apply
    simulator._process_membership = checked_membership
    result = simulator.run()
    assert checked == {"apply": result.rounds_run, "membership": result.rounds_run}
    assert result.rounds_run >= 20 and result.completed > 0
