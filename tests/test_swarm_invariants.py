"""Two state invariants of the swarm, checked after every step that changes pieces.

After every apply pass and every membership step, on both engines:

* piece availability equals the column sums of the present peers'
  bitfields -- on the fast engine its incremental ``counts`` and its
  per-row ``have_count`` against the unpacked bit matrix, on the
  reference engine :func:`piece_availability` and each peer's count
  against the held pieces;
* a present downloading leecher has its completion round set exactly
  when it holds every piece.

After every membership step, on both engines, every id the tracker
still registers is accounted for: the peer is present, or it crashed
(no stopped event is sent) and no purge has reached the tracker yet, or
it departed while every tracker was down and its stopped event waits for
the recovery.

The runs cover every scenario preset, with no faults and with each fault
preset under the full resilience policy, for the homogeneous population
and the hostile behavior mix.  The hooks are wrapped the way
``tests/test_swarm_pair_state.py`` wraps them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

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


def _registration_kinds(simulator, left: Dict[int, str]) -> Counter:
    """Why each registered id is registered; ``"unaccounted"`` for none of the reasons.

    ``left`` maps each peer that has left to how it last left, ``"crashed"``
    or ``"departed"``.
    """
    present = set(simulator._live_ids())
    deferred = set(simulator._faults._pending_departs)
    kinds: Counter = Counter()
    for pid in simulator.tracker.known_peers():
        if pid in present:
            kinds["present"] += 1
        elif left.get(pid) == "crashed":
            kinds["crashed"] += 1
        elif left.get(pid) == "departed" and pid in deferred:
            kinds["deferred stop"] += 1
        else:
            kinds["unaccounted"] += 1
    return kinds


def _run_checked(simulator, engine):
    """Run with every check after each step; returns the result, step counts and registrations."""
    violations = _VIOLATIONS[engine]
    checked = {"apply": 0, "membership": 0}
    registrations: Counter = Counter()
    left: Dict[int, str] = {}
    apply, membership = simulator._apply_round, simulator._process_membership
    crash, depart = simulator._crash, simulator._depart

    def checked_apply(batch, rng, round_index):
        completed = apply(batch, rng, round_index)
        assert violations(simulator) == [], f"after the apply pass of round {round_index}"
        checked["apply"] += 1
        return completed

    def checked_membership(round_index):
        membership(round_index)
        assert violations(simulator) == [], f"after the membership step of round {round_index}"
        kinds = _registration_kinds(simulator, left)
        assert kinds["unaccounted"] == 0, f"after the membership step of round {round_index}"
        registrations.update(kinds)
        checked["membership"] += 1

    def recorded_crash(pid, round_index):
        left[pid] = "crashed"
        crash(pid, round_index)

    def recorded_depart(pid, round_index):
        left[pid] = "departed"
        depart(pid, round_index)

    simulator._apply_round = checked_apply
    simulator._process_membership = checked_membership
    simulator._crash = recorded_crash
    simulator._depart = recorded_depart
    result = simulator.run()
    return result, checked, registrations


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
    result, checked, _ = _run_checked(simulator, engine)
    assert checked == {"apply": result.rounds_run, "membership": result.rounds_run}
    assert result.rounds_run >= 20 and result.completed > 0


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_crashed_and_deferred_registrations_are_accounted_for(engine):
    # Crashes without a rejoin and without keepalive purges keep their
    # registrations to the end; departures during the outage wait for it
    # to lift.
    config = SwarmConfig(
        leechers=12,
        seeds=2,
        piece_count=60,
        rounds=20,
        start_completion=0.3,
        seed_upload_kbps=300.0,
        faults="crash:3@4,outage:6+4",
    )
    simulator = SwarmSimulator(
        config, bandwidths=_UPLOADS, seed=3, engine=engine, scenario="poisson"
    )
    _, _, registrations = _run_checked(simulator, engine)
    assert registrations["crashed"] > 0 and registrations["deferred stop"] > 0
    assert registrations["unaccounted"] == 0
