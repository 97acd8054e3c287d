"""The swarm's per-pair state, pinned on both engines round by round.

The fast engine keeps every receiver's partial credit, last round's
receipts and the collaboration volume in sorted pair tables, and rebuilds
the reference engine's dictionaries from them in the order of each pair's
first applied transfer.  The equivalence suite compares final results;
here the three mappings are compared as item lists after every apply pass
and every membership step, in the cases where an entry outlives a peer,
dies with one, or empties.  Each test also asserts that its case occurred,
so none passes on a run that never reached it.

The bytes-conserved invariant holds the collaboration volume, the only
writer of which in the fast engine is its pair table, against the
kernel's own upload and download accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

import repro.bittorrent.fast.swarm as fast_swarm
from repro.bittorrent.faults import FAULT_PRESET_NAMES
from repro.bittorrent.resilience import RESILIENCE_PRESET_NAMES
from repro.bittorrent.scenarios import SCENARIO_NAMES, ScenarioSchedule
from repro.bittorrent.swarm import SwarmConfig, SwarmResult, SwarmSimulator
from repro.core.exceptions import ModelError

Items = List[Tuple[int, float]]
#: Each present peer's (credit items, receipt items), and the collaboration items.
State = Tuple[Dict[int, Tuple[Items, Items]], List[Tuple[Tuple[int, int], float]]]

# Slow enough (400 pieces, a 600 kbps seed, nothing held at start) that
# the swarm still trades when the crashed peers rejoin at round 9 and when
# the loss window swallows every transfer of round 12.
FAULTY = SwarmConfig(
    leechers=30,
    seeds=2,
    piece_count=400,
    rounds=25,
    start_completion=0.0,
    seed_upload_kbps=600.0,
    faults="crash:6@6~3,loss:1.0@12+1",
)
LOSS_ROUND = 12

# Completed leechers leave the round after they finish, so peers that
# finish in the same round leave in the same membership step.
LEAVING = SwarmConfig(
    leechers=30, seeds=2, piece_count=40, rounds=40, start_completion=0.2, seed_upload_kbps=600.0
)


def _pair_state(simulator: SwarmSimulator) -> State:
    return (
        {
            pid: (list(peer.partial_kbit.items()), list(peer.received_last_round.items()))
            for pid, peer in simulator.peers.items()
        },
        list(simulator._collaboration_volume().items()),
    )


@dataclass
class _Run:
    result: Optional[SwarmResult] = None
    applied: Dict[int, State] = field(default_factory=dict)  # after each apply pass
    joined: Dict[int, State] = field(default_factory=dict)  # after each membership step
    crashes: List[Tuple[int, int]] = field(default_factory=list)  # (round, pid)


def _run(engine: str, config: SwarmConfig, scenario: Optional[ScenarioSchedule]) -> _Run:
    simulator = SwarmSimulator(config, seed=0, engine=engine, scenario=scenario)
    run = _Run()
    apply, membership, crash = (
        simulator._apply_round,
        simulator._process_membership,
        simulator._crash,
    )

    def recorded_apply(batch, rng, round_index):
        completed = apply(batch, rng, round_index)
        run.applied[round_index] = _pair_state(simulator)
        return completed

    def recorded_membership(round_index):
        membership(round_index)
        run.joined[round_index] = _pair_state(simulator)

    def recorded_crash(pid, round_index):
        run.crashes.append((round_index, pid))
        crash(pid, round_index)

    simulator._apply_round = recorded_apply
    simulator._process_membership = recorded_membership
    simulator._crash = recorded_crash
    run.result = simulator.run()
    return run


def _run_both(config: SwarmConfig, scenario: Optional[ScenarioSchedule] = None) -> _Run:
    """The reference run, after checking every recorded state against the fast run."""
    reference = _run("reference", config, scenario)
    fast = _run("fast", config, scenario)
    assert fast.crashes == reference.crashes
    assert fast.joined == reference.joined
    assert fast.applied == reference.applied
    assert list(fast.result.collaboration_volume.items()) == list(
        reference.result.collaboration_volume.items()
    )
    assert reference.result.peers.keys() == fast.result.peers.keys()
    for pid, peer in reference.result.peers.items():
        other = fast.result.peers[pid]
        assert list(other.partial_kbit.items()) == list(peer.partial_kbit.items())
        assert list(other.received_last_round.items()) == list(peer.received_last_round.items())
    return reference


@pytest.fixture(scope="module")
def faulty() -> _Run:
    return _run_both(FAULTY)


def test_a_rejoined_sender_resumes_its_credit_in_place(faulty):
    resumed = []
    for crash_round, sender in faulty.crashes:
        for receiver, (credit, _) in faulty.applied[crash_round - 1][0].items():
            order = [pid for pid, _ in credit]
            if sender not in order[:-1]:  # the last entry has no position to lose
                continue
            for round_index in sorted(r for r in faulty.applied if r > crash_round):
                peers = faulty.applied[round_index][0]
                if receiver not in peers:
                    break
                later_credit, received = peers[receiver]
                if sender in dict(received):
                    assert [pid for pid, _ in later_credit].index(sender) == order.index(sender)
                    resumed.append((sender, receiver, round_index))
                    break
    assert resumed


def test_a_crashed_receiver_returns_with_empty_credit_and_receipts(faulty):
    returned = []
    for crash_round, pid in faulty.crashes:
        credit, received = faulty.applied[crash_round - 1][0][pid]
        if not (credit and received):
            continue
        rejoin = min(r for r, state in faulty.joined.items() if r > crash_round and pid in state[0])
        assert faulty.joined[rejoin][0][pid] == ([], [])
        returned.append(pid)
    assert returned


def test_a_round_without_applied_transfers_empties_every_receipt(faulty):
    before, after = faulty.applied[LOSS_ROUND - 1], faulty.applied[LOSS_ROUND]
    assert any(received for _, received in before[0].values())
    assert after[1] == before[1]  # nothing moved: the loss window dropped every transfer
    assert all(received == [] for _, received in after[0].values())


def test_a_departing_receiver_keeps_its_departing_sender():
    peers = _run_both(LEAVING, ScenarioSchedule(departure="leave")).result.peers
    kept = [
        (sender, pid)
        for pid, peer in peers.items()
        if peer.departed_round is not None
        for sender in peer.received_last_round
        # The sender left first, in the same membership step.
        if sender < pid
        and peers[sender].departed_round == peer.departed_round
        and sender in peer.partial_kbit
    ]
    assert kept


_FAULTS_WITH_REJOIN = "outage:3+4/all,crash:3@2~6"
_PRESETS = (
    [pytest.param({"scenario": name}, id=f"scenario-{name}") for name in SCENARIO_NAMES]
    + [
        pytest.param({"scenario": "poisson", "faults": name}, id=f"faults-{name}")
        for name in FAULT_PRESET_NAMES
    ]
    + [
        pytest.param(
            {"scenario": "poisson", "faults": _FAULTS_WITH_REJOIN, "resilience": name},
            id=f"resilience-{name}",
        )
        for name in RESILIENCE_PRESET_NAMES
    ]
)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("preset", _PRESETS)
def test_bytes_are_conserved(engine, preset):
    """Every kilobit moved is one pair's collaboration, one upload and one download."""
    config = SwarmConfig(
        leechers=12,
        seeds=2,
        piece_count=300,
        rounds=22,
        start_completion=0.3,
        seed_upload_kbps=300.0,
        faults=preset.get("faults"),
        resilience=preset.get("resilience"),
    )
    result = SwarmSimulator(config, seed=3, engine=engine, scenario=preset["scenario"]).run()
    peers = result.peers.values()  # departed and crashed peers included
    moved = math.fsum(result.collaboration_volume.values())
    assert moved > 0.0
    assert math.isclose(math.fsum(peer.downloaded_kbit for peer in peers), moved, rel_tol=1e-12)
    assert math.isclose(math.fsum(peer.uploaded_kbit for peer in peers), moved, rel_tol=1e-12)


def test_the_fast_engine_refuses_more_peers_than_its_pair_keys_hold(monkeypatch):
    config = SwarmConfig(leechers=10, seeds=2, piece_count=20)
    monkeypatch.setattr(fast_swarm, "MAX_PEERS", 12)
    SwarmSimulator(config, engine="fast")  # exactly at the bound
    monkeypatch.setattr(fast_swarm, "MAX_PEERS", 11)
    with pytest.raises(ModelError, match="at most 11 peers.*12 requested"):
        SwarmSimulator(config, engine="fast")
