"""Each round's unchoke plan, checked directly on both swarm engines.

The engine equivalence suite shows that the two backends plan alike; two
copies of one wrong rechoke would agree as well.  Here every plan is held
to the protocol itself, against the state it was made from: who may send
to whom, how many peers a leecher or a seed unchokes, the budget split,
and the regular (Tit-for-Tat) pairs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import pytest

from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator

STATIC = SwarmConfig(leechers=30, seeds=2, piece_count=60, rounds=15, announce_size=8)
# Poisson arrivals and departures with free riders, never-upload peers
# and super seeds.
CHURN = SwarmConfig(
    leechers=20,
    seeds=2,
    piece_count=80,
    rounds=20,
    seed_upload_kbps=300.0,
    announce_size=8,
    behaviors="hostile",
)


def _check_every_plan(simulator: SwarmSimulator) -> List[int]:
    """Wrap the backend's plan pass; returns the transfers planned per round."""
    plan = simulator._plan_round
    config = simulator.config
    profiles = simulator._profiles
    planned: List[int] = []

    def checked(rng):
        peers = simulator.peers
        transfers, regular_pairs = plan(rng)
        pairs = [(sender, receiver) for sender, receiver, _ in transfers]
        assert len(set(pairs)) == len(pairs)
        shares: Dict[int, List[float]] = {}
        for sender, receiver, share in transfers:
            source, target = peers[sender], peers[receiver]
            assert profiles[sender - 1].unchokes
            assert not target.is_seed and profiles[receiver - 1].downloads
            assert receiver in source.neighbors
            assert target.bitfield.is_interested_in(source.bitfield)
            shares.setdefault(sender, []).append(share)
        for sender, split in shares.items():
            source = peers[sender]
            if source.is_seed:
                assert len(split) <= config.seed_slots
            else:
                assert len(split) <= config.regular_slots + config.optimistic_slots
            budget = source.upload_kbps * config.round_seconds
            if profiles[sender - 1].upload_factor != 1.0:
                budget *= profiles[sender - 1].upload_factor
            assert split == [budget / len(split)] * len(split)
        assert regular_pairs <= set(pairs)
        per_sender = Counter(sender for sender, _ in regular_pairs)
        assert all(count <= config.regular_slots for count in per_sender.values())
        planned.append(len(transfers))
        return transfers, regular_pairs

    simulator._plan_round = checked
    return planned


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "config, scenario", [(STATIC, None), (CHURN, "poisson")], ids=["static", "churn"]
)
def test_every_planned_transfer_follows_the_rechoke(engine, config, scenario):
    simulator = SwarmSimulator(config, seed=17, engine=engine, scenario=scenario)
    planned = _check_every_plan(simulator)
    result = simulator.run()
    assert len(planned) == result.rounds_run
    assert sum(planned) > 0
