"""The stratification indices walk their weights once, bit for bit as the per-peer scan.

``stratification_index`` and ``observed_stratification_index`` share
:func:`~repro.bittorrent.swarm.partner_ranks_by_peer`, which adds every
weighted pair to both endpoints in one pass.  The oracle is the loop both
functions ran before: a scan of every pair once per peer, kept verbatim
below.  Each peer's float sums must come out in the same order, so the
indices are compared with ``==``.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.bittorrent.analysis import observed_stratification_index
from repro.bittorrent.swarm import (
    SwarmConfig,
    SwarmResult,
    SwarmSimulator,
    stratification_index,
)
from repro.bittorrent.telemetry import ObservedSwarm, ObserverConfig


def scan_stratification_index(result, *, use_tft_pairs=True, behaviors=None):
    """The ground-truth index as a scan of every pair per leecher (the oracle)."""
    leechers = result.leechers()
    if behaviors is not None:
        allowed = frozenset(behaviors)
        leechers = [peer for peer in leechers if peer.behavior in allowed]
    if len(leechers) < 3:
        raise ValueError("need at least three leechers to measure stratification")
    order = sorted(leechers, key=lambda peer: -peer.upload_kbps)
    rank = {peer.peer_id: index + 1 for index, peer in enumerate(order)}
    weights = (
        result.tft_reciprocal_rounds if use_tft_pairs else result.collaboration_volume
    )

    own_ranks: List[float] = []
    partner_ranks: List[float] = []
    for peer in leechers:
        total = 0.0
        weighted = 0.0
        for (a, b), weight in weights.items():
            if a == peer.peer_id and b in rank:
                weighted += weight * rank[b]
                total += weight
            elif b == peer.peer_id and a in rank:
                weighted += weight * rank[a]
                total += weight
        if total > 0:
            own_ranks.append(float(rank[peer.peer_id]))
            partner_ranks.append(weighted / total)
    if len(own_ranks) < 3:
        return 0.0
    matrix = np.corrcoef(np.asarray(own_ranks), np.asarray(partner_ranks))
    return float(matrix[0, 1])


def scan_observed_stratification_index(observed):
    """The observed index as a scan of every sighting per peer (the oracle)."""
    rates = observed.observed_download_rates()
    if len(rates) < 3:
        return 0.0
    order = sorted(rates, key=lambda pid: (-rates[pid], pid))
    rank = {pid: index + 1 for index, pid in enumerate(order)}
    sightings = observed.partner_sightings()

    own_ranks: List[float] = []
    partner_ranks: List[float] = []
    for pid in order:
        total = 0.0
        weighted = 0.0
        for (a, b), weight in sightings.items():
            if a == pid and b in rank:
                weighted += weight * rank[b]
                total += weight
            elif b == pid and a in rank:
                weighted += weight * rank[a]
                total += weight
        if total > 0:
            own_ranks.append(float(rank[pid]))
            partner_ranks.append(weighted / total)
    if len(own_ranks) < 3:
        return 0.0
    matrix = np.corrcoef(np.asarray(own_ranks), np.asarray(partner_ranks))
    value = float(matrix[0, 1])
    return 0.0 if np.isnan(value) else value


def _run(seed: int, behaviors, scenario) -> SwarmResult:
    # A slow seed and many pieces keep the static runs going past warm-up,
    # so every case has reciprocated Tit-for-Tat pairs as well as volumes.
    config = SwarmConfig(
        leechers=40,
        seeds=1,
        piece_count=800,
        rounds=30,
        start_completion=0.2,
        seed_upload_kbps=500.0,
        warmup_rounds=2,
        behaviors=behaviors,
    )
    return SwarmSimulator(
        config,
        seed=seed,
        engine="fast",
        scenario=scenario,
        observer=ObserverConfig(),
    ).run()


RUNS = [
    (seed, behaviors, scenario)
    for seed in (1, 2)
    for behaviors in (None, "hostile")
    for scenario in ("static", "poisson")
]


@pytest.fixture(scope="module", params=RUNS, ids=lambda run: "-".join(map(str, run)))
def result(request) -> SwarmResult:
    return _run(*request.param)


@pytest.mark.parametrize("use_tft_pairs", [True, False])
@pytest.mark.parametrize("behaviors", [None, ["standard"]])
def test_ground_truth_index_equals_the_per_peer_scan(result, use_tft_pairs, behaviors):
    expected = scan_stratification_index(
        result, use_tft_pairs=use_tft_pairs, behaviors=behaviors
    )
    actual = stratification_index(result, use_tft_pairs=use_tft_pairs, behaviors=behaviors)
    assert type(actual) is float
    assert actual == expected


def test_observed_index_equals_the_per_peer_scan(result):
    assert isinstance(result.observed, ObservedSwarm)
    expected = scan_observed_stratification_index(result.observed)
    assert observed_stratification_index(result.observed) == expected
