"""Unit and behavioral tests for the swarm resilience layer.

Covers the pieces :mod:`repro.bittorrent.resilience` adds on top of the
fault layer: policy parsing (presets + ``knob:value`` specs, with errors
naming the offending token), the pinned-batch pool sampler, the
:class:`~repro.bittorrent.resilience.ResilienceRuntime` bookkeeping
(replica walk, failover accounting, eviction clocks, purge queue), and
the end-to-end behaviours the layer promises: a partial outage absorbed
by failover, PEX keeping a blacked-out swarm connected, and dead-neighbor
eviction deflating the tracker's stale scrape counts (``stale_count`` on
both tracker implementations and the telemetry view).  Under churn,
crashes and gossip, the neighbor relation stays symmetric and points only
at present peers.

Engine-equivalence of all of this lives in
``tests/test_swarm_engine_equivalence.py``; here each engine's behaviour
is pinned on its own terms.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent import swarm as swarm_module
from repro.bittorrent.faults import FaultSchedule, make_faults
from repro.bittorrent.resilience import (
    RESILIENCE_PRESET_NAMES,
    ResiliencePolicy,
    ResilienceRuntime,
    make_resilience,
    resolve_resilience,
    sample_pools,
)
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
from repro.bittorrent.telemetry import _SwarmView

# ---------------------------------------------------------------------------
# Policy construction and parsing
# ---------------------------------------------------------------------------


class TestResiliencePolicy:
    def test_default_policy_is_trivial(self):
        policy = ResiliencePolicy()
        assert policy.is_trivial
        assert policy.trackers == 1
        assert not policy.pex
        assert policy.keepalive_timeout == 0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(trackers=2), dict(pex=True), dict(keepalive_timeout=1)],
    )
    def test_any_defense_makes_policy_non_trivial(self, kwargs):
        assert not ResiliencePolicy(**kwargs).is_trivial

    def test_pex_sample_alone_stays_trivial(self):
        # The sample bound is inert until pex itself is switched on.
        assert ResiliencePolicy(pex_sample=3).is_trivial

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(trackers=0), "trackers must be >= 1"),
            (dict(pex_sample=0), "pex_sample must be >= 1"),
            (dict(keepalive_timeout=-1), "keepalive_timeout cannot"),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ResiliencePolicy(**kwargs)


class TestMakeResilience:
    def test_presets(self):
        assert set(RESILIENCE_PRESET_NAMES) == {"off", "failover", "pex", "full"}
        assert make_resilience("off").is_trivial
        assert make_resilience("failover").trackers == 3
        assert make_resilience("pex").pex
        full = make_resilience("full")
        assert (full.trackers, full.pex, full.keepalive_timeout) == (3, True, 5)

    def test_spec_grammar(self):
        policy = make_resilience("trackers:2, pex:4, keepalive:7")
        assert policy == ResiliencePolicy(
            trackers=2, pex=True, pex_sample=4, keepalive_timeout=7
        )
        # Bare "pex" keeps the default sample bound.
        assert make_resilience("pex:8,trackers:1") == make_resilience(
            "trackers:1,pex"
        )

    def test_unknown_preset_lists_the_valid_names(self):
        with pytest.raises(ValueError, match="unknown resilience preset 'nope'"):
            make_resilience("nope")
        with pytest.raises(ValueError, match="off"):
            make_resilience("nope")

    @pytest.mark.parametrize(
        "spec, token",
        [
            ("trackers:x", "trackers:x"),
            ("trackers:3,pex:many", "pex:many"),
            ("keepalive:", "keepalive:"),
            ("replicas:3", "replicas:3"),
            # Each knob may appear once: a repeat must not overwrite.
            ("trackers:2,trackers:3", "trackers:3"),
            ("pex:8,pex", "pex"),
        ],
    )
    def test_errors_name_the_offending_token(self, spec, token):
        # Named where the message locates it: ordinal, text and span.
        located = rf"token \d+ \('{re.escape(token)}', chars \d+-\d+\)"
        with pytest.raises(ValueError, match=located):
            make_resilience(spec)

    @pytest.mark.parametrize(
        "spec, location, cause",
        [
            (
                "trackers:2, pex:many",
                "resilience spec error in token 2 ('pex:many', chars 12-20): ",
                "invalid literal",
            ),
            (
                "pex,keepalive:4,  pex:8",
                "resilience spec error in token 3 ('pex:8', chars 18-23): ",
                "knob 'pex' given twice",
            ),
        ],
        ids=["malformed", "repeated"],
    )
    def test_errors_locate_the_offending_token(self, spec, location, cause):
        with pytest.raises(ValueError) as err:
            make_resilience(spec)
        message = str(err.value)
        assert location in message
        assert cause in message.partition(location)[2]

    def test_unknown_knob_lists_the_knobs(self):
        with pytest.raises(ValueError, match="trackers:N"):
            make_resilience("replicas:3")


class TestResolveResilience:
    def test_none_resolves_to_trivial(self):
        assert resolve_resilience(None).is_trivial

    def test_string_goes_through_make_resilience(self):
        assert resolve_resilience("failover") == make_resilience("failover")
        assert resolve_resilience("trackers:2").trackers == 2

    def test_policy_passes_through(self):
        policy = ResiliencePolicy(pex=True)
        assert resolve_resilience(policy) is policy

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="resilience must be"):
            resolve_resilience(3)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# The shared pinned-batch sampler
# ---------------------------------------------------------------------------


def _sample(pools, sample_size, rng):
    """Each pool's sample, drawn through the sampler's sizes-in, positions-out form."""
    positions = iter(sample_pools([len(pool) for pool in pools], sample_size, rng).tolist())
    return [[pool[next(positions)] for _ in range(min(sample_size, len(pool)))] for pool in pools]


class TestSamplePools:
    def test_deterministic_under_a_shared_seed(self):
        pools = [[3, 1, 4, 1, 5], [9, 2, 6], []]
        a = _sample(pools, 2, np.random.default_rng(7))
        b = _sample(pools, 2, np.random.default_rng(7))
        assert a == b

    def test_samples_are_bounded_subsets_without_replacement(self):
        rng = np.random.default_rng(11)
        pools = [list(range(10)), [42], list(range(100, 103))]
        samples = _sample(pools, 4, rng)
        for pool, sample in zip(pools, samples):
            assert len(sample) == min(4, len(pool))
            assert len(set(sample)) == len(sample)
            assert set(sample) <= set(pool)

    def test_empty_pools_draw_nothing(self):
        rng = np.random.default_rng(3)
        assert _sample([[], [], []], 8, rng) == [[], [], []]
        # The stream was not consumed: the next draw matches a fresh rng.
        fresh = np.random.default_rng(3)
        assert rng.integers(0, 1000) == fresh.integers(0, 1000)

    def test_one_batch_regardless_of_pool_count(self):
        # Concatenated bounds mean pool *grouping* does not change the
        # draws: the flat sequence of picks is identical.
        pools = [[1, 2, 3], [4, 5, 6, 7]]
        merged = _sample(pools, 2, np.random.default_rng(5))
        assert [len(s) for s in merged] == [2, 2]


# -- oracle: the copy-and-pop sampler the positions-out one replaced --
#
# Copied verbatim, so the sampler is held to the same picks and the same
# generator state.


def _copy_and_pop_sample_pools(
    pools: Sequence[Sequence[int]],
    sample_size: int,
    rng: np.random.Generator,
) -> List[List[int]]:
    picks = [min(sample_size, len(pool)) for pool in pools]
    bounds: List[int] = []
    for pool, k in zip(pools, picks):
        bounds.extend(range(len(pool), len(pool) - k, -1))
    if not bounds:
        return [[] for _ in pools]
    draws = rng.integers(0, np.asarray(bounds, dtype=np.int64)).tolist()
    samples: List[List[int]] = []
    cursor = 0
    for pool, k in zip(pools, picks):
        working = list(pool)
        picked: List[int] = []
        for _ in range(k):
            picked.append(int(working.pop(draws[cursor])))
            cursor += 1
        samples.append(picked)
    return samples


def _generators(seed: int, buffered: bool) -> Tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state; a buffered pair holds a spare 32-bit draw."""
    pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    if buffered:
        for rng in pair:
            rng.integers(0, 7)
    return pair


def _assert_same_samples(pools, sample_size, seed, buffered):
    rng, reference_rng = _generators(seed, buffered)
    assert _sample(pools, sample_size, rng) == _copy_and_pop_sample_pools(
        pools, sample_size, reference_rng
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestSamplePoolsOracle:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("sample_size", [1, 4, 8])
    @pytest.mark.parametrize(
        "pools",
        [
            [],
            [[], [], []],
            [[7], [], [8, 9]],
            [list(range(3)), list(range(10, 30)), [], list(range(50, 55))],
            [list(range(100, 100 + size)) for size in range(12)],
            [[5, 3, 9, 1], list(range(40)), [2, 2, 2]],
        ],
    )
    def test_matches_copy_and_pop(self, pools, sample_size, buffered):
        for seed in (0, 1, 2007, 2**32 - 1):
            _assert_same_samples(pools, sample_size, seed, buffered)

    @pytest.mark.parametrize("sample_size", [1, 4, 8])
    def test_gossip_sized_batch_matches_copy_and_pop(self, sample_size):
        # A blackout round's shape: thousands of pools of a few dozen ids.
        sizes = np.random.default_rng(3).integers(0, 80, size=3_000)
        pools = [list(range(size)) for size in sizes.tolist()]
        _assert_same_samples(pools, sample_size, 17, buffered=True)

    @settings(max_examples=200, deadline=None)
    @given(
        pools=st.lists(st.lists(st.integers(-50, 50), max_size=20), max_size=12),
        sample_size=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.booleans(),
    )
    def test_matches_copy_and_pop_property(self, pools, sample_size, seed, buffered):
        _assert_same_samples(pools, sample_size, seed, buffered)


# ---------------------------------------------------------------------------
# ResilienceRuntime bookkeeping
# ---------------------------------------------------------------------------


def _runtime(policy: ResiliencePolicy, faults: str = "") -> ResilienceRuntime:
    schedule = make_faults(faults) if faults else FaultSchedule()
    return ResilienceRuntime(policy, schedule)


class TestResilienceRuntime:
    def test_trivial_policy_is_inactive(self):
        assert not _runtime(ResiliencePolicy()).active
        assert _runtime(ResiliencePolicy(trackers=2)).active

    def test_schedule_targeting_missing_replica_rejected(self):
        with pytest.raises(ValueError, match="targets tracker replica 2"):
            _runtime(ResiliencePolicy(trackers=2), "outage:3+2/2")
        # Same replica with a long enough announce list is fine.
        _runtime(ResiliencePolicy(trackers=3), "outage:3+2/2")

    def test_single_tracker_assigns_no_preferences(self):
        runtime = _runtime(ResiliencePolicy(trackers=1, pex=True))
        rng = np.random.default_rng(0)
        runtime.assign_preferences([1, 2, 3], rng)
        fresh = np.random.default_rng(0)
        assert rng.integers(0, 1000) == fresh.integers(0, 1000)

    def test_serving_replica_walks_past_an_outage(self):
        runtime = _runtime(ResiliencePolicy(trackers=3), "outage:5+3/1")
        runtime._preferred[1] = 1
        assert runtime.serving_replica(1, round_index=0) == 1  # before window
        assert runtime.serving_replica(1, round_index=5) == 2  # walks 1 -> 2
        assert runtime.serving_replica(1, round_index=8) == 1  # recovered

    def test_serving_replica_none_during_full_blackout(self):
        runtime = _runtime(ResiliencePolicy(trackers=3), "outage:5+3/all")
        assert runtime.serving_replica(1, round_index=6) is None
        assert runtime.serving_replica(1, round_index=4) == 0

    def test_record_announce_counts_failovers(self):
        runtime = _runtime(ResiliencePolicy(trackers=2), "outage:5+3")
        runtime.record_announce(1, round_index=0)  # preferred replica 0
        assert runtime.replica_announces == [1, 0]
        assert runtime.failover_announces == 0
        runtime.record_announce(1, round_index=5)  # replica 0 down: failover
        assert runtime.replica_announces == [1, 1]
        assert runtime.failover_announces == 1

    def test_eviction_clock_fires_after_the_timeout(self):
        runtime = _runtime(ResiliencePolicy(keepalive_timeout=3))
        runtime.note_crash(7, round_index=4, had_neighbors=True)
        runtime.begin_round(6)
        assert runtime.evictions == 0
        runtime.begin_round(7)
        assert runtime.evictions == 1
        assert runtime.drain_purges() == [7]
        assert runtime.drain_purges() == []  # drained queues stay drained

    def test_neighborless_crash_is_undetectable(self):
        runtime = _runtime(ResiliencePolicy(keepalive_timeout=3))
        runtime.note_crash(7, round_index=4, had_neighbors=False)
        runtime.begin_round(7)
        assert runtime.evictions == 0

    def test_zero_timeout_schedules_nothing(self):
        runtime = _runtime(ResiliencePolicy(trackers=2))
        runtime.note_crash(7, round_index=4, had_neighbors=True)
        runtime.begin_round(4)
        assert runtime.evictions == 0 and runtime.drain_purges() == []

    def test_rejoin_cancels_a_pending_eviction(self):
        runtime = _runtime(ResiliencePolicy(keepalive_timeout=3))
        runtime.note_crash(7, round_index=4, had_neighbors=True)
        runtime.cancel_eviction(7)
        runtime.begin_round(7)
        assert runtime.evictions == 0 and runtime.drain_purges() == []

    def test_recrash_reschedules_the_clock(self):
        runtime = _runtime(ResiliencePolicy(keepalive_timeout=3))
        runtime.note_crash(7, round_index=4, had_neighbors=True)
        runtime.cancel_eviction(7)  # rejoined at round 5...
        runtime.note_crash(7, round_index=6, had_neighbors=True)  # ...died again
        runtime.begin_round(7)  # the stale round-7 bucket must not fire
        assert runtime.evictions == 0
        runtime.begin_round(9)
        assert runtime.evictions == 1

    def test_purges_drain_sorted(self):
        runtime = _runtime(ResiliencePolicy(keepalive_timeout=1))
        for pid in (9, 2, 5):
            runtime.note_crash(pid, round_index=0, had_neighbors=True)
        runtime.begin_round(1)
        assert runtime.drain_purges() == [2, 5, 9]

    def test_stats_freeze_the_counters(self):
        runtime = _runtime(ResiliencePolicy(trackers=2), "outage:5+3")
        runtime.record_announce(3, round_index=5)
        stats = runtime.stats()
        assert stats.replica_announces == (0, 1)
        assert stats.failover_announces == 1
        assert (stats.pex_introductions, stats.evictions, stats.purges) == (
            0,
            0,
            0,
        )


# ---------------------------------------------------------------------------
# End-to-end behaviour (single engine at a time)
# ---------------------------------------------------------------------------

_BASE = dict(
    leechers=16,
    seeds=1,
    piece_count=400,
    rounds=18,
    start_completion=0.3,
    seed_upload_kbps=300.0,
)


class TestResilienceBehavior:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_failover_absorbs_a_replica_outage(self, engine):
        """With 3 replicas, a replica-0 outage never interrupts service."""
        # The scenario matters: only joining peers announce mid-run, so a
        # static swarm would sail through the outage without a failover.
        armed = SwarmSimulator(
            SwarmConfig(faults="outage:4+6", resilience="failover", **_BASE),
            seed=31,
            engine=engine,
            scenario="poisson",
        ).run()
        clean = SwarmSimulator(
            SwarmConfig(resilience="failover", **_BASE),
            seed=31,
            engine=engine,
            scenario="poisson",
        ).run()
        assert armed.resilience.failover_announces > 0
        assert armed.completed == clean.completed
        assert armed.collaboration_volume == clean.collaboration_volume

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_pex_bootstraps_arrivals_during_blackout(self, engine):
        config = SwarmConfig(
            faults="outage:3+6/all", resilience="pex", **_BASE
        )
        result = SwarmSimulator(
            config, seed=37, engine=engine, scenario="poisson"
        ).run()
        assert result.resilience.pex_bootstraps > 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_eviction_deflates_the_stale_scrape(self, engine):
        """Satellite: crashed-peer ghosts persist until evicted + purged."""
        # Slow the download enough that the run outlives the keepalive
        # timeout -- an early exit would leave the eviction clock unfired.
        base = dict(_BASE, piece_count=900)
        defenseless = SwarmSimulator(
            SwarmConfig(faults="crash:4@3", **base), seed=41, engine=engine
        )
        defenseless.run()
        armed = SwarmSimulator(
            SwarmConfig(
                faults="crash:4@3",
                resilience="trackers:1,keepalive:3",
                **base,
            ),
            seed=41,
            engine=engine,
        )
        result = armed.run()
        assert _SwarmView(defenseless).stale_count() == 4
        assert _SwarmView(armed).stale_count() == 0
        assert result.resilience.evictions == 4
        assert result.resilience.purges == 4

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_trivial_policy_reports_no_stats(self, engine):
        result = SwarmSimulator(
            SwarmConfig(resilience="off", **_BASE), seed=43, engine=engine
        ).run()
        assert result.resilience is None

    def test_config_rejects_replica_target_beyond_announce_list(self):
        config = SwarmConfig(faults="outage:2+2/1", **_BASE)
        with pytest.raises(ValueError, match="targets tracker replica 1"):
            SwarmSimulator(config, seed=1)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_tracker_stale_count_tracks_ground_truth(self, engine):
        simulator = SwarmSimulator(
            SwarmConfig(faults="crash:3@2", **_BASE), seed=47, engine=engine
        )
        simulator.run()
        tracker = simulator.tracker
        assert tracker.stale_count(set(simulator.peers)) == 3
        # Pretend nobody is present: every registration is now a ghost.
        assert tracker.stale_count(()) >= 3


# The perfbench ``swarm-churn`` spec at test size: hostile behaviors, two
# tracker outages (one total, so PEX gossips), a crash wave with rejoin,
# 2% loss and the full resilience policy.
_CHURN_SPEC = dict(
    leechers=60,
    seeds=3,
    piece_count=40,
    rounds=20,
    start_completion=0.3,
    behaviors="hostile",
    faults="outage:3+2/all,outage:6+3/1,crash:10@4~3,loss:0.02",
    resilience="trackers:3,pex:8,keepalive:2",
)


class TestAdjacencyInvariant:
    """Every connect and disconnect keeps the neighbor relation sound."""

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("scenario", ["static", "poisson"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_neighbors_are_symmetric_and_present(self, engine, scenario, seed):
        result = SwarmSimulator(
            SwarmConfig(**_CHURN_SPEC), seed=seed, engine=engine, scenario=scenario
        ).run()
        present = {peer.peer_id: peer for peer in result.present_peers()}
        for pid, peer in present.items():
            assert peer.neighbors <= present.keys(), f"peer {pid} links a gone peer"
            for other in peer.neighbors:
                assert pid in present[other].neighbors, f"edge {pid}-{other} is one-sided"
        assert sum(len(peer.neighbors) for peer in present.values()) > 0
        assert result.resilience.pex_introductions > 0
        assert result.resilience.evictions > 0
        if scenario == "static":
            # Every crashed peer rejoined: the whole population is present.
            assert len(present) == 63


# Runs whose blackouts gossip: the ``swarm_pex_outage`` golden trace, and
# the perfbench ``swarm-churn`` spec at its 200-leecher cross-check size.
_GOSSIP_RUNS = {
    "pex-outage-golden": (
        dict(
            leechers=10, seeds=1, piece_count=60, rounds=14,
            start_completion=0.3, announce_size=6,
            seed_upload_kbps=300.0, faults="outage:5+4/all,crash:4@3",
            resilience="full",
        ),
        111,
    ),
    "swarm-churn-200": (
        dict(
            _CHURN_SPEC,
            leechers=200,
            piece_count=300,
            faults="outage:3+2/all,outage:6+3/1,crash:50@4~3,loss:0.02",
        ),
        7,
    ),
}


class TestGossipPools:
    """Each gossip pool is its sender's sorted live neighbors minus the receiver.

    Both engines run the one ``_pex_round``, so the cross-engine suite
    cannot catch a wrong pool.  Here every gossip batch is checked against
    the engine's live adjacency at the moment of the draw: each pool's
    size, and each sample against the pool's elements at the drawn
    positions, in the order the receivers connect them.
    """

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("run", sorted(_GOSSIP_RUNS))
    def test_pools_are_live_neighbors_minus_receiver(self, engine, run, monkeypatch):
        config, seed = _GOSSIP_RUNS[run]
        simulator = SwarmSimulator(
            SwarmConfig(**config), seed=seed, engine=engine, scenario="poisson"
        )
        batch = {}
        checked = {"pairs": 0, "picks": 0}

        real_sample_pools = swarm_module.sample_pools

        def sample_pools(sizes, sample_size, rng):
            positions = real_sample_pools(sizes, sample_size, rng)
            if "pairs" in batch:  # a gossip batch, not a blackout bootstrap
                adjacency = {pid: peer.neighbors for pid, peer in simulator.peers.items()}
                pools = [sorted(adjacency[s] - {r}) for s, r in batch["pairs"]]
                assert np.asarray(sizes).tolist() == [len(pool) for pool in pools]
                drawn = iter(positions.tolist())
                batch["expected"] = iter(
                    [
                        (receiver, [pool[next(drawn)] for _ in range(min(sample_size, len(pool)))])
                        for (_, receiver), pool in zip(batch["pairs"], pools)
                    ]
                )
                checked["pairs"] += len(pools)
                checked["picks"] += positions.size
            return positions

        real_pex_round = simulator._pex_round

        def pex_round(transfers):
            batch["pairs"] = sorted(zip(transfers.senders.tolist(), transfers.receivers.tolist()))
            real_pex_round(transfers)
            assert next(batch.pop("expected"), None) is None, "a sample was never connected"
            batch.clear()

        real_connect = simulator._connect

        def connect(pid, contacts):
            contacts = list(contacts)
            if "expected" in batch:
                assert (pid, contacts) == next(batch["expected"])
            return real_connect(pid, contacts)

        monkeypatch.setattr(swarm_module, "sample_pools", sample_pools)
        monkeypatch.setattr(simulator, "_pex_round", pex_round)
        monkeypatch.setattr(simulator, "_connect", connect)
        result = simulator.run()
        assert checked["pairs"] > 0 and checked["picks"] > 0
        assert result.resilience.pex_introductions > 0
