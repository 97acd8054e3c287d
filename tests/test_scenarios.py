"""Unit tests for the dynamic-swarm scenario subsystem.

The cross-engine bit-identity of scenarios lives in
``tests/test_swarm_engine_equivalence.py``; this file pins the *semantics*
of :class:`~repro.bittorrent.scenarios.ScenarioSchedule` itself (arrival
processes, departure boundaries, caps, validation) plus the reference
simulator's membership invariants under churn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bittorrent.scenarios import (
    SCENARIO_NAMES,
    ScenarioSchedule,
    make_scenario,
    resolve_scenario,
)
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrivals": "warp"},
            {"departure": "teleport"},
            {"arrivals": "poisson", "arrival_rate": -1.0},
            {"arrivals": "poisson", "arrival_rate": 0.0},
            {"arrivals": "flashcrowd", "burst_size": 0},
            {"arrivals": "flashcrowd", "burst_size": 5, "burst_round": 0},
            {"arrivals": "flashcrowd", "burst_size": -1, "burst_round": 2},
            {"arrivals": "poisson", "arrival_rate": 1.0, "max_arrivals": -1},
            {"departure": "linger", "linger_rounds": -2},
            {"arrival_completion": 1.0},
            {"arrival_completion": -0.1},
        ],
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSchedule(**kwargs)

    def test_presets_and_overrides(self):
        assert make_scenario("static").is_static
        poisson = make_scenario("poisson", arrival_rate=7.0)
        assert poisson.arrivals == "poisson" and poisson.arrival_rate == 7.0
        linger = make_scenario("seed-linger")
        assert linger.departure == "linger" and linger.effective_linger == 5
        with pytest.raises(ValueError):
            make_scenario("tsunami")
        assert set(SCENARIO_NAMES) == {"static", "poisson", "flashcrowd", "seed-linger"}

    def test_resolve_scenario(self):
        assert resolve_scenario(None).is_static
        assert resolve_scenario("flashcrowd").arrivals == "flashcrowd"
        schedule = ScenarioSchedule()
        assert resolve_scenario(schedule) is schedule
        with pytest.raises(TypeError):
            resolve_scenario(42)

    def test_unknown_preset_error_lists_valid_names(self):
        """The error message must enumerate every valid preset name."""
        with pytest.raises(ValueError) as excinfo:
            make_scenario("tsunami")
        message = str(excinfo.value)
        assert "tsunami" in message
        for name in SCENARIO_NAMES:
            assert name in message

    def test_unknown_preset_via_resolve_lists_valid_names(self):
        """resolve_scenario(str) routes through make_scenario's message."""
        with pytest.raises(ValueError) as excinfo:
            resolve_scenario("tsunami")
        for name in SCENARIO_NAMES:
            assert name in str(excinfo.value)

    def test_invalid_process_error_lists_valid_processes(self):
        from repro.bittorrent.scenarios import ARRIVAL_PROCESSES, DEPARTURE_POLICIES

        with pytest.raises(ValueError) as excinfo:
            ScenarioSchedule(arrivals="warp")
        for name in ARRIVAL_PROCESSES:
            assert name in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            ScenarioSchedule(departure="teleport")
        for name in DEPARTURE_POLICIES:
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_preset_override_roundtrip(self, name):
        """Overriding a preset field with its own value reproduces the preset."""
        base = make_scenario(name)
        same = make_scenario(
            name,
            arrivals=base.arrivals,
            arrival_rate=base.arrival_rate,
            burst_round=base.burst_round,
            burst_size=base.burst_size,
            departure=base.departure,
            linger_rounds=base.linger_rounds,
            arrival_completion=base.arrival_completion,
        )
        assert same == base
        # A real override changes exactly the targeted field.
        bumped = make_scenario(name, arrival_completion=0.25)
        assert bumped.arrival_completion == 0.25
        assert bumped == make_scenario(name, arrival_completion=0.25)

    def test_overrides_still_validated(self):
        with pytest.raises(ValueError):
            make_scenario("poisson", arrival_rate=-1.0)
        with pytest.raises(TypeError):
            make_scenario("poisson", warp_factor=9)


class TestArrivalProcess:
    def test_static_draws_nothing(self):
        """A static schedule must not consume the scenario stream at all."""
        schedule = ScenarioSchedule()
        rng = np.random.default_rng(0)
        untouched = np.random.default_rng(0)
        for round_index in range(1, 10):
            assert schedule.arrivals_for_round(round_index, 0, rng) == 0
        assert rng.integers(1 << 30) == untouched.integers(1 << 30)

    def test_flash_crowd_burst_round(self):
        schedule = ScenarioSchedule(
            arrivals="flashcrowd", burst_round=4, burst_size=17
        )
        rng = np.random.default_rng(1)
        counts = [schedule.arrivals_for_round(r, 0, rng) for r in range(1, 8)]
        assert counts == [0, 0, 0, 17, 0, 0, 0]

    def test_poisson_matches_generator_draws(self):
        schedule = ScenarioSchedule(arrivals="poisson", arrival_rate=2.5)
        seen = [
            schedule.arrivals_for_round(r, 0, np.random.default_rng(123))
            for r in range(1, 4)
        ]
        expected = int(np.random.default_rng(123).poisson(2.5))
        assert seen == [expected] * 3

    def test_max_arrivals_cap(self):
        schedule = ScenarioSchedule(
            arrivals="flashcrowd", burst_round=1, burst_size=10, max_arrivals=4
        )
        rng = np.random.default_rng(2)
        assert schedule.arrivals_for_round(1, 0, rng) == 4
        assert schedule.arrivals_for_round(1, 4, rng) == 0
        assert not schedule.more_arrivals_after(1, 4)

    def test_more_arrivals_after(self):
        assert not ScenarioSchedule().more_arrivals_after(1, 0)
        poisson = ScenarioSchedule(arrivals="poisson", arrival_rate=1.0)
        assert poisson.more_arrivals_after(999, 10_000)
        burst = ScenarioSchedule(arrivals="flashcrowd", burst_round=5, burst_size=3)
        assert burst.more_arrivals_after(4, 0)
        assert not burst.more_arrivals_after(5, 3)
        trickle = ScenarioSchedule(
            arrivals="flashcrowd", burst_round=5, burst_size=3, background_rate=0.5
        )
        assert trickle.more_arrivals_after(50, 10)

    def test_arrival_pieces_clamped_below_complete(self):
        nearly = ScenarioSchedule(arrival_completion=0.99)
        assert nearly.arrival_pieces(10) == 9  # round(9.9) would be complete
        assert ScenarioSchedule().arrival_pieces(10) == 0

    def test_capacity_distribution_used(self):
        from repro.bittorrent.bandwidth import saroiu_like_distribution

        schedule = ScenarioSchedule(
            arrivals="poisson", arrival_rate=1.0, capacity=saroiu_like_distribution()
        )
        caps = schedule.sample_capacities(5, np.random.default_rng(3))
        assert caps.shape == (5,) and (caps > 0).all()


class TestDeparturePolicy:
    def test_stay_never_departs(self):
        schedule = ScenarioSchedule()
        assert not schedule.should_depart(1, 100)

    @pytest.mark.parametrize("policy,linger,expected_round", [
        ("leave", 0, 6),
        ("leave", 9, 6),  # "leave" ignores linger_rounds
        ("linger", 0, 6),
        ("linger", 3, 9),
    ])
    def test_departure_round_boundary(self, policy, linger, expected_round):
        schedule = ScenarioSchedule(departure=policy, linger_rounds=linger)
        completed = 5
        for round_index in range(completed, expected_round):
            assert not schedule.should_depart(completed, round_index)
        assert schedule.should_depart(completed, expected_round)

    def test_incomplete_peers_never_depart(self):
        schedule = ScenarioSchedule(departure="leave")
        assert not schedule.should_depart(None, 50)


class TestReferenceChurnInvariants:
    """Membership bookkeeping under a live scenario, on both engines."""

    @pytest.fixture(scope="class", params=["reference", "fast"])
    def churned(self, request):
        config = SwarmConfig(
            leechers=18, seeds=2, piece_count=40, rounds=20, start_completion=0.4
        )
        simulator = SwarmSimulator(
            config, seed=13, scenario="seed-linger", engine=request.param
        )
        return simulator, simulator.run()

    def test_departed_frozen_and_counted(self, churned):
        simulator, result = churned
        departed = [p for p in result.peers.values() if p.departed_round is not None]
        assert len(departed) == result.departures > 0
        for peer in departed:
            assert not peer.is_seed
            assert peer.bitfield.is_complete()
            assert peer.completed_round is not None
            assert peer.departed_round > peer.completed_round
            assert peer.peer_id not in simulator.peers

    def test_arrivals_counted_and_stamped(self, churned):
        _, result = churned
        joiners = [p for p in result.peers.values() if p.arrival_round > 0]
        assert len(joiners) == result.arrivals > 0
        config_population = result.config.leechers + result.config.seeds
        assert len(result.peers) == config_population + result.arrivals
        for peer in joiners:
            assert not peer.is_seed

    def test_tracker_forgets_departed(self, churned):
        simulator, result = churned
        known = set(simulator.tracker.known_peers())
        assert known == {p.peer_id for p in result.present_peers()}

    def test_present_peers_partitions_population(self, churned):
        _, result = churned
        present = {p.peer_id for p in result.present_peers()}
        departed = {
            pid for pid, p in result.peers.items() if p.departed_round is not None
        }
        assert present | departed == set(result.peers)
        assert not (present & departed)

    def test_download_rate_uses_residence_time(self):
        from repro.bittorrent.swarm import SwarmPeer
        from repro.bittorrent.pieces import Bitfield

        peer = SwarmPeer(
            peer_id=1,
            upload_kbps=100.0,
            is_seed=False,
            bitfield=Bitfield.empty(4),
            downloaded_kbit=1000.0,
            arrival_round=5,
            completed_round=10,
        )
        # Joined at the start of round 5, completed in round 10: active for
        # rounds 5..10 inclusive = 6 rounds of 10 seconds.
        assert peer.download_rate_kbps(rounds=40, round_seconds=10.0) == 1000.0 / 60.0
        # An initial-population peer (arrival_round 0) spans the full horizon.
        peer.arrival_round = 0
        peer.completed_round = None
        assert peer.download_rate_kbps(rounds=40, round_seconds=10.0) == 1000.0 / 400.0
