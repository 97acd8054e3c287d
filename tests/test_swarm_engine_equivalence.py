"""Fast swarm engine vs reference swarm simulator: the reference is the oracle.

Mirrors ``tests/test_engine_equivalence.py`` for the BitTorrent layer: under
a shared seed the packed-bit array engine must reproduce the reference
:class:`~repro.bittorrent.swarm.SwarmSimulator` *bit for bit* -- every
bitfield, every float of transfer accounting, every reciprocated-TFT count,
every completion round.  The suite also pins down swarm determinism (same
config + seed => same result, run to run) and exercises the corners the
batched engine could plausibly get wrong: optimistic-unchoke rotation
periods, warmup-round boundaries, zero regular slots, seedless swarms,
rarest-first piece selection, and -- via
:class:`~repro.bittorrent.scenarios.ScenarioSchedule` -- dynamic membership
(Poisson arrivals, flash crowds, leave/linger departure policies), where
the fast engine's grow/tombstone array design has the most room to drift.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bittorrent.behaviors import (
    BEHAVIOR_MIX_NAMES,
    BEHAVIOR_NAMES,
    STANDARD,
    BehaviorMix,
)
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.fast.choking import batched_regular_slots
from repro.bittorrent.fast.swarm import FastSwarmSimulator
from repro.bittorrent.fast.tracker import FastTracker
from repro.bittorrent.faults import FAULT_PRESET_NAMES, FaultEvent, FaultSchedule
from repro.bittorrent.resilience import RESILIENCE_PRESET_NAMES, ResiliencePolicy
from repro.bittorrent.scenarios import (
    ARRIVAL_PROCESSES,
    DEPARTURE_POLICIES,
    SCENARIO_NAMES,
    ScenarioSchedule,
    make_scenario,
)
from repro.bittorrent.swarm import (
    SwarmConfig,
    SwarmResult,
    SwarmSimulator,
    stratification_index,
)
from repro.bittorrent.tracker import Tracker
from repro.core.exceptions import ModelError
from repro.sim.random_source import RandomSource

pytestmark = pytest.mark.equivalence

_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _all_floats(values) -> bool:
    """Every value is a Python ``float`` (an ``np.float64`` would pass ``==``)."""
    return all(type(value) is float for value in values)


def assert_results_identical(reference: SwarmResult, fast: SwarmResult) -> None:
    """Field-for-field, float-for-float equality of two swarm results.

    Dicts are compared as item lists too, since their insertion order is
    part of the result, and the fast result's floats must be ``float``.
    """
    assert reference.completed == fast.completed
    assert reference.rounds_run == fast.rounds_run
    assert reference.arrivals == fast.arrivals
    assert reference.departures == fast.departures
    assert reference.collaboration_volume == fast.collaboration_volume
    assert list(reference.collaboration_volume.items()) == list(
        fast.collaboration_volume.items()
    )
    assert _all_floats(fast.collaboration_volume.values())
    assert reference.tft_reciprocal_rounds == fast.tft_reciprocal_rounds
    assert list(reference.tft_reciprocal_rounds.items()) == list(
        fast.tft_reciprocal_rounds.items()
    )
    assert _all_floats(fast.tft_reciprocal_rounds.values())
    assert reference.resilience == fast.resilience
    assert set(reference.peers) == set(fast.peers)
    for pid in reference.peers:
        a, b = reference.peers[pid], fast.peers[pid]
        assert a.peer_id == b.peer_id
        assert a.upload_kbps == b.upload_kbps
        assert a.is_seed == b.is_seed
        assert a.neighbors == b.neighbors
        assert a.bitfield.held() == b.bitfield.held()
        assert a.downloaded_kbit == b.downloaded_kbit
        assert a.uploaded_kbit == b.uploaded_kbit
        assert _all_floats([b.downloaded_kbit, b.uploaded_kbit])
        assert a.partial_kbit == b.partial_kbit
        assert list(a.partial_kbit.items()) == list(b.partial_kbit.items())
        assert _all_floats(b.partial_kbit.values())
        assert a.received_last_round == b.received_last_round
        assert list(a.received_last_round.items()) == list(b.received_last_round.items())
        assert _all_floats(b.received_last_round.values())
        assert a.completed_round == b.completed_round
        assert a.arrival_round == b.arrival_round
        assert a.departed_round == b.departed_round
        assert a.behavior == b.behavior
        assert a.locality_group == b.locality_group


def run_both(config: SwarmConfig, seed: int, **kwargs):
    reference = SwarmSimulator(config, seed=seed, **kwargs).run()
    fast = SwarmSimulator(config, seed=seed, engine="fast", **kwargs).run()
    assert_results_identical(reference, fast)
    return reference, fast


class TestEngineEquivalence:
    def test_default_style_swarm(self):
        config = SwarmConfig(
            leechers=30,
            seeds=2,
            piece_count=80,
            rounds=30,
            start_completion=0.3,
            seed_upload_kbps=1500.0,
        )
        reference, fast = run_both(config, seed=5)
        assert reference.completed > 0
        # Derived metrics agree because the raw results agree.
        assert stratification_index(reference) == stratification_index(fast)
        assert reference.download_rates() == fast.download_rates()
        assert reference.share_ratios() == fast.share_ratios()

    def test_explicit_bandwidths(self):
        rng = np.random.default_rng(3)
        bandwidths = np.exp(rng.uniform(np.log(50.0), np.log(3000.0), 20))
        config = SwarmConfig(leechers=20, seeds=1, piece_count=50, rounds=25)
        run_both(config, seed=8, bandwidths=bandwidths)

    def test_rarest_first_piece_selection(self):
        config = SwarmConfig(
            leechers=15,
            seeds=1,
            piece_count=40,
            rounds=20,
            start_completion=0.2,
        )
        run_both(config, seed=13)

    def test_piece_size_that_is_not_a_power_of_two(self):
        # With a 256-kbit piece, subtracting one piece at a time and one
        # floor division leave the same credit; with 100.1 they differ in
        # the leftover and sometimes in the piece count, so only a size
        # like this pins the fast engine to the reference's float order.
        config = SwarmConfig(
            leechers=15,
            seeds=1,
            piece_count=40,
            rounds=20,
            piece_size_kbit=100.1,
            start_completion=0.2,
        )
        reference, _ = run_both(config, seed=13)
        assert reference.completed > 0

    def test_seedless_swarm(self):
        config = SwarmConfig(
            leechers=12, seeds=0, piece_count=40, rounds=15, start_completion=0.5
        )
        run_both(config, seed=9)

    def test_zero_regular_slots_all_optimistic(self):
        config = SwarmConfig(
            leechers=10,
            seeds=1,
            piece_count=30,
            rounds=12,
            regular_slots=0,
            optimistic_slots=2,
        )
        reference, _ = run_both(config, seed=4)
        assert reference.tft_reciprocal_rounds == {}

    def test_zero_optimistic_slots(self):
        config = SwarmConfig(
            leechers=12,
            seeds=2,
            piece_count=30,
            rounds=15,
            optimistic_slots=0,
            start_completion=0.4,
        )
        run_both(config, seed=6)

    def test_bootstrap_complete_leechers(self):
        # round(0.95 * 20) == 19, one piece short; round(0.98 * 50) == 49.
        config = SwarmConfig(
            leechers=8, seeds=1, piece_count=20, rounds=8, start_completion=0.95
        )
        run_both(config, seed=2)

    @pytest.mark.parametrize("period", [1, 2, 5])
    def test_optimistic_rotation_periods(self, period):
        """The rotation state machine must stay draw-for-draw identical."""
        config = SwarmConfig(
            leechers=14,
            seeds=1,
            piece_count=60,
            rounds=4 * period + 3,
            optimistic_period=period,
            start_completion=0.2,
        )
        run_both(config, seed=21)

    @pytest.mark.parametrize("warmup", [0, 1, 7, 100])
    def test_warmup_round_boundaries(self, warmup):
        """TFT statistics start exactly at round warmup_rounds + 1."""
        config = SwarmConfig(
            leechers=16,
            seeds=1,
            piece_count=50,
            rounds=8,
            warmup_rounds=warmup,
            start_completion=0.3,
        )
        reference, fast = run_both(config, seed=17)
        if warmup >= reference.rounds_run:
            assert reference.tft_reciprocal_rounds == {}
            assert fast.tft_reciprocal_rounds == {}
        if warmup == 0 and reference.tft_reciprocal_rounds:
            # With no warmup, counts may reach the full horizon.
            assert max(reference.tft_reciprocal_rounds.values()) <= reference.rounds_run

    @pytest.mark.slow
    @_settings
    @given(
        leechers=st.integers(min_value=4, max_value=20),
        seeds=st.integers(min_value=0, max_value=2),
        piece_count=st.integers(min_value=8, max_value=50),
        rounds=st.integers(min_value=2, max_value=15),
        start_completion=st.sampled_from([0.0, 0.25, 0.6, 0.9]),
        regular_slots=st.integers(min_value=0, max_value=4),
        optimistic_slots=st.integers(min_value=0, max_value=2),
        optimistic_period=st.integers(min_value=1, max_value=4),
        warmup=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equivalence_property(
        self,
        leechers,
        seeds,
        piece_count,
        rounds,
        start_completion,
        regular_slots,
        optimistic_slots,
        optimistic_period,
        warmup,
        seed,
    ):
        config = SwarmConfig(
            leechers=leechers,
            seeds=seeds,
            piece_count=piece_count,
            rounds=rounds,
            start_completion=start_completion,
            regular_slots=regular_slots,
            optimistic_slots=optimistic_slots,
            optimistic_period=optimistic_period,
            warmup_rounds=warmup,
            announce_size=5,
        )
        run_both(config, seed=seed)


@st.composite
def scenario_schedules(draw) -> ScenarioSchedule:
    """Valid ScenarioSchedules across the whole arrival/departure space."""
    arrivals = draw(st.sampled_from(ARRIVAL_PROCESSES))
    kwargs = {"arrivals": arrivals}
    if arrivals == "poisson":
        kwargs["arrival_rate"] = draw(st.sampled_from([0.5, 1.5, 3.0]))
    elif arrivals == "flashcrowd":
        kwargs["burst_round"] = draw(st.integers(min_value=1, max_value=6))
        kwargs["burst_size"] = draw(st.integers(min_value=1, max_value=20))
        kwargs["background_rate"] = draw(st.sampled_from([0.0, 1.0]))
    kwargs["max_arrivals"] = draw(st.sampled_from([None, 8, 30]))
    kwargs["departure"] = draw(st.sampled_from(DEPARTURE_POLICIES))
    if kwargs["departure"] == "linger":
        kwargs["linger_rounds"] = draw(st.integers(min_value=0, max_value=4))
    kwargs["arrival_completion"] = draw(st.sampled_from([0.0, 0.25, 0.6]))
    return ScenarioSchedule(**kwargs)


class TestScenarioEquivalence:
    """Dynamic membership must be bit-identical across engines too."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_named_scenarios(self, name):
        config = SwarmConfig(
            leechers=18, seeds=2, piece_count=50, rounds=20, start_completion=0.3
        )
        reference, fast = run_both(config, seed=11, scenario=name)
        if name != "static":
            assert reference.arrivals > 0
        assert stratification_index(reference) == stratification_index(fast)
        assert reference.download_rates() == fast.download_rates()

    def test_static_schedule_matches_no_scenario(self):
        """Enabling the scenario machinery must not perturb a static swarm."""
        config = SwarmConfig(leechers=14, seeds=1, piece_count=40, rounds=12)
        plain, _ = run_both(config, seed=3)
        scheduled, _ = run_both(config, seed=3, scenario=ScenarioSchedule())
        assert_results_identical(plain, scheduled)

    @pytest.mark.parametrize("linger", [0, 1, 3])
    def test_linger_departure_boundaries(self, linger):
        """Completed leechers must seed exactly `linger` rounds, both engines."""
        scenario = ScenarioSchedule(
            arrivals="poisson",
            arrival_rate=1.5,
            departure="linger",
            linger_rounds=linger,
        )
        config = SwarmConfig(
            leechers=15, seeds=1, piece_count=40, rounds=18, start_completion=0.4
        )
        reference, _ = run_both(config, seed=23, scenario=scenario)
        for peer in reference.peers.values():
            if peer.departed_round is not None:
                assert peer.completed_round is not None
                assert peer.departed_round == peer.completed_round + 1 + linger

    def test_flash_crowd_with_background_rate(self):
        scenario = ScenarioSchedule(
            arrivals="flashcrowd",
            burst_round=3,
            burst_size=30,
            background_rate=1.0,
            departure="leave",
        )
        config = SwarmConfig(
            leechers=12, seeds=2, piece_count=45, rounds=16, start_completion=0.3
        )
        reference, _ = run_both(config, seed=29, scenario=scenario)
        assert reference.arrivals >= 30
        burst_joiners = [
            p for p in reference.peers.values() if p.arrival_round == 3
        ]
        assert len(burst_joiners) >= 30

    def test_bootstrapped_arrivals(self):
        scenario = ScenarioSchedule(
            arrivals="poisson",
            arrival_rate=2.0,
            departure="linger",
            linger_rounds=2,
            arrival_completion=0.5,
        )
        config = SwarmConfig(
            leechers=12, seeds=1, piece_count=40, rounds=15, start_completion=0.2
        )
        run_both(config, seed=31, scenario=scenario)

    def test_capped_arrivals_allow_early_exit(self):
        """With max_arrivals exhausted the early completion exit re-arms."""
        scenario = ScenarioSchedule(
            arrivals="poisson", arrival_rate=4.0, max_arrivals=6, departure="leave"
        )
        config = SwarmConfig(
            leechers=10, seeds=2, piece_count=20, rounds=60, start_completion=0.5
        )
        reference, fast = run_both(config, seed=37, scenario=scenario)
        assert reference.arrivals == 6
        assert reference.rounds_run < config.rounds

    def test_departures_prune_active_neighbor_sets(self):
        scenario = make_scenario("poisson")
        config = SwarmConfig(
            leechers=16, seeds=1, piece_count=30, rounds=20, start_completion=0.5
        )
        reference, fast = run_both(config, seed=41, scenario=scenario)
        assert reference.departures > 0
        departed = {
            pid for pid, p in reference.peers.items() if p.departed_round is not None
        }
        for result in (reference, fast):
            for peer in result.present_peers():
                assert not (peer.neighbors & departed)

    @pytest.mark.slow
    @_settings
    @given(
        scenario=scenario_schedules(),
        leechers=st.integers(min_value=4, max_value=16),
        seeds=st.integers(min_value=0, max_value=2),
        piece_count=st.integers(min_value=8, max_value=40),
        rounds=st.integers(min_value=2, max_value=14),
        start_completion=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_scenario_equivalence_property(
        self,
        scenario,
        leechers,
        seeds,
        piece_count,
        rounds,
        start_completion,
        seed,
    ):
        """fast == reference bit-for-bit over the whole scenario space."""
        config = SwarmConfig(
            leechers=leechers,
            seeds=seeds,
            piece_count=piece_count,
            rounds=rounds,
            start_completion=start_completion,
            announce_size=5,
        )
        run_both(config, seed=seed, scenario=scenario)


@st.composite
def behavior_mixes(draw) -> BehaviorMix:
    """Valid BehaviorMixes: 0-3 adversarial classes plus seed/locality knobs."""
    adversarial = [name for name in BEHAVIOR_NAMES if name != STANDARD]
    chosen = draw(
        st.lists(st.sampled_from(adversarial), min_size=0, max_size=3, unique=True)
    )
    fractions = {
        name: draw(st.sampled_from([0.1, 0.25, 0.33])) for name in chosen
    }
    seed_behavior = draw(st.sampled_from([STANDARD, "super_seed", "partial_seed"]))
    locality_groups = draw(st.sampled_from([1, 2, 4]))
    return BehaviorMix(
        fractions=fractions,
        seed_behavior=seed_behavior,
        locality_groups=locality_groups,
    )


class TestBehaviorEquivalence:
    """Every client behavior must be bit-identical across engines."""

    BASE = dict(leechers=18, seeds=2, piece_count=50, rounds=20, start_completion=0.3)

    @pytest.mark.parametrize(
        "name", [name for name in BEHAVIOR_NAMES if name != STANDARD]
    )
    def test_single_behavior_classes(self, name):
        """Each adversarial class alone, at a fraction that guarantees members."""
        config = SwarmConfig(
            behaviors=BehaviorMix(fractions={name: 0.4}), **self.BASE
        )
        reference, fast = run_both(config, seed=47)
        assert any(p.behavior == name for p in reference.leechers())
        assert reference.download_rates() == fast.download_rates()

    @pytest.mark.parametrize("preset", BEHAVIOR_MIX_NAMES)
    def test_mix_presets(self, preset):
        config = SwarmConfig(behaviors=preset, **self.BASE)
        run_both(config, seed=53)

    def test_trivial_mix_matches_no_mix(self):
        """Enabling the behavior layer with no adversaries draws nothing."""
        config = SwarmConfig(**self.BASE)
        plain, _ = run_both(config, seed=59)
        mixed, _ = run_both(
            SwarmConfig(behaviors=BehaviorMix(), **self.BASE), seed=59
        )
        assert_results_identical(plain, mixed)

    def test_super_seeding_reveals_one_piece_per_transfer(self):
        config = SwarmConfig(
            behaviors=BehaviorMix(seed_behavior="super_seed"), **self.BASE
        )
        run_both(config, seed=61)

    def test_never_upload_peers_upload_nothing(self):
        config = SwarmConfig(
            behaviors=BehaviorMix(fractions={"never_upload": 0.3}), **self.BASE
        )
        reference, _ = run_both(config, seed=67)
        thieves = [p for p in reference.leechers() if p.behavior == "never_upload"]
        assert thieves
        assert all(p.uploaded_kbit == 0.0 for p in thieves)

    def test_partial_seeds_never_complete(self):
        config = SwarmConfig(
            behaviors=BehaviorMix(fractions={"partial_seed": 0.3}), **self.BASE
        )
        reference, _ = run_both(config, seed=71)
        partial = [p for p in reference.leechers() if p.behavior == "partial_seed"]
        assert partial
        assert all(p.completed_round is None for p in partial)
        assert all(not p.bitfield.is_complete() for p in partial)

    def test_behaviors_under_churn(self):
        """Behavior assignment of arrivals stays identical under every scenario."""
        config = SwarmConfig(behaviors="hostile", **self.BASE)
        for name in SCENARIO_NAMES:
            run_both(config, seed=73, scenario=name)

    def test_arrival_mix_override(self):
        """A scenario's own mix governs arrivals; the swarm mix, the initial set."""
        scenario = ScenarioSchedule(
            arrivals="flashcrowd",
            burst_round=3,
            burst_size=20,
            behaviors=BehaviorMix(fractions={"free_rider": 1.0}),
        )
        config = SwarmConfig(**self.BASE)
        reference, _ = run_both(config, seed=79, scenario=scenario)
        joiners = [p for p in reference.leechers() if p.arrival_round >= 3]
        assert joiners
        assert all(p.behavior == "free_rider" for p in joiners)
        initial = [p for p in reference.leechers() if p.arrival_round == 0]
        assert all(p.behavior == STANDARD for p in initial)

    @pytest.mark.slow
    @_settings
    @given(
        mix=behavior_mixes(),
        scenario=scenario_schedules(),
        leechers=st.integers(min_value=4, max_value=16),
        seeds=st.integers(min_value=0, max_value=2),
        piece_count=st.integers(min_value=8, max_value=40),
        rounds=st.integers(min_value=2, max_value=14),
        start_completion=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_behavior_equivalence_property(
        self,
        mix,
        scenario,
        leechers,
        seeds,
        piece_count,
        rounds,
        start_completion,
        seed,
    ):
        """fast == reference bit-for-bit over mixed behaviors x scenarios."""
        config = SwarmConfig(
            leechers=leechers,
            seeds=seeds,
            piece_count=piece_count,
            rounds=rounds,
            start_completion=start_completion,
            announce_size=5,
            behaviors=mix,
        )
        run_both(config, seed=seed, scenario=scenario)


@st.composite
def fault_schedules(draw) -> FaultSchedule:
    """Valid FaultSchedules: any subset of the four fault kinds."""
    events = []
    if draw(st.booleans()):
        events.append(
            FaultEvent(
                kind="outage",
                start=draw(st.integers(min_value=1, max_value=8)),
                rounds=draw(st.integers(min_value=1, max_value=4)),
            )
        )
    if draw(st.booleans()):
        events.append(
            FaultEvent(
                kind="loss",
                start=draw(st.integers(min_value=1, max_value=6)),
                rounds=draw(st.sampled_from([0, 3, 6])),
                rate=draw(st.sampled_from([0.02, 0.1, 0.5])),
            )
        )
    if draw(st.booleans()):
        events.append(
            FaultEvent(
                kind="crash",
                start=draw(st.integers(min_value=2, max_value=8)),
                count=draw(st.integers(min_value=1, max_value=4)),
                rejoin_after=draw(st.sampled_from([0, 1, 3])),
            )
        )
    if draw(st.booleans()):
        events.append(
            FaultEvent(
                kind="partition",
                start=draw(st.integers(min_value=1, max_value=8)),
                rounds=draw(st.integers(min_value=1, max_value=4)),
                groups=draw(st.sampled_from([2, 3])),
            )
        )
    return FaultSchedule(events=tuple(events))


class TestFaultEquivalence:
    """Every fault scenario must be bit-identical across engines."""

    # Slow enough (600 pieces against a 300 kbps seed) that the swarm is
    # still incomplete when the mid-run fault windows open; a too-easy
    # config drains before round 5 and every fault becomes a no-op.
    BASE = dict(
        leechers=20,
        seeds=2,
        piece_count=600,
        rounds=20,
        start_completion=0.3,
        seed_upload_kbps=300.0,
    )

    def test_trivial_schedule_matches_no_faults(self):
        """An empty FaultSchedule draws nothing: byte-identical to faults=None."""
        plain, _ = run_both(SwarmConfig(**self.BASE), seed=101)
        gated, _ = run_both(
            SwarmConfig(faults=FaultSchedule(), **self.BASE), seed=101
        )
        assert_results_identical(plain, gated)

    @pytest.mark.parametrize("preset", FAULT_PRESET_NAMES)
    def test_fault_presets(self, preset):
        config = SwarmConfig(faults=preset, **self.BASE)
        run_both(config, seed=103, scenario="poisson")

    def test_outage_with_arrivals(self):
        """Arrivals during the outage queue their announces and back off."""
        config = SwarmConfig(faults="outage:3+5", **self.BASE)
        reference, _ = run_both(config, seed=107, scenario="poisson")
        assert reference.arrivals > 0

    def test_crash_with_rejoin(self):
        """Crashed peers vanish with their bitfields and return intact."""
        config = SwarmConfig(faults="crash:4@5~3", **self.BASE)
        reference, _ = run_both(config, seed=109)
        # Everyone is back by the end: a rejoin clears departed_round.
        assert all(p.departed_round is None for p in reference.peers.values())

    def test_crash_without_rejoin(self):
        config = SwarmConfig(faults="crash:4@5", **self.BASE)
        reference, _ = run_both(config, seed=113)
        crashed = [
            p for p in reference.peers.values() if p.departed_round is not None
        ]
        assert len(crashed) == 4
        # A crash scrubs live connections but keeps the bitfield.
        assert all(not p.neighbors for p in crashed)
        assert all(p.bitfield.count() > 0 for p in crashed)

    def test_partition_with_loss(self):
        config = SwarmConfig(faults="partition:4+6/2,loss:0.1", **self.BASE)
        run_both(config, seed=127)

    def test_kitchen_sink_under_churn(self):
        config = SwarmConfig(
            faults="outage:3+3,loss:0.05,crash:3@6~2,partition:8+3/2",
            **self.BASE,
        )
        for name in SCENARIO_NAMES:
            run_both(config, seed=131, scenario=name)

    @pytest.mark.slow
    @_settings
    @given(
        faults=fault_schedules(),
        scenario=scenario_schedules(),
        leechers=st.integers(min_value=4, max_value=16),
        seeds=st.integers(min_value=0, max_value=2),
        piece_count=st.integers(min_value=8, max_value=40),
        rounds=st.integers(min_value=2, max_value=14),
        start_completion=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fault_equivalence_property(
        self,
        faults,
        scenario,
        leechers,
        seeds,
        piece_count,
        rounds,
        start_completion,
        seed,
    ):
        """fast == reference bit-for-bit over fault schedules x scenarios."""
        config = SwarmConfig(
            leechers=leechers,
            seeds=seeds,
            piece_count=piece_count,
            rounds=rounds,
            start_completion=start_completion,
            announce_size=5,
            faults=faults,
        )
        run_both(config, seed=seed, scenario=scenario)


@st.composite
def resilience_policies(draw) -> ResiliencePolicy:
    """Non-trivial ResiliencePolicies across all three defenses."""
    return ResiliencePolicy(
        trackers=draw(st.sampled_from([1, 2, 3])),
        pex=draw(st.booleans()),
        pex_sample=draw(st.sampled_from([1, 4, 8])),
        keepalive_timeout=draw(st.sampled_from([0, 2, 5])),
    )


class TestResilienceEquivalence:
    """Every resilience policy must be bit-identical across engines."""

    BASE = dict(
        leechers=20,
        seeds=2,
        piece_count=600,
        rounds=20,
        start_completion=0.3,
        seed_upload_kbps=300.0,
    )

    def test_trivial_policy_matches_no_resilience(self):
        """The default policy draws nothing: byte-identical to resilience=None."""
        plain, _ = run_both(SwarmConfig(**self.BASE), seed=211)
        gated, _ = run_both(
            SwarmConfig(resilience=ResiliencePolicy(), **self.BASE), seed=211
        )
        assert plain.resilience is None and gated.resilience is None
        assert_results_identical(plain, gated)

    @pytest.mark.parametrize(
        "preset", [p for p in RESILIENCE_PRESET_NAMES if p != "off"]
    )
    def test_resilience_presets_under_faults(self, preset):
        config = SwarmConfig(
            faults="outage:3+4/all,crash:3@2~6", resilience=preset, **self.BASE
        )
        reference, _ = run_both(config, seed=223, scenario="poisson")
        assert reference.resilience is not None

    def test_failover_absorbs_partial_outage(self):
        """A replica-0 outage costs a failover walk, not tracker service."""
        faulty = SwarmConfig(
            faults="outage:4+6", resilience="failover", **self.BASE
        )
        clean = SwarmConfig(resilience="failover", **self.BASE)
        faulty_ref, _ = run_both(faulty, seed=227, scenario="poisson")
        clean_ref, _ = run_both(clean, seed=227, scenario="poisson")
        assert faulty_ref.resilience.failover_announces > 0
        # The swarm dynamics are those of the fault-free run: only the
        # replica accounting differs.
        assert_results_identical(
            replace(faulty_ref, config=clean_ref.config, resilience=None),
            replace(clean_ref, resilience=None),
        )

    def test_full_outage_degenerates_to_defenseless(self):
        """All replicas down == the single-tracker outage behaviour."""
        armed = SwarmConfig(
            faults="outage:4+4/all", resilience="failover", **self.BASE
        )
        bare = SwarmConfig(faults="outage:4+4", **self.BASE)
        armed_ref, _ = run_both(armed, seed=229, scenario="poisson")
        bare_ref, _ = run_both(bare, seed=229, scenario="poisson")
        assert armed_ref.resilience.failover_announces == 0
        armed_ref = replace(armed_ref, config=bare_ref.config, resilience=None)
        assert_results_identical(armed_ref, bare_ref)

    def test_pex_gossips_through_total_outage(self):
        config = SwarmConfig(
            faults="outage:3+5/all", resilience="pex", **self.BASE
        )
        reference, _ = run_both(config, seed=233, scenario="poisson")
        stats = reference.resilience
        assert stats.pex_introductions > 0
        assert stats.pex_bootstraps > 0  # poisson arrivals mid-blackout

    def test_eviction_purges_stale_registrations(self):
        config = SwarmConfig(
            faults="crash:4@3", resilience="trackers:1,keepalive:3", **self.BASE
        )
        reference, _ = run_both(config, seed=239)
        stats = reference.resilience
        assert stats.evictions == 4
        assert stats.purges == 4

    def test_rejoin_cancels_eviction(self):
        config = SwarmConfig(
            faults="crash:4@3~2", resilience="trackers:1,keepalive:5", **self.BASE
        )
        reference, _ = run_both(config, seed=241)
        assert reference.resilience.evictions == 0

    def test_replica_target_beyond_policy_rejected(self):
        config = SwarmConfig(faults="outage:3+2/2", resilience="trackers:2", **self.BASE)
        with pytest.raises(ValueError, match="targets tracker replica 2"):
            SwarmSimulator(config, seed=1)
        with pytest.raises(ValueError, match="targets tracker replica 2"):
            SwarmSimulator(config, seed=1, engine="fast")

    @pytest.mark.slow
    @_settings
    @given(
        resilience=resilience_policies(),
        faults=fault_schedules(),
        scenario=scenario_schedules(),
        leechers=st.integers(min_value=4, max_value=16),
        seeds=st.integers(min_value=0, max_value=2),
        piece_count=st.integers(min_value=8, max_value=40),
        rounds=st.integers(min_value=2, max_value=14),
        start_completion=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_resilience_equivalence_property(
        self,
        resilience,
        faults,
        scenario,
        leechers,
        seeds,
        piece_count,
        rounds,
        start_completion,
        seed,
    ):
        """fast == reference bit-for-bit over policies x faults x scenarios."""
        config = SwarmConfig(
            leechers=leechers,
            seeds=seeds,
            piece_count=piece_count,
            rounds=rounds,
            start_completion=start_completion,
            announce_size=5,
            faults=faults,
            resilience=resilience,
        )
        run_both(config, seed=seed, scenario=scenario)


class TestSwarmDeterminism:
    def test_same_seed_same_result_reference(self):
        config = SwarmConfig(leechers=15, seeds=1, piece_count=40, rounds=15)
        first = SwarmSimulator(config, seed=33).run()
        second = SwarmSimulator(config, seed=33).run()
        assert_results_identical(first, second)

    def test_same_seed_same_result_fast(self):
        config = SwarmConfig(leechers=15, seeds=1, piece_count=40, rounds=15)
        first = SwarmSimulator(config, seed=33, engine="fast").run()
        second = SwarmSimulator(config, seed=33, engine="fast").run()
        assert_results_identical(first, second)

    def test_different_seeds_differ(self):
        config = SwarmConfig(leechers=15, seeds=1, piece_count=40, rounds=15)
        first = SwarmSimulator(config, seed=1, engine="fast").run()
        second = SwarmSimulator(config, seed=2, engine="fast").run()
        assert first.collaboration_volume != second.collaboration_volume


class TestEngineInterface:
    def test_unknown_engine_rejected(self):
        config = SwarmConfig(leechers=5, piece_count=10, rounds=2)
        with pytest.raises(ModelError):
            SwarmSimulator(config, engine="warp")

    def test_fast_simulator_requires_swarm_config(self):
        with pytest.raises(TypeError):
            FastSwarmSimulator({"leechers": 5})

    def test_bandwidth_length_checked(self):
        config = SwarmConfig(leechers=5, piece_count=10, rounds=2)
        with pytest.raises(ValueError):
            SwarmSimulator(config, engine="fast", bandwidths=[100.0] * 3)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("round_seconds", -10.0),
            ("round_seconds", 0.0),
            ("round_seconds", float("nan")),
            ("round_seconds", float("inf")),
            ("piece_size_kbit", float("nan")),
            ("piece_size_kbit", float("inf")),
            ("seed_upload_kbps", -5.0),
            ("seed_upload_kbps", float("nan")),
            ("seed_upload_kbps", float("inf")),
            ("bandwidths", [-100.0] * 10),
            ("bandwidths", [float("nan")] * 10),
            ("bandwidths", [200.0] * 9 + [float("inf")]),
            ("optimistic_period", 2.0),
            ("regular_slots", 2.5),
            ("seed_slots", 2.5),
            ("rounds", 2.5),
            ("announce_size", 5.5),
            ("warmup_rounds", 0.5),
            ("leechers", 10.0),
            ("piece_count", "20"),
            ("optimistic_slots", True),
            ("seeds", np.float64(1.0)),
        ],
    )
    def test_parameters_that_cannot_describe_a_run_are_rejected(self, engine, field, value):
        base = dict(leechers=10, seeds=1, piece_count=20, rounds=3)
        with pytest.raises(ValueError, match=field):
            if field == "bandwidths":
                SwarmSimulator(SwarmConfig(**base), seed=1, engine=engine, bandwidths=value)
            else:
                SwarmSimulator(SwarmConfig(**{**base, field: value}), seed=1, engine=engine)

    def test_fast_simulator_exposes_peers(self):
        config = SwarmConfig(leechers=6, seeds=1, piece_count=12, rounds=3)
        reference = SwarmSimulator(config, seed=3)
        fast = SwarmSimulator(config, seed=3, engine="fast")
        # Before run(): the initial populations agree.
        assert set(fast.peers) == set(reference.peers)
        for pid, peer in reference.peers.items():
            snapshot = fast.peers[pid]
            assert snapshot.upload_kbps == peer.upload_kbps
            assert snapshot.neighbors == peer.neighbors
            assert snapshot.bitfield.held() == peer.bitfield.held()
        # After run(): the snapshot reflects the final state.
        result = fast.run()
        for pid, peer in result.peers.items():
            assert fast.peers[pid].bitfield.held() == peer.bitfield.held()

    def test_conflicting_piece_size_spellings_rejected(self):
        with pytest.raises(TypeError):
            SwarmConfig(
                leechers=5, piece_count=10, rounds=2,
                piece_size_kbit=512.0, piece_size_kb=256.0,
            )


class TestFastComponents:
    def test_bitfield_matrix_roundtrip(self):
        matrix = BitfieldMatrix(3, 13)
        matrix.fill(0, [0, 5, 12])
        matrix.set_complete(1)
        assert matrix.to_bitfield(0).held() == {0, 5, 12}
        assert matrix.to_bitfield(1).held() == set(range(13))
        assert matrix.to_bitfield(2).held() == set()
        assert matrix.is_complete(1) and not matrix.is_complete(0)
        assert matrix.availability().tolist() == [
            2 if p in {0, 5, 12} else 1 for p in range(13)
        ]
        wanted = matrix.indices(matrix.wanted_bytes(1, 0))
        assert wanted.tolist() == [p for p in range(13) if p not in {0, 5, 12}]

    def test_bitfield_matrix_add_and_padding(self):
        matrix = BitfieldMatrix(2, 9)  # forces a padded last byte
        matrix.set_complete(0)
        matrix.add(1, 8)
        assert matrix.have_count.tolist() == [9, 1]
        # Padding bits of the seed row must not leak into wanted masks.
        assert matrix.indices(matrix.wanted_bytes(0, 1)).tolist() == list(range(8))

    def test_edge_interest_matches_setwise(self):
        rng = np.random.default_rng(0)
        matrix = BitfieldMatrix(6, 30)
        held = []
        for i in range(6):
            pieces = rng.choice(30, size=int(rng.integers(0, 30)), replace=False)
            matrix.fill(i, pieces)
            held.append(set(int(p) for p in pieces))
        src = np.repeat(np.arange(6), 6)
        dst = np.tile(np.arange(6), 6)
        interest = matrix.edge_interest(src, dst)
        for s, d, flag in zip(src, dst, interest):
            assert flag == bool(held[s] - held[d])

    def test_fast_tracker_matches_reference(self):
        reference = Tracker(announce_size=4)
        fast = FastTracker(announce_size=4)
        ref_rng = RandomSource(7).stream("tracker")
        fast_rng = RandomSource(7).stream("tracker")
        for pid in range(1, 30):
            ref_contacts = reference.announce(pid, ref_rng)
            fast_contacts = fast.announce(pid, fast_rng)
            assert ref_contacts == [int(x) for x in fast_contacts]
        assert fast.swarm_size == reference.swarm_size == 29

    def test_fast_tracker_gap_announce_matches_reference(self):
        # A gap in the id sequence (an announce delayed by outage
        # backoff) drops the fast tracker to the dynamic regime; the
        # draws stay id-for-id identical with the reference.
        reference = Tracker(announce_size=3)
        fast = FastTracker(announce_size=3)
        ref_rng = RandomSource(23).stream("tracker")
        fast_rng = RandomSource(23).stream("tracker")
        for pid in (1, 5, 3, 7):
            ref_contacts = reference.announce(pid, ref_rng)
            fast_contacts = fast.announce(pid, fast_rng)
            assert ref_contacts == [int(x) for x in fast_contacts]
        assert fast.known_peers() == reference.known_peers() == [1, 3, 5, 7]

    def test_fast_tracker_matches_reference_under_churn(self):
        """Interleaved announces and departures stay id-for-id identical."""
        reference = Tracker(announce_size=4)
        fast = FastTracker(announce_size=4)
        ref_rng = RandomSource(19).stream("tracker")
        fast_rng = RandomSource(19).stream("tracker")
        departures = {8: [3, 5], 12: [1], 16: [9, 11, 2]}
        for pid in range(1, 25):
            ref_contacts = reference.announce(pid, ref_rng)
            fast_contacts = fast.announce(pid, fast_rng)
            assert ref_contacts == [int(x) for x in fast_contacts]
            for gone in departures.get(pid, []):
                reference.depart(gone)
                fast.depart(gone)
            assert reference.known_peers() == fast.known_peers()
            assert reference.swarm_size == fast.swarm_size

    def test_bitfield_matrix_growth(self):
        matrix = BitfieldMatrix(2, 11)
        matrix.fill(0, [0, 9])
        matrix.set_complete(1)
        first = matrix.add_peers(3)
        assert first == 2
        assert matrix.n_peers == 5
        assert matrix.capacity >= 5
        # Existing rows survive the reallocation, new rows are empty.
        assert matrix.to_bitfield(0).held() == {0, 9}
        assert matrix.is_complete(1)
        for fresh in range(2, 5):
            assert matrix.to_bitfield(fresh).held() == set()
        matrix.add(3, 7)
        assert matrix.have_count[:5].tolist() == [2, 11, 0, 1, 0]
        assert matrix.unpack_row(3).sum() == 1
        # availability only counts live rows, even below capacity.
        assert matrix.availability().sum() == 2 + 11 + 1

    def test_batched_regular_slots_ordering(self):
        # One peer (0) with four contributors; ranked by (-volume, id).
        edge_peer = np.array([0, 0, 0, 0, 1])
        partner_id = np.array([5, 2, 9, 7, 3])
        received = np.array([1.0, 4.0, 4.0, 0.5, 2.0])
        interested = np.array([True, True, True, True, False])
        peers, partners = batched_regular_slots(edge_peer, partner_id, received, interested, 3)
        assert peers.tolist() == [0, 0, 0]
        assert partners.tolist() == [2, 9, 5]
        # Zero slots or nothing received -> no slots.
        for slots, volumes in ((0, received), (3, np.zeros(5))):
            peers, partners = batched_regular_slots(
                edge_peer, partner_id, volumes, interested, slots
            )
            assert peers.tolist() == partners.tolist() == []
