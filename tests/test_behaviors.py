"""Unit tests for the client-behavior layer.

The cross-engine bit-identity of behaviors lives in
``tests/test_swarm_engine_equivalence.py`` and the golden traces; this
file pins the *semantics* of :mod:`repro.bittorrent.behaviors` itself --
profile validation, mix validation and normalization, spec parsing, the
assignment draws, the edge filters -- plus the simulation-level meaning of
each behavior on the reference engine (free-riders download slower,
BitThief peers upload nothing, NAT edges never form, locality bias skews
neighbor sets, super seeds trickle one piece per transfer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bittorrent.behaviors import (
    BEHAVIOR_MIX_NAMES,
    BEHAVIOR_NAMES,
    STANDARD,
    BehaviorMix,
    BehaviorProfile,
    bootstrap_piece_count,
    filter_contacts,
    make_behavior_mix,
    profile_for,
    resolve_behavior_mix,
)
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator


class TestBehaviorProfile:
    def test_registry_names(self):
        assert set(BEHAVIOR_NAMES) == {
            "standard",
            "free_rider",
            "never_upload",
            "super_seed",
            "partial_seed",
            "nat_limited",
            "locality_biased",
        }
        for name in BEHAVIOR_NAMES:
            assert profile_for(name).name == name

    def test_only_standard_is_standard(self):
        assert profile_for(STANDARD).is_standard
        for name in BEHAVIOR_NAMES:
            if name != STANDARD:
                assert not profile_for(name).is_standard

    def test_unknown_behavior_error_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            profile_for("saint")
        message = str(excinfo.value)
        assert "saint" in message
        for name in BEHAVIOR_NAMES:
            assert name in message

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "x", "upload_factor": -0.1},
            {"name": "x", "reveal_limit": 0},
            {"name": "x", "hold_fraction": 1.0},
            {"name": "x", "hold_fraction": -0.2},
            {"name": "x", "locality_bias": 1.5},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BehaviorProfile(**kwargs)


class TestBehaviorMix:
    def test_trivial_mix(self):
        mix = BehaviorMix()
        assert mix.is_trivial
        assert not mix.uses_locality
        assert mix.behavior_names() == (STANDARD,)

    def test_fractions_normalized_and_order_independent(self):
        a = BehaviorMix(fractions={"never_upload": 0.1, "free_rider": 0.2})
        b = BehaviorMix(
            fractions=[("free_rider", 0.2), ("never_upload", 0.1)]
        )
        assert a == b
        assert a.fractions == (("free_rider", 0.2), ("never_upload", 0.1))
        assert not a.is_trivial

    def test_zero_fractions_dropped(self):
        assert BehaviorMix(fractions={"free_rider": 0.0}).is_trivial

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fractions": {"saint": 0.2}},
            {"fractions": {"free_rider": 1.2}},
            {"fractions": {"free_rider": -0.1}},
            {"fractions": {"free_rider": 0.7, "never_upload": 0.7}},
            {"fractions": [("free_rider", 0.2), ("free_rider", 0.3)]},
            {"seed_behavior": "saint"},
            {"locality_groups": 0},
        ],
    )
    def test_invalid_mixes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BehaviorMix(**kwargs)

    def test_uses_locality_from_fractions_and_seeds(self):
        assert BehaviorMix(fractions={"locality_biased": 0.3}).uses_locality
        assert not BehaviorMix(fractions={"free_rider": 0.3}).uses_locality
        assert BehaviorMix(seed_behavior="locality_biased").uses_locality

    def test_assign_draws_one_batch_iff_fractions(self):
        mix = BehaviorMix(fractions={"free_rider": 0.5})
        rng = np.random.default_rng(0)
        names = mix.assign(200, rng)
        assert len(names) == 200
        assert set(names) <= {"standard", "free_rider"}
        # Roughly half free-riders under a 0.5 fraction.
        assert 60 <= names.count("free_rider") <= 140
        # The draw consumed exactly one random(200) batch.
        replay = np.random.default_rng(0)
        replay.random(200)
        assert rng.integers(1 << 30) == replay.integers(1 << 30)

    def test_trivial_assign_draws_nothing(self):
        mix = BehaviorMix()
        rng = np.random.default_rng(0)
        untouched = np.random.default_rng(0)
        assert mix.assign(50, rng) == [STANDARD] * 50
        assert mix.assign(0, rng) == []
        assert rng.integers(1 << 30) == untouched.integers(1 << 30)

    def test_full_fraction_assigns_everybody(self):
        mix = BehaviorMix(fractions={"never_upload": 1.0})
        names = mix.assign(30, np.random.default_rng(1))
        assert names == ["never_upload"] * 30

    def test_assign_groups_range(self):
        mix = BehaviorMix(locality_groups=3)
        groups = mix.assign_groups(100, np.random.default_rng(2))
        assert len(groups) == 100
        assert set(groups) == {0, 1, 2}
        assert mix.assign_groups(0, np.random.default_rng(2)) == []


class TestSpecParsing:
    @pytest.mark.parametrize("preset", BEHAVIOR_MIX_NAMES)
    def test_presets_resolve(self, preset):
        assert isinstance(make_behavior_mix(preset), BehaviorMix)

    def test_spec_round_trip(self):
        mix = make_behavior_mix(
            "free_rider:0.2,never_upload:0.1,seeds:super_seed,groups:8"
        )
        assert mix.fractions == (("free_rider", 0.2), ("never_upload", 0.1))
        assert mix.seed_behavior == "super_seed"
        assert mix.locality_groups == 8
        assert mix == BehaviorMix(
            fractions={"free_rider": 0.2, "never_upload": 0.1},
            seed_behavior="super_seed",
            locality_groups=8,
        )

    def test_unknown_preset_error_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            make_behavior_mix("anarchy")
        message = str(excinfo.value)
        assert "anarchy" in message
        for name in BEHAVIOR_MIX_NAMES:
            assert name in message

    @pytest.mark.parametrize(
        "spec",
        [
            "free_rider",  # no colon, not a preset
            "free_rider:lots",
            "saint:0.2",
            "free_rider:0.2,free_rider:0.3",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_behavior_mix(spec)

    @pytest.mark.parametrize(
        "spec, token",
        [
            ("seeds:free_rider,seeds:super_seed", "seeds:super_seed"),
            ("groups:2,groups:3", "groups:3"),
        ],
    )
    def test_repeated_knob_names_its_token(self, spec, token):
        # Each name may appear once: a repeat must not overwrite.
        with pytest.raises(ValueError, match=f"token '{token}'"):
            make_behavior_mix(spec)

    @pytest.mark.parametrize(
        "spec, location, cause",
        [
            (
                "free_rider:0.2,never_upload:lots",
                "behavior-mix spec error in token 2 ('never_upload:lots', chars 15-32): ",
                "bad behavior fraction 'lots' for 'never_upload'",
            ),
            (
                "groups:2, free_rider:0.1 ,groups:3",
                "behavior-mix spec error in token 3 ('groups:3', chars 26-34): ",
                "'groups' listed twice in the mix (token 'groups:3')",
            ),
        ],
        ids=["malformed", "repeated"],
    )
    def test_errors_locate_the_offending_token(self, spec, location, cause):
        with pytest.raises(ValueError) as err:
            make_behavior_mix(spec)
        message = str(err.value)
        assert location in message
        assert cause in message.partition(location)[2]

    @pytest.mark.parametrize("token", ["groups:abc", "groups:2.5"])
    def test_bad_group_count_names_its_token(self, token):
        with pytest.raises(ValueError) as excinfo:
            make_behavior_mix(f"free_rider:0.2,{token}")
        message = str(excinfo.value)
        assert token in message and "groups:count" in message

    def test_resolve_behavior_mix(self):
        assert resolve_behavior_mix(None).is_trivial
        assert resolve_behavior_mix("freeriders").fractions == (
            ("free_rider", 0.2),
        )
        mix = BehaviorMix(fractions={"nat_limited": 0.5})
        assert resolve_behavior_mix(mix) is mix
        with pytest.raises(TypeError):
            resolve_behavior_mix(42)


class TestBootstrapAndFilters:
    def test_bootstrap_piece_count(self):
        standard = profile_for(STANDARD)
        partial = profile_for("partial_seed")  # hold_fraction = 0.5
        assert bootstrap_piece_count(standard, 7, 40) == 7
        assert bootstrap_piece_count(partial, 7, 40) == 20
        # Clamped: a held subset can never be the whole torrent.
        greedy = BehaviorProfile("x", hold_fraction=0.999)
        assert bootstrap_piece_count(greedy, 0, 10) == 9

    def test_standard_filter_keeps_everything_and_draws_nothing(self):
        rng = np.random.default_rng(0)
        untouched = np.random.default_rng(0)
        kept = filter_contacts(
            profile_for(STANDARD), 0, [3, 1, 4], [0, 1, 2], [True, True, True], rng
        )
        assert kept == [3, 1, 4]
        assert rng.integers(1 << 30) == untouched.integers(1 << 30)

    def test_nat_filter_is_deterministic(self):
        rng = np.random.default_rng(0)
        untouched = np.random.default_rng(0)
        kept = filter_contacts(
            profile_for("nat_limited"),
            0,
            [10, 11, 12],
            [0, 0, 0],
            [False, True, False],
            rng,
        )
        assert kept == [10, 12]
        assert rng.integers(1 << 30) == untouched.integers(1 << 30)

    def test_locality_filter_draws_once_and_keeps_in_group(self):
        profile = profile_for("locality_biased")  # bias = 0.75
        contacts = list(range(200))
        groups = [k % 2 for k in contacts]  # half in-group for group 0
        rng = np.random.default_rng(3)
        kept = filter_contacts(
            profile, 0, contacts, groups, [False] * 200, rng
        )
        in_group = [c for c in kept if c % 2 == 0]
        cross = [c for c in kept if c % 2 == 1]
        assert len(in_group) == 100  # in-group contacts are never dropped
        assert 5 <= len(cross) <= 55  # ~25% of 100 survive the 0.75 bias
        # Exactly one random(200) batch was consumed.
        replay = np.random.default_rng(3)
        replay.random(200)
        assert rng.integers(1 << 30) == replay.integers(1 << 30)

    def test_locality_filter_skips_draw_on_empty_contacts(self):
        rng = np.random.default_rng(4)
        untouched = np.random.default_rng(4)
        assert filter_contacts(
            profile_for("locality_biased"), 0, [], [], [], rng
        ) == []
        assert rng.integers(1 << 30) == untouched.integers(1 << 30)


BASE = dict(leechers=20, seeds=2, piece_count=50, rounds=25, start_completion=0.3)


def run_reference(mix, seed=7, **overrides):
    config = SwarmConfig(behaviors=mix, **{**BASE, **overrides})
    return SwarmSimulator(config, seed=seed).run()


class TestBehaviorSemantics:
    """What each behavior *means*, checked on the reference engine."""

    def test_free_riders_download_slower(self):
        result = run_reference(BehaviorMix(fractions={"free_rider": 0.5}))
        rates = result.download_rates()
        by_class = {"free_rider": [], "standard": []}
        for peer in result.leechers():
            by_class[peer.behavior].append(rates[peer.peer_id])
        assert by_class["free_rider"] and by_class["standard"]
        assert np.mean(by_class["free_rider"]) < np.mean(by_class["standard"])

    def test_never_upload_peers_still_download(self):
        result = run_reference(BehaviorMix(fractions={"never_upload": 0.3}))
        thieves = [p for p in result.leechers() if p.behavior == "never_upload"]
        assert thieves
        assert all(p.uploaded_kbit == 0.0 for p in thieves)
        assert any(p.downloaded_kbit > 0.0 for p in thieves)

    def test_partial_seeds_hold_their_subset(self):
        result = run_reference(BehaviorMix(fractions={"partial_seed": 0.4}))
        partial = [p for p in result.leechers() if p.behavior == "partial_seed"]
        assert partial
        for peer in partial:
            assert peer.bitfield.count() == 25  # hold_fraction 0.5 of 50
            assert peer.downloaded_kbit == 0.0
            assert peer.completed_round is None
        # Their held subset is still served to others.
        assert any(p.uploaded_kbit > 0.0 for p in partial)

    def test_partial_seeds_do_not_block_early_exit(self):
        result = run_reference(
            BehaviorMix(fractions={"partial_seed": 0.3}), rounds=200
        )
        assert result.rounds_run < 200
        downloaders = [
            p for p in result.leechers() if p.behavior != "partial_seed"
        ]
        assert all(p.completed_round is not None for p in downloaders)

    def test_nat_limited_peers_never_neighbor_each_other(self):
        result = run_reference(BehaviorMix(fractions={"nat_limited": 0.6}))
        natted = {
            p.peer_id for p in result.peers.values() if p.behavior == "nat_limited"
        }
        assert len(natted) >= 2
        for pid in natted:
            assert not (result.peers[pid].neighbors & natted)

    def test_locality_groups_assigned_iff_used(self):
        biased = run_reference(
            BehaviorMix(fractions={"locality_biased": 0.5}, locality_groups=3)
        )
        assert all(p.locality_group in {0, 1, 2} for p in biased.peers.values())
        plain = run_reference(BehaviorMix(fractions={"free_rider": 0.5}))
        assert all(p.locality_group == -1 for p in plain.peers.values())

    def test_locality_bias_skews_neighbor_sets(self):
        result = run_reference(
            BehaviorMix(fractions={"locality_biased": 1.0}, locality_groups=2),
            leechers=40,
        )
        same = cross = 0
        for peer in result.peers.values():
            for other in peer.neighbors:
                if result.peers[other].locality_group == peer.locality_group:
                    same += 1
                else:
                    cross += 1
        assert same > cross  # bias 0.75 keeps only ~25% of cross edges

    def test_super_seed_trickles_one_piece_per_transfer(self):
        result = run_reference(
            BehaviorMix(seed_behavior="super_seed"), rounds=3, seeds=1
        )
        piece_kbit = result.config.piece_size_kbit
        seed_id = next(
            pid for pid, p in result.peers.items() if p.is_seed
        )
        for peer in result.leechers():
            granted = peer.received_last_round.get(seed_id, 0.0)
            # One revealed piece plus partial credit, never two full pieces.
            assert granted < 2 * piece_kbit

    def test_behavior_recorded_on_peers(self):
        result = run_reference("hostile")
        seen = {p.behavior for p in result.peers.values()}
        assert STANDARD in seen
        assert seen <= set(BEHAVIOR_NAMES)

    def test_config_resolves_mix_strings(self):
        config = SwarmConfig(behaviors="freeriders", **BASE)
        assert isinstance(config.behaviors, BehaviorMix)
        with pytest.raises(ValueError):
            SwarmConfig(behaviors="anarchy", **BASE)
        with pytest.raises(TypeError):
            SwarmConfig(behaviors=3.14, **BASE)


class TestBehaviorEstimators:
    """Per-behavior analysis: CDFs, class report, stratification split."""

    @pytest.fixture(scope="class")
    def hostile_run(self):
        return run_reference("hostile", leechers=30, rounds=40)

    def test_behavior_download_cdfs(self, hostile_run):
        from repro.bittorrent.analysis import behavior_download_cdfs

        cdfs = behavior_download_cdfs(hostile_run)
        assert set(cdfs) == {
            p.behavior for p in hostile_run.leechers()
        }
        standard = cdfs[STANDARD]
        assert standard["durations"].size > 0
        assert standard["cdf"][-1] == 1.0
        assert (np.diff(standard["durations"]) >= 0).all()

    def test_partial_seed_class_has_empty_cdf(self):
        from repro.bittorrent.analysis import behavior_download_cdfs

        result = run_reference(BehaviorMix(fractions={"partial_seed": 0.4}))
        cdfs = behavior_download_cdfs(result)
        assert cdfs["partial_seed"]["durations"].size == 0

    def test_behavior_report(self, hostile_run):
        from repro.bittorrent.analysis import behavior_report

        report = behavior_report(hostile_run)
        total = sum(row["peers"] for row in report.values())
        assert total == len(hostile_run.leechers())
        for row in report.values():
            assert 0.0 <= row["completion_fraction"] <= 1.0
            assert row["completed"] <= row["peers"]
        assert report["never_upload"]["mean_share_ratio"] > (
            report[STANDARD]["mean_share_ratio"]
        )

    def test_behavior_stratification_split(self, hostile_run):
        from repro.bittorrent.analysis import behavior_stratification
        from repro.bittorrent.swarm import stratification_index

        split = behavior_stratification(hostile_run)
        assert set(split) == {"overall", "standard_only"}
        assert split["overall"] == stratification_index(hostile_run)
        assert split["standard_only"] == stratification_index(
            hostile_run, behaviors=("standard",)
        )
        assert -1.0 <= split["standard_only"] <= 1.0

    def test_stratification_index_behavior_filter(self, hostile_run):
        from repro.bittorrent.swarm import stratification_index

        all_classes = stratification_index(
            hostile_run, behaviors=tuple(BEHAVIOR_NAMES)
        )
        assert all_classes == stratification_index(hostile_run)
        # Filtering down to too few peers raises like an empty swarm does.
        with pytest.raises(ValueError):
            stratification_index(hostile_run, behaviors=("super_seed",))
