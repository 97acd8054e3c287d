"""Tests for the swarm simulator, bandwidth distribution, efficiency model and
slot-count strategy analysis."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.bittorrent.bandwidth import BandwidthClass, BandwidthDistribution, saroiu_like_distribution
from repro.bittorrent.efficiency import (
    analytic_efficiency,
    efficiency_observations,
    simulated_efficiency,
)
from repro.bittorrent.strategy import (
    is_connectivity_feasible,
    minimum_slots_for_connectivity,
    rational_best_response,
    recommended_default_slots,
    slot_deviation_payoffs,
)
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator, stratification_index


class TestBandwidthDistribution:
    def test_cdf_monotone_and_bounded(self):
        dist = saroiu_like_distribution()
        grid = np.logspace(1, 5, 50)
        cdf = dist.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] < 0.05 and cdf[-1] > 0.95

    def test_percentage_of_hosts_scale(self):
        dist = saroiu_like_distribution()
        assert 0 <= dist.percentage_of_hosts(56.0) <= 100

    def test_sampling_matches_cdf(self, rng):
        dist = saroiu_like_distribution()
        samples = dist.sample(20000, rng)
        empirical = np.mean(samples <= 768.0)
        assert empirical == pytest.approx(float(dist.cdf(768.0)), abs=0.03)

    def test_quantile_inverts_cdf(self):
        dist = saroiu_like_distribution()
        median = dist.quantile(0.5)
        assert float(dist.cdf(median)) == pytest.approx(0.5, abs=0.01)

    def test_density_peaks_sorted(self):
        peaks = saroiu_like_distribution().density_peaks()
        assert peaks == sorted(peaks)
        assert 56.0 in peaks

    def test_figure10_curve_shape(self):
        curve = saroiu_like_distribution().figure10_curve(points=40)
        assert curve["upstream_kbps"].shape == (40,)
        assert curve["percentage_of_hosts"][-1] > 95

    def test_custom_mixture_validation(self):
        with pytest.raises(ValueError):
            BandwidthDistribution([])
        with pytest.raises(ValueError):
            BandwidthClass("bad", -1.0, 0.5)
        with pytest.raises(ValueError):
            BandwidthClass("bad", 100.0, 0.0)

    def test_wide_distribution(self, rng):
        # "All peers are equal but some peers are more equal than others":
        # the spread covers several orders of magnitude.
        samples = saroiu_like_distribution().sample(5000, rng)
        assert np.percentile(samples, 99) / np.percentile(samples, 1) > 100


class TestEfficiencyModel:
    @pytest.fixture(scope="class")
    def curve(self):
        return analytic_efficiency(n=400, b0=3, expected_degree=20.0, seed=1)

    def test_best_peers_have_low_share_ratio(self, curve):
        # Paper observation: the best peers can only collaborate with worse
        # peers, so their expected D/U ratio is below 1.
        assert curve.best_peer_efficiency() < 1.0

    def test_median_peer_near_one(self, curve):
        # Peers inside a bandwidth density peak have a ratio close to 1.
        assert 0.7 <= curve.median_efficiency() <= 1.6

    def test_efficiency_peaks_exist(self, curve):
        # Peers just above a density peak enjoy ratios well above 1.
        assert float(np.max(curve.efficiency)) > 1.5

    def test_percentile_accessor(self, curve):
        assert curve.efficiency_at_percentile(100) == pytest.approx(
            curve.best_peer_efficiency()
        )
        with pytest.raises(ValueError):
            curve.efficiency_at_percentile(150)

    def test_observations_dictionary(self, curve):
        obs = efficiency_observations(curve)
        assert set(obs) == {
            "best_peer_efficiency",
            "median_efficiency",
            "worst_decile_efficiency",
            "max_efficiency",
        }

    def test_simulation_agrees_with_analytic_model(self):
        uploads = np.exp(np.random.default_rng(5).uniform(np.log(50), np.log(5000), 200))
        analytic = analytic_efficiency(
            n=200, b0=3, expected_degree=15.0, uploads=uploads.tolist(), seed=2
        )
        simulated = simulated_efficiency(
            n=200, b0=3, expected_degree=15.0, uploads=uploads.tolist(), samples=30, seed=2
        )
        # Median share ratios from the two estimators agree within ~20%.
        assert analytic.median_efficiency() == pytest.approx(
            simulated.median_efficiency(), rel=0.25
        )

    def test_more_neighbors_help_best_peers(self):
        sparse = analytic_efficiency(n=300, b0=3, expected_degree=10.0, seed=3)
        dense = analytic_efficiency(n=300, b0=3, expected_degree=40.0, seed=3)
        # With more acceptable peers, the best peer finds mates closer to its
        # own bandwidth, improving (or at least not worsening) its ratio.
        assert dense.best_peer_efficiency() >= sparse.best_peer_efficiency() - 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_efficiency(n=1)
        with pytest.raises(ValueError):
            analytic_efficiency(n=10, uploads=[0.0] * 10)
        with pytest.raises(ValueError):
            simulated_efficiency(n=10, samples=0)


class TestSwarmSimulator:
    @pytest.fixture(scope="class")
    def swarm_result(self):
        rng = np.random.default_rng(11)
        bandwidths = np.exp(rng.uniform(np.log(100.0), np.log(2000.0), 40))
        config = SwarmConfig(
            leechers=40,
            seeds=2,
            piece_count=600,
            rounds=80,
            start_completion=0.25,
            seed_upload_kbps=2000.0,
        )
        return SwarmSimulator(config, bandwidths=bandwidths, seed=11).run()

    def test_everyone_completes(self, swarm_result):
        assert swarm_result.completed == 40
        for peer in swarm_result.leechers():
            assert peer.bitfield.is_complete()

    def test_download_rate_correlates_with_upload(self, swarm_result):
        rates = swarm_result.download_rates()
        uploads = {p.peer_id: p.upload_kbps for p in swarm_result.leechers()}
        ids = sorted(rates)
        corr = np.corrcoef([uploads[i] for i in ids], [rates[i] for i in ids])[0, 1]
        assert corr > 0.4

    def test_tft_reciprocity_shows_stratification(self, swarm_result):
        index = stratification_index(swarm_result)
        assert index > 0.3

    def test_share_ratio_of_fast_peers_is_lower(self, swarm_result):
        ratios = swarm_result.share_ratios()
        leechers = sorted(swarm_result.leechers(), key=lambda p: -p.upload_kbps)
        fast = np.mean([ratios[p.peer_id] for p in leechers[:8]])
        slow = np.mean([ratios[p.peer_id] for p in leechers[-8:]])
        assert slow > fast

    def test_volume_conservation(self, swarm_result):
        uploaded = sum(p.uploaded_kbit for p in swarm_result.peers.values())
        downloaded = sum(p.downloaded_kbit for p in swarm_result.peers.values())
        assert uploaded == pytest.approx(downloaded, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SwarmConfig(leechers=1)
        with pytest.raises(ValueError):
            SwarmConfig(start_completion=1.0)
        with pytest.raises(ValueError):
            SwarmConfig(rounds=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = dataclasses.replace(SwarmConfig(piece_size_kbit=512.0), rounds=5)
        assert (config.piece_size_kbit, config.rounds) == (512.0, 5)
        with pytest.raises(ValueError):
            dataclasses.replace(config, rounds=0)

    def test_explicit_bandwidths_length_checked(self):
        config = SwarmConfig(leechers=5, rounds=2, piece_count=10)
        with pytest.raises(ValueError):
            SwarmSimulator(config, bandwidths=[100.0] * 3)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_initial_leechers_are_never_born_complete(self, engine):
        # 0.98 * 20 rounds to 20 pieces: unclamped, every leecher would start
        # complete, without a completion round, and the run would move nothing.
        config = SwarmConfig(
            leechers=8, seeds=1, piece_count=20, rounds=5, start_completion=0.98
        )
        simulator = SwarmSimulator(config, seed=3, engine=engine)
        assert all(
            len(peer.bitfield) == 19 for peer in simulator.peers.values() if not peer.is_seed
        )
        result = simulator.run()
        assert result.completed == 8
        assert [peer.completed_round for peer in result.leechers()] == [1] * 8
        assert sum(peer.downloaded_kbit for peer in result.leechers()) > 0

    def test_seedless_swarm_with_bootstrap_still_progresses(self):
        config = SwarmConfig(
            leechers=10, seeds=0, piece_count=50, rounds=30, start_completion=0.5
        )
        result = SwarmSimulator(config, seed=7).run()
        total_downloaded = sum(p.downloaded_kbit for p in result.leechers())
        assert total_downloaded > 0


class TestSlotStrategy:
    def test_connectivity_lower_bound(self):
        assert minimum_slots_for_connectivity() == 3
        assert not is_connectivity_feasible(1, 10)
        assert is_connectivity_feasible(2, 10)  # only as the fragile cycle
        assert is_connectivity_feasible(3, 10)
        assert not is_connectivity_feasible(5, 4)

    def test_recommended_defaults(self):
        defaults = recommended_default_slots()
        assert defaults["total"] == 4
        assert defaults["tft_slots"] + defaults["optimistic_slots"] == 4

    def test_rational_peer_prefers_fewer_slots(self):
        # The paper's Nash-equilibrium argument: concentrating the upload on
        # fewer slots raises the peer's rank and its share ratio.
        best = rational_best_response(
            400.0, population_slots=3, candidate_slots=(1, 3), n=200, seed=1
        )
        assert best == 1

    def test_deviation_payoffs_structure(self):
        outcomes = slot_deviation_payoffs(
            300.0, population_slots=3, candidate_slots=(1, 3), n=150, seed=2
        )
        assert len(outcomes) == 2
        by_slots = {o.deviant_slots: o for o in outcomes}
        assert by_slots[1].deviant_efficiency >= by_slots[3].deviant_efficiency
        with pytest.raises(ValueError):
            slot_deviation_payoffs(300.0, candidate_slots=(0,), n=100)
