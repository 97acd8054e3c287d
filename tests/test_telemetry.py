"""Tests for the swarm measurement layer (telemetry + analysis).

Three tiers: unit tests of the scrape API and the observer schedule
against hand-built state, cross-engine equivalence of full observed runs
on the golden scenario presets, and a hypothesis property pinning the two
load-bearing guarantees -- an attached observer never changes the swarm,
and ``confirmed(1.0) <= reported <= true completions`` on any scenario,
engine and seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bittorrent.analysis import (
    DEFAULT_THRESHOLDS,
    download_time_cdf,
    observed_download_time_cdf,
    observed_stratification_index,
    threshold_sensitivity,
    visit_count_distribution,
)
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
from repro.bittorrent.telemetry import (
    ObservedSwarm,
    ObserverConfig,
    SwarmObserver,
    resolve_observer,
)
from repro.bittorrent.tracker import ScrapeStats, Tracker
from repro.bittorrent.transfers import TransferBatch
from repro.experiments import telemetry_experiment
from repro.sim.random_source import RandomSource

from test_swarm_engine_equivalence import (
    assert_results_identical,
    behavior_mixes,
    fault_schedules,
    scenario_schedules,
)


def _grants(*pairs):
    """A planned batch granting each directed pair a regular slot."""
    senders = np.array([sender for sender, _ in pairs], dtype=np.int64)
    receivers = np.array([receiver for _, receiver in pairs], dtype=np.int64)
    return TransferBatch(
        senders, receivers, np.zeros(len(pairs)), np.ones(len(pairs), dtype=bool)
    )


_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- tracker scrape API ----------------------------------------------------------


class TestTrackerScrape:
    def _tracker_with_peers(self, count: int) -> Tracker:
        tracker = Tracker(announce_size=4)
        rng = np.random.default_rng(0)
        for pid in range(1, count + 1):
            tracker.announce(pid, rng)
        return tracker

    def test_fresh_tracker_scrape_is_empty(self):
        assert Tracker().scrape() == ScrapeStats(seeders=0, leechers=0, snatches=0)

    def test_register_complete_counts_seeder_not_snatch(self):
        tracker = self._tracker_with_peers(3)
        tracker.register_complete(1)
        assert tracker.scrape() == ScrapeStats(seeders=1, leechers=2, snatches=0)

    def test_record_completion_counts_snatch_and_is_idempotent(self):
        tracker = self._tracker_with_peers(3)
        tracker.record_completion(2)
        tracker.record_completion(2)
        assert tracker.scrape() == ScrapeStats(seeders=1, leechers=2, snatches=1)

    def test_completion_after_register_complete_not_double_counted(self):
        tracker = self._tracker_with_peers(2)
        tracker.register_complete(1)
        tracker.record_completion(1)
        assert tracker.scrape().snatches == 0

    def test_unregistered_peer_ignored(self):
        tracker = self._tracker_with_peers(2)
        tracker.register_complete(99)
        tracker.record_completion(99)
        assert tracker.scrape() == ScrapeStats(seeders=0, leechers=2, snatches=0)

    def test_departing_seeder_leaves_scrape_but_snatches_persist(self):
        tracker = self._tracker_with_peers(3)
        tracker.record_completion(3)
        tracker.depart(3)
        assert tracker.scrape() == ScrapeStats(seeders=0, leechers=2, snatches=1)


# -- observer config and schedule ------------------------------------------------


class _FakeView:
    """A minimal engine view for driving the observer by hand."""

    def __init__(self, known, progress, seed: int = 1):
        self.piece_count = 10
        self.piece_size_kbit = 100.0
        self.round_seconds = 10.0
        self.source = RandomSource(seed)
        self._known = list(known)
        self._progress = dict(progress)
        self.scrapes_served = 0

    def scrape(self) -> ScrapeStats:
        self.scrapes_served += 1
        return ScrapeStats(seeders=1, leechers=len(self._known) - 1, snatches=2)

    def known_peers(self):
        return list(self._known)

    def progress(self, peer_id: int) -> float:
        return self._progress[peer_id]


class TestObserverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scrape_interval=0),
            dict(poll_interval=0),
            dict(poll_budget=-1),
            dict(confirm_threshold=0.0),
            dict(confirm_threshold=1.5),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObserverConfig(**kwargs)

    def test_resolve_observer(self):
        assert resolve_observer(None) is None
        observer = SwarmObserver()
        assert resolve_observer(observer) is observer
        config = ObserverConfig(poll_budget=3)
        assert resolve_observer(config).config is config
        with pytest.raises(TypeError):
            resolve_observer("every-round")


class TestObserverSchedule:
    def _drive(self, config: ObserverConfig, rounds: int, view=None):
        view = view or _FakeView([1, 2, 3], {1: 0.2, 2: 0.5, 3: 1.0})
        observer = SwarmObserver(config)
        observer.begin_run(view)
        for round_index in range(1, rounds + 1):
            observer.observe_round(round_index, _grants())
        return observer.finish(rounds), view

    def test_scrape_and_poll_cadence(self):
        observed, _ = self._drive(
            ObserverConfig(scrape_interval=2, poll_interval=3), rounds=6
        )
        # Scrapes at 1,3,5 (interval 2) plus the poll rounds 1,4.
        assert [s.round for s in observed.scrapes] == [1, 3, 4, 5]
        assert observed.poll_rounds == [1, 4]
        assert observed.rounds_observed == 6

    def test_poll_budget_zero_disables_polls_not_scrapes(self):
        observed, _ = self._drive(
            ObserverConfig(scrape_interval=1, poll_interval=1, poll_budget=0),
            rounds=4,
        )
        assert [s.round for s in observed.scrapes] == [1, 2, 3, 4]
        assert observed.poll_rounds == []
        assert observed.timelines == {}

    def test_unlimited_budget_polls_every_known_peer(self):
        observed, _ = self._drive(
            ObserverConfig(poll_interval=1, scrape_interval=1), rounds=2
        )
        assert sorted(observed.timelines) == [1, 2, 3]
        assert all(len(v) == 2 for v in observed.timelines.values())

    def test_finite_budget_samples_subset_of_known(self):
        view = _FakeView(
            [1, 2, 3, 4, 5, 6], {pid: 0.5 for pid in range(1, 7)}
        )
        observed, _ = self._drive(
            ObserverConfig(poll_interval=1, scrape_interval=1, poll_budget=2),
            rounds=5,
            view=view,
        )
        per_round: dict = {}
        for pid, samples in observed.timelines.items():
            for sample in samples:
                per_round.setdefault(sample.round, []).append(pid)
        assert sorted(per_round) == [1, 2, 3, 4, 5]
        for pids in per_round.values():
            assert len(pids) == 2
            assert set(pids) <= {1, 2, 3, 4, 5, 6}

    def test_partner_reporting_is_reciprocal_only(self):
        view = _FakeView([1, 2, 3], {1: 0.2, 2: 0.5, 3: 1.0})
        observer = SwarmObserver(ObserverConfig(poll_interval=1))
        observer.begin_run(view)
        observer.observe_round(1, _grants((1, 2), (2, 1), (1, 3)))
        observed = observer.finish(1)
        assert observed.timelines[1][0].partners == (2,)
        assert observed.timelines[2][0].partners == (1,)
        assert observed.timelines[3][0].partners == ()

    def test_begin_run_resets_campaign(self):
        view = _FakeView([1], {1: 0.5})
        observer = SwarmObserver(ObserverConfig(poll_interval=1))
        observer.begin_run(view)
        observer.observe_round(1, _grants())
        observer.begin_run(view)
        assert observer.observed.scrapes == []
        assert observer.observed.timelines == {}

    def test_observe_before_begin_raises(self):
        observer = SwarmObserver()
        with pytest.raises(RuntimeError):
            observer.observe_round(1, _grants())
        with pytest.raises(RuntimeError):
            observer.finish(1)


# -- ObservedSwarm accounting ----------------------------------------------------


def _campaign(**kwargs) -> ObservedSwarm:
    defaults = dict(
        config=ObserverConfig(),
        piece_count=10,
        piece_size_kbit=100.0,
        round_seconds=10.0,
    )
    defaults.update(kwargs)
    return ObservedSwarm(**defaults)


class TestDownloadAccounting:
    def test_reported_downloads_reads_last_scrape(self):
        observed = _campaign()
        assert observed.reported_downloads() == 0
        observed.record_scrape(1, ScrapeStats(1, 5, 2))
        observed.record_scrape(4, ScrapeStats(2, 4, 7))
        assert observed.reported_downloads() == 7

    def test_confirmed_requires_first_seen_incomplete(self):
        observed = _campaign()
        observed.record_poll(1, 1, 0.4, ())
        observed.record_poll(3, 1, 1.0, ())
        observed.record_poll(1, 2, 1.0, ())  # seed-like: never seen incomplete
        observed.record_poll(1, 3, 0.5, ())  # never crosses the line
        assert observed.confirmed_downloads(1.0) == 1
        assert observed.confirmed_downloads(0.5) == 2
        assert observed.confirmation_round(1, 1.0) == 3
        assert observed.confirmation_round(2, 1.0) is None
        assert observed.confirmation_round(3, 1.0) is None

    def test_confirmed_monotone_in_threshold(self):
        observed = _campaign()
        rng = np.random.default_rng(0)
        for pid in range(1, 20):
            start = rng.uniform(0.0, 0.6)
            end = rng.uniform(start, 1.0)
            observed.record_poll(1, pid, round(start, 2), ())
            observed.record_poll(5, pid, round(end, 2), ())
        counts = [
            observed.confirmed_downloads(theta)
            for theta in (0.2, 0.5, 0.8, 0.95, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            _campaign().confirmed_downloads(0.0)

    def test_visit_counts_and_first_seen(self):
        observed = _campaign()
        observed.record_poll(2, 7, 0.1, ())
        observed.record_poll(4, 7, 0.3, ())
        observed.record_poll(4, 9, 0.2, ())
        assert observed.visit_counts() == {7: 2, 9: 1}
        assert observed.peers_observed == 2
        assert observed.first_seen(7) == 2
        assert observed.first_seen(5) is None

    def test_observed_rates_from_progress_slope(self):
        observed = _campaign()
        observed.record_poll(1, 1, 0.2, ())
        observed.record_poll(5, 1, 0.6, ())  # +0.4 over 4 rounds
        observed.record_poll(1, 2, 1.0, ())  # complete at first sight: excluded
        observed.record_poll(5, 2, 1.0, ())
        observed.record_poll(3, 3, 0.5, ())  # single visit: excluded
        rates = observed.observed_download_rates()
        # 0.4 * 10 pieces * 100 kbit / (4 rounds * 10 s) = 10 kbps
        assert rates == {1: pytest.approx(10.0)}

    def test_partner_sightings_accumulate_pairs(self):
        observed = _campaign()
        observed.record_poll(1, 1, 0.2, (2, 3))
        observed.record_poll(1, 2, 0.2, (1,))
        observed.record_poll(3, 1, 0.4, (2,))
        assert observed.partner_sightings() == {(1, 2): 3, (1, 3): 1}

    def test_to_recorder_builds_streaming_series(self):
        observed = _campaign()
        observed.record_scrape(1, ScrapeStats(1, 9, 0))
        observed.record_scrape(3, ScrapeStats(2, 8, 4))
        observed.record_poll(1, 1, 0.2, ())
        observed.record_poll(1, 2, 0.4, ())
        observed.record_poll(3, 1, 0.8, ())
        recorder = observed.to_recorder()
        assert recorder.names() == [
            "poll/mean_progress",
            "poll/peers_polled",
            "scrape/leechers",
            "scrape/seeders",
            "scrape/snatches",
        ]
        times, values = recorder["scrape/snatches"].as_arrays()
        assert times.tolist() == [1.0, 3.0]
        assert values.tolist() == [0.0, 4.0]
        assert recorder["poll/peers_polled"].value_at(1.0) == 2.0
        assert recorder["poll/mean_progress"].last() == pytest.approx(0.8)


# -- analysis estimators ---------------------------------------------------------


class TestAnalysis:
    def test_observed_cdf_spans_first_to_confirmation(self):
        observed = _campaign()
        observed.record_poll(1, 1, 0.2, ())
        observed.record_poll(4, 1, 1.0, ())
        observed.record_poll(2, 2, 0.9, ())
        cdf = observed_download_time_cdf(observed, threshold=1.0)
        assert cdf["durations"].tolist() == [3.0]
        assert cdf["cdf"].tolist() == [1.0]
        empty = observed_download_time_cdf(_campaign())
        assert empty["durations"].size == 0

    def test_visit_distribution_shape(self):
        observed = _campaign()
        for pid in (1, 2):
            observed.record_poll(1, pid, 0.1, ())
            observed.record_poll(2, pid, 0.2, ())
        observed.record_poll(1, 3, 0.1, ())
        dist = visit_count_distribution(observed)
        assert dist["visits"].tolist() == [1.0, 2.0]
        assert dist["peers"].tolist() == [1.0, 2.0]

    def test_threshold_sensitivity_curve(self):
        observed = _campaign()
        observed.record_poll(1, 1, 0.3, ())
        observed.record_poll(5, 1, 0.95, ())
        curve = threshold_sensitivity(
            observed, (0.9, 1.0), true_completions=3
        )
        assert curve["thresholds"].tolist() == [0.9, 1.0]
        assert curve["confirmed_downloads"].tolist() == [1.0, 0.0]
        assert curve["undercount_vs_truth"].tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            threshold_sensitivity(observed, ())

    def test_observed_stratification_needs_three_ranked_peers(self):
        observed = _campaign()
        observed.record_poll(1, 1, 0.1, (2,))
        observed.record_poll(4, 1, 0.5, (2,))
        observed.record_poll(1, 2, 0.1, (1,))
        observed.record_poll(4, 2, 0.4, (1,))
        assert observed_stratification_index(observed) == 0.0

    def test_stratified_sightings_yield_positive_index(self):
        observed = _campaign()
        # Two speed classes; each peer only ever seen trading in-class.
        pairs = {1: 2, 2: 1, 3: 4, 4: 3}
        slopes = {1: 0.8, 2: 0.7, 3: 0.2, 4: 0.1}
        for pid, partner in pairs.items():
            observed.record_poll(1, pid, 0.1, (partner,))
            observed.record_poll(5, pid, 0.1 + slopes[pid], (partner,))
        # Ranks 1..4 against partner ranks (2,1,4,3): Pearson r = 0.6.
        assert observed_stratification_index(observed) == pytest.approx(0.6)


# -- full engine runs ------------------------------------------------------------


OBSERVED_SCENARIOS = ["static", "poisson", "flashcrowd", "seed-linger"]


def _observed_config() -> SwarmConfig:
    return SwarmConfig(
        leechers=12,
        seeds=1,
        piece_count=30,
        rounds=14,
        start_completion=0.3,
        announce_size=6,
    )


class TestObserverEngineEquivalence:
    @pytest.mark.parametrize("scenario", OBSERVED_SCENARIOS)
    def test_observation_invisible_and_identical_across_engines(self, scenario):
        config = _observed_config()
        observer_config = ObserverConfig(
            scrape_interval=2, poll_interval=2, poll_budget=5
        )
        baseline = SwarmSimulator(
            config, seed=7, scenario=scenario
        ).run()
        runs = {}
        for engine in ("reference", "fast"):
            runs[engine] = SwarmSimulator(
                config,
                seed=7,
                engine=engine,
                scenario=scenario,
                observer=observer_config,
            ).run()
            # Observation changed nothing in the simulated swarm.
            assert_results_identical(baseline, runs[engine])
        # The observed record is id-for-id identical across engines
        # (dataclass equality covers every scrape and poll sample).
        assert runs["reference"].observed == runs["fast"].observed
        assert runs["reference"].observed.scrapes, "campaign collected no scrapes"

    def test_unobserved_result_has_no_campaign(self):
        result = SwarmSimulator(_observed_config(), seed=7).run()
        assert result.observed is None

    def test_certified_bound_chain_on_poisson_churn(self):
        result = SwarmSimulator(
            _observed_config(),
            seed=11,
            scenario="poisson",
            observer=ObserverConfig(poll_interval=1, scrape_interval=1),
        ).run()
        observed = result.observed
        assert (
            observed.confirmed_downloads(1.0)
            <= observed.reported_downloads()
            <= result.completed
        )

    def test_finite_poll_budget_undercounts_under_churn(self):
        """The acceptance-criterion effect: churn + sparse polls miss downloads."""
        config = SwarmConfig(
            leechers=20,
            seeds=1,
            piece_count=40,
            rounds=30,
            start_completion=0.25,
            announce_size=8,
        )
        result = SwarmSimulator(
            config,
            seed=3,
            scenario="poisson",
            observer=ObserverConfig(
                scrape_interval=2, poll_interval=3, poll_budget=6
            ),
        ).run()
        observed = result.observed
        assert result.completed > 0
        # The sparse poll schedule misses completions the scrape still
        # (mostly) reports; the scrape itself can only trail the truth by
        # whatever completed after the final scrape round.
        assert observed.confirmed_downloads(1.0) < observed.reported_downloads()
        assert observed.reported_downloads() <= result.completed

    def test_outage_leaves_gap_in_scrape_series(self):
        """Failed scrapes are absent samples; the schedule itself survives."""
        config = _observed_config()
        runs = {}
        for engine in ("reference", "fast"):
            runs[engine] = SwarmSimulator(
                dataclasses.replace(config, faults="outage:3+4"),
                seed=11,
                engine=engine,
                scenario="poisson",
                observer=ObserverConfig(scrape_interval=1, poll_interval=2),
            ).run()
        observed = runs["reference"].observed
        scraped = {s.round for s in observed.scrapes}
        assert scraped.isdisjoint({3, 4, 5, 6}), scraped
        assert 2 in scraped and 7 in scraped  # resumes right after recovery
        # Poll sweeps keep running against the already-met roster.
        assert any(r in (3, 5) for r in observed.poll_rounds)
        assert runs["reference"].observed == runs["fast"].observed

    def test_bound_chain_survives_outage(self):
        """confirmed(1.0) <= reported <= true even when scrapes were missed."""
        result = SwarmSimulator(
            dataclasses.replace(_observed_config(), faults="outage:3+4"),
            seed=11,
            scenario="poisson",
            observer=ObserverConfig(poll_interval=1, scrape_interval=1),
        ).run()
        observed = result.observed
        assert observed.scrapes
        assert (
            observed.confirmed_downloads(1.0)
            <= observed.reported_downloads()
            <= result.completed
        )

    def test_crashed_peer_poll_times_out(self):
        """A crashed peer's stale tracker entry yields no poll sample."""
        config = dataclasses.replace(
            _observed_config(),
            piece_count=200,
            seed_upload_kbps=300.0,
            faults="crash:3@4",
        )
        runs = {}
        for engine in ("reference", "fast"):
            result = SwarmSimulator(
                config,
                seed=13,
                engine=engine,
                observer=ObserverConfig(scrape_interval=1, poll_interval=1),
            ).run()
            crashed = {
                pid
                for pid, peer in result.peers.items()
                if peer.departed_round is not None
            }
            assert crashed, "no crash victims"
            for pid in crashed:
                timeline = result.observed.timelines.get(pid, [])
                # No sample after the crash round: the peer is unreachable
                # even though the tracker still hands out its id.
                assert all(s.round <= 4 for s in timeline)
            runs[engine] = result.observed
        assert runs["reference"] == runs["fast"]

    def test_observer_instance_reusable_across_runs(self):
        observer = SwarmObserver(ObserverConfig(poll_interval=1))
        first = SwarmSimulator(
            _observed_config(), seed=7, observer=observer
        ).run()
        second = SwarmSimulator(
            _observed_config(), seed=7, observer=observer
        ).run()
        assert first.observed == second.observed
        assert first.observed is not second.observed


@pytest.mark.slow
class TestObserverProperties:
    @given(
        scenario=scenario_schedules(),
        seed=st.integers(min_value=0, max_value=10_000),
        engine=st.sampled_from(["reference", "fast"]),
        observer=st.builds(
            ObserverConfig,
            scrape_interval=st.integers(min_value=1, max_value=4),
            poll_interval=st.integers(min_value=1, max_value=4),
            poll_budget=st.sampled_from([None, 0, 2, 5]),
            confirm_threshold=st.sampled_from([0.5, 0.9, 0.98, 1.0]),
        ),
    )
    @_settings
    def test_observer_invisible_and_bounds_hold(
        self, scenario, seed, engine, observer
    ):
        config = SwarmConfig(
            leechers=8,
            seeds=1,
            piece_count=16,
            rounds=8,
            start_completion=0.25,
            announce_size=5,
        )
        unobserved = SwarmSimulator(
            config, seed=seed, engine=engine, scenario=scenario
        ).run()
        observed_run = SwarmSimulator(
            config, seed=seed, engine=engine, scenario=scenario, observer=observer
        ).run()
        assert_results_identical(unobserved, observed_run)
        campaign = observed_run.observed
        assert (
            campaign.confirmed_downloads(1.0)
            <= campaign.reported_downloads()
            <= unobserved.completed
        )

    @given(
        faults=fault_schedules(),
        scenario=scenario_schedules(),
        resilience=st.sampled_from(
            [None, "failover", "pex", "full", "trackers:2,pex:4,keepalive:2"]
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        engine=st.sampled_from(["reference", "fast"]),
    )
    @_settings
    def test_observer_invisible_over_fault_scenarios(
        self, faults, scenario, resilience, seed, engine
    ):
        """Observing a faulty (and defended) swarm must not perturb it."""
        config = SwarmConfig(
            leechers=8,
            seeds=1,
            piece_count=16,
            rounds=8,
            start_completion=0.25,
            announce_size=5,
            faults=faults,
            resilience=resilience,
        )
        observer = ObserverConfig(
            scrape_interval=1, poll_interval=2, poll_budget=4
        )
        unobserved = SwarmSimulator(
            config, seed=seed, engine=engine, scenario=scenario
        ).run()
        observed_run = SwarmSimulator(
            config, seed=seed, engine=engine, scenario=scenario, observer=observer
        ).run()
        assert_results_identical(unobserved, observed_run)
        campaign = observed_run.observed
        assert (
            campaign.confirmed_downloads(1.0)
            <= campaign.reported_downloads()
            <= unobserved.completed
        )

    @given(
        mix=behavior_mixes(),
        scenario=scenario_schedules(),
        seed=st.integers(min_value=0, max_value=10_000),
        engine=st.sampled_from(["reference", "fast"]),
    )
    @_settings
    def test_observer_invisible_over_behavior_scenarios(
        self, mix, scenario, seed, engine
    ):
        """Observing an adversarial swarm must not perturb it either."""
        config = SwarmConfig(
            leechers=8,
            seeds=1,
            piece_count=16,
            rounds=8,
            start_completion=0.25,
            announce_size=5,
            behaviors=mix,
        )
        observer = ObserverConfig(
            scrape_interval=1, poll_interval=2, poll_budget=4
        )
        unobserved = SwarmSimulator(
            config, seed=seed, engine=engine, scenario=scenario
        ).run()
        observed_run = SwarmSimulator(
            config, seed=seed, engine=engine, scenario=scenario, observer=observer
        ).run()
        assert_results_identical(unobserved, observed_run)

    @given(
        scenario=scenario_schedules(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @_settings
    def test_observed_record_identical_across_engines(self, scenario, seed):
        config = SwarmConfig(
            leechers=8,
            seeds=1,
            piece_count=16,
            rounds=8,
            start_completion=0.25,
            announce_size=5,
        )
        observer = ObserverConfig(
            scrape_interval=1, poll_interval=2, poll_budget=4
        )
        campaigns = {
            engine: SwarmSimulator(
                config, seed=seed, engine=engine, scenario=scenario, observer=observer
            ).run().observed
            for engine in ("reference", "fast")
        }
        assert campaigns["reference"] == campaigns["fast"]


# -- the experiment driver -------------------------------------------------------


class TestTelemetryExperiment:
    def _small(self, **overrides):
        kwargs = dict(
            leechers=12,
            rounds=12,
            piece_count=40,
            seed=4,
            scenario="poisson",
            poll_budget=6,
        )
        kwargs.update(overrides)
        return telemetry_experiment(**kwargs)

    def test_report_sections_and_shapes(self):
        report = self._small()
        assert set(report) == {
            "ground_truth",
            "observed",
            "threshold_sensitivity",
            "scrape_series",
        }
        sensitivity = report["threshold_sensitivity"]
        assert sensitivity["thresholds"].tolist() == sorted(DEFAULT_THRESHOLDS)
        # Raising the bar can only disqualify peers.
        confirmed = sensitivity["confirmed_downloads"]
        assert all(confirmed[i] >= confirmed[i + 1] for i in range(len(confirmed) - 1))
        scrapes = report["scrape_series"]
        assert (
            scrapes["rounds"].size
            == scrapes["seeders"].size
            == scrapes["snatches"].size
            > 0
        )
        assert float(report["observed"]["reported_downloads"][0]) <= float(
            report["ground_truth"]["completions"][0]
        )

    def test_report_identical_across_engines(self):
        reference = self._small(engine="reference")
        fast = self._small(engine="fast")
        for section in reference:
            for key in reference[section]:
                assert np.array_equal(reference[section][key], fast[section][key]), (
                    section,
                    key,
                )

    def test_report_replays_from_cache(self, tmp_path):
        from repro.sim.parallel import ResultCache

        cache = ResultCache(tmp_path)
        cold = self._small(cache=cache)
        warm = self._small(cache=cache)
        for section in cold:
            for key in cold[section]:
                assert np.array_equal(cold[section][key], warm[section][key])

    def test_ground_truth_cdf_matches_direct_computation(self):
        config = SwarmConfig(
            leechers=12,
            seeds=2,
            piece_count=40,
            rounds=12,
            start_completion=0.25,
            seed_upload_kbps=2000.0,
        )
        result = SwarmSimulator(config, seed=4, scenario="poisson").run()
        cdf = download_time_cdf(result)
        completions = [
            peer for peer in result.leechers() if peer.completed_round is not None
        ]
        assert cdf["durations"].size == len(completions)
        if cdf["cdf"].size:
            assert cdf["cdf"][-1] == 1.0

    def test_swarm_experiment_observe_flag(self):
        from repro.experiments import swarm_stratification_experiment

        plain = swarm_stratification_experiment(
            leechers=12, rounds=10, piece_count=30, seed=4
        )
        observed = swarm_stratification_experiment(
            leechers=12, rounds=10, piece_count=30, seed=4, observe=True
        )
        assert "reported_downloads" not in plain
        assert observed["reported_downloads"] >= observed["confirmed_downloads"] >= 0
        assert -1.0 <= observed["observed_stratification_index"] <= 1.0
        # Observation does not perturb the simulated metrics.
        for key in plain:
            assert observed[key] == plain[key]
