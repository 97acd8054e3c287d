"""Tests for initiative strategies, convergence dynamics and churn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acceptance import AcceptanceGraph
from repro.core.churn import ChurnConfig, simulate_churn
from repro.core.dynamics import ConvergenceSimulator, simulate_convergence, simulate_peer_removal
from repro.core.exceptions import ModelError
from repro.core.initiatives import (
    BestMateInitiative,
    DecrementalInitiative,
    RandomInitiative,
    apply_initiative,
    make_strategy,
)
from repro.core.matching import Matching
from repro.core.peer import PeerPopulation
from repro.core.ranking import GlobalRanking
from repro.core.stable import stable_configuration
from repro.sim.random_source import RandomSource


class TestInitiatives:
    def test_make_strategy(self):
        assert isinstance(make_strategy("best-mate"), BestMateInitiative)
        assert isinstance(make_strategy("decremental"), DecrementalInitiative)
        assert isinstance(make_strategy("random"), RandomInitiative)
        with pytest.raises(ValueError):
            make_strategy("greedy")

    def test_apply_initiative_drops_worst_mate(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        matching.match(5, 8)
        matching.match(5, 9)
        # Peer 4 proposes to 5; 5 is full and drops its worst mate (9).
        assert apply_initiative(matching, ranking, 4, 5)
        assert matching.is_matched(4, 5)
        assert not matching.is_matched(5, 9)
        assert matching.is_matched(5, 8)

    def test_apply_initiative_ignores_non_blocking(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        matching.match(5, 1)
        matching.match(5, 2)
        # Peer 9 is worse than both current mates of 5: nothing happens.
        assert not apply_initiative(matching, ranking, 9, 5)
        assert matching.degree(9) == 0

    @pytest.mark.parametrize("strategy_name", ["best-mate", "decremental", "random"])
    def test_every_strategy_reaches_the_stable_state(self, strategy_name):
        source = RandomSource(42)
        population = PeerPopulation.ranked(30, slots=1)
        acceptance = AcceptanceGraph.erdos_renyi(
            population, expected_degree=6, rng=source.stream("graph")
        )
        ranking = GlobalRanking.from_population(population)
        stable = stable_configuration(acceptance, ranking)

        matching = Matching(acceptance)
        strategy = make_strategy(strategy_name)
        rng = source.stream("drive")
        peer_ids = acceptance.peer_ids()
        for _ in range(20000):
            peer = peer_ids[int(rng.integers(len(peer_ids)))]
            strategy.take_initiative(matching, ranking, peer, rng)
            if matching == stable:
                break
        assert matching == stable

    def test_best_mate_proposes_best_blocking_peer(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        strategy = BestMateInitiative()
        rng = np.random.default_rng(0)
        proposal = strategy.propose(matching, ranking, 9, rng)
        assert proposal == 1

    def test_decremental_scans_circularly(self, small_complete_acceptance, ranking):
        matching = Matching(small_complete_acceptance)
        strategy = DecrementalInitiative()
        rng = np.random.default_rng(0)
        first = strategy.propose(matching, ranking, 9, rng)
        second = strategy.propose(matching, ranking, 9, rng)
        assert first == 1 and second == 2
        strategy.reset()
        assert strategy.propose(matching, ranking, 9, rng) == 1

    def test_random_initiative_stays_in_acceptance_list(self, ranking):
        population = PeerPopulation.ranked(9, slots=2)
        acceptance = AcceptanceGraph(population)
        acceptance.declare_acceptable(9, 3)
        matching = Matching(acceptance)
        strategy = RandomInitiative()
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert strategy.propose(matching, ranking, 9, rng) == 3
        assert strategy.propose(matching, ranking, 1, rng) is None


class TestConvergence:
    def test_convergence_reaches_stable_state(self):
        result = simulate_convergence(80, 10, seed=1, max_base_units=40)
        assert result.converged
        assert result.time_to_converge is not None
        assert result.trajectory.last() == 0.0

    def test_disorder_starts_high_and_decreases(self):
        result = simulate_convergence(80, 10, seed=2, max_base_units=40)
        _, values = result.trajectory.as_arrays()
        assert values[0] > 0.5  # empty configuration is far from stable
        assert values[-1] == 0.0

    def test_convergence_within_d_base_units(self):
        # The paper observes convergence in fewer than d base units.
        d = 12
        result = simulate_convergence(120, d, seed=3, max_base_units=3 * d)
        assert result.converged
        assert result.time_to_converge <= d

    def test_theorem1_bound_on_active_initiatives(self):
        # Theorem 1: the stable state is reachable in B/2 initiatives; the
        # simulated number of *active* initiatives can exceed that (peers
        # may pair and re-pair), but must stay within a small factor.
        n = 60
        result = simulate_convergence(n, 8, seed=4, max_base_units=60)
        assert result.converged
        assert result.active_initiatives <= 4 * (n // 2)

    def test_peer_removal_recovery_is_fast_and_small(self):
        result = simulate_peer_removal(200, 10, removed_peer=1, seed=5, max_base_units=10)
        _, values = result.trajectory.as_arrays()
        # Disorder right after a removal is small (paper Figure 2).
        assert values.max() < 0.1
        assert result.converged

    def test_removing_good_peer_more_disruptive_than_bad(self):
        good = simulate_peer_removal(300, 10, removed_peer=1, seed=6, max_base_units=8)
        bad = simulate_peer_removal(300, 10, removed_peer=290, seed=6, max_base_units=8)
        _, good_values = good.trajectory.as_arrays()
        _, bad_values = bad.trajectory.as_arrays()
        assert good_values.max() >= bad_values.max()

    def test_simulator_with_explicit_initial_configuration(self, medium_er_acceptance):
        simulator = ConvergenceSimulator(medium_er_acceptance, source=RandomSource(3))
        stable = simulator.stable
        result = simulator.run(initial=stable, max_base_units=2)
        assert result.converged
        assert result.time_to_converge == 0.0

    def test_empty_population_rejected(self):
        population = PeerPopulation.ranked(0)
        with pytest.raises(Exception):
            AcceptanceGraph.complete(population)
            # Building the simulator on an empty graph must fail loudly.
            ConvergenceSimulator(AcceptanceGraph(population)).run()


class TestChurn:
    def test_config_validation(self):
        with pytest.raises(Exception):
            ChurnConfig(n=1)
        with pytest.raises(Exception):
            ChurnConfig(churn_rate=-0.1)

    def test_no_churn_converges(self):
        config = ChurnConfig(n=120, expected_degree=8, churn_rate=0.0, max_base_units=15)
        result = simulate_churn(config, seed=1)
        assert result.churn_events == 0
        assert result.trajectory.tail_mean(0.2) == pytest.approx(0.0, abs=1e-9)

    def test_churn_keeps_disorder_bounded(self):
        config = ChurnConfig(n=120, expected_degree=8, churn_rate=0.01, max_base_units=15)
        result = simulate_churn(config, seed=2)
        assert result.churn_events > 0
        # Disorder stays under control (well below the empty-config level).
        assert result.trajectory.tail_mean(0.25) < 0.2

    def test_more_churn_more_disorder(self):
        low = simulate_churn(
            ChurnConfig(n=150, expected_degree=8, churn_rate=0.002, max_base_units=15), seed=3
        )
        high = simulate_churn(
            ChurnConfig(n=150, expected_degree=8, churn_rate=0.05, max_base_units=15), seed=3
        )
        assert high.trajectory.tail_mean(0.25) > low.trajectory.tail_mean(0.25)

    def test_population_size_stays_reasonable(self):
        config = ChurnConfig(n=100, expected_degree=6, churn_rate=0.05, max_base_units=10)
        result = simulate_churn(config, seed=4)
        assert 50 <= result.final_population_size <= 150


# -- runs that cannot be described ---------------------------------------------

NAN, INF = float("nan"), float("inf")

# Bad horizons, rejected alike by ChurnConfig and by ConvergenceSimulator.run.
_BAD_HORIZONS = [
    ("max_base_units", -1),
    ("max_base_units", NAN),
    ("max_base_units", INF),
    ("samples_per_base_unit", 0),
    ("samples_per_base_unit", -3),
    ("samples_per_base_unit", 2.5),
]
_BAD_CHURN_FIELDS = [
    ("churn_rate", NAN),
    ("churn_rate", 1.5),
    ("churn_rate", INF),
    *_BAD_HORIZONS,
    ("n", 50.0),
    ("slots", 1.5),
    ("strategy", "bogus"),
    ("expected_degree", NAN),
    ("expected_degree", INF),
]


def _churn_config(engine, **fields):
    ChurnConfig(engine=engine, **fields)


def _simulator_run(engine, **arguments):
    acceptance = AcceptanceGraph.erdos_renyi(
        PeerPopulation.ranked(20), expected_degree=4.0, rng=np.random.default_rng(0)
    )
    ConvergenceSimulator(acceptance, engine=engine).run(**arguments)


def _simulate_convergence(engine, **arguments):
    simulate_convergence(20, 4.0, engine=engine, **arguments)


def _convergence_of_size(engine, n):
    simulate_convergence(n, 4.0, engine=engine)


def _peer_removal_of_size(engine, n):
    simulate_peer_removal(n, 4.0, 3, engine=engine)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "call, error, field, value",
    [
        *(
            pytest.param(
                _churn_config, ModelError, field, value, id=f"ChurnConfig-{field}={value}"
            )
            for field, value in _BAD_CHURN_FIELDS
        ),
        *(
            pytest.param(
                call, ValueError, field, value, id=f"{call.__name__[1:]}-{field}={value}"
            )
            for call in (_simulator_run, _simulate_convergence)
            for field, value in _BAD_HORIZONS
        ),
        *(
            pytest.param(call, ModelError, "n", 30.0, id=f"{call.__name__[1:]}-n=30.0")
            for call in (_convergence_of_size, _peer_removal_of_size)
        ),
    ],
)
def test_a_run_that_cannot_be_described_fails_fast_naming_the_field(
    call, error, field, value, engine
):
    with pytest.raises(error, match=f"^{field} "):
        call(engine, **{field: value})
