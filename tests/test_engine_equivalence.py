"""Fast engine vs reference engine: the reference is the correctness oracle.

The array engine in :mod:`repro.core.fast` promises more than approximate
agreement: under a shared seeded :class:`~repro.sim.random_source.RandomSource`
it must reproduce the reference engine's stable configurations, disorder
trajectories and final matchings *bit for bit*.  These tests enforce that
contract on three graph families (complete, Erdős–Rényi, small handcrafted
instances), for all three initiative strategies and for the churn pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acceptance import AcceptanceGraph
from repro.core.churn import ChurnConfig, simulate_churn
from repro.core.dynamics import (
    ConvergenceSimulator,
    simulate_convergence,
    simulate_peer_removal,
)
from repro.core.exceptions import ModelError
from repro.core.fast.arrays import PeerArrays
from repro.core.fast.engine import FastMatching, fast_stable_table
from repro.core.matching import Matching, blocking_pairs, is_stable
from repro.core.peer import Peer, PeerPopulation
from repro.core.ranking import GlobalRanking
from repro.core.stable import stable_configuration
from repro.sim.random_source import RandomSource

_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _er_acceptance(n: int, degree: float, slots, seed: int) -> AcceptanceGraph:
    population = PeerPopulation.ranked(n, slots=slots)
    source = RandomSource(seed)
    return AcceptanceGraph.erdos_renyi(
        population, expected_degree=degree, rng=source.stream("graph")
    )


def _fast_stable(acceptance: AcceptanceGraph) -> Matching:
    """Algorithm 1 on the array backend, as a reference ``Matching``."""
    return fast_stable_table(PeerArrays.build(acceptance)).to_matching(acceptance)


def _assert_same_result(reference, fast):
    """Two ConvergenceResults must agree sample-for-sample."""
    assert reference.trajectory.times == fast.trajectory.times
    assert reference.trajectory.values == fast.trajectory.values
    assert reference.initiatives == fast.initiatives
    assert reference.active_initiatives == fast.active_initiatives
    assert reference.converged == fast.converged
    assert reference.time_to_converge == fast.time_to_converge
    assert reference.final_matching == fast.final_matching


# -- stable configurations on three graph families -------------------------------


class TestStableEquivalence:
    def test_complete_graph_family(self):
        for n, slots in [(2, 1), (9, 2), (25, 1), (20, 3)]:
            population = PeerPopulation.ranked(n, slots=slots)
            acceptance = AcceptanceGraph.complete(population)
            assert _fast_stable(acceptance) == stable_configuration(
                acceptance
            )

    def test_erdos_renyi_family(self):
        for n, degree, slots, seed in [
            (30, 4.0, 1, 0),
            (60, 8.0, 2, 1),
            (50, 20.0, 3, 2),
            (40, 0.5, 1, 3),
        ]:
            acceptance = _er_acceptance(n, degree, slots, seed)
            reference = stable_configuration(acceptance)
            fast = _fast_stable(acceptance)
            assert fast == reference
            assert is_stable(
                fast, GlobalRanking.from_population(acceptance.population)
            )

    def test_small_exact_instances(self):
        # A handcrafted 5-peer instance whose stable matching is known: with
        # ranks 1..5 (1 best), slots 1 and the acceptance path/star below,
        # Algorithm 1 pairs (1, 2) and (3, 4); peer 5 stays unmatched.
        population = PeerPopulation.ranked(5, slots=1)
        acceptance = AcceptanceGraph(population)
        for p, q in [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (3, 5)]:
            acceptance.declare_acceptable(p, q)
        expected_pairs = [(1, 2), (3, 4)]
        assert sorted(stable_configuration(acceptance).pairs()) == expected_pairs
        assert sorted(_fast_stable(acceptance).pairs()) == expected_pairs

        # Degenerate instances: no edges, and a single pair.
        lonely = AcceptanceGraph(PeerPopulation.ranked(3, slots=1))
        assert _fast_stable(lonely) == stable_configuration(lonely)
        pair_population = PeerPopulation.ranked(2, slots=1)
        pair = AcceptanceGraph(pair_population)
        pair.declare_acceptable(1, 2)
        assert sorted(_fast_stable(pair).pairs()) == [(1, 2)]

    def test_zero_capacity_peers(self):
        population = PeerPopulation(
            [Peer(1, 5.0, 0), Peer(2, 4.0, 2), Peer(3, 3.0, 1), Peer(4, 2.0, 0)]
        )
        acceptance = AcceptanceGraph.complete(population)
        reference = stable_configuration(acceptance)
        assert _fast_stable(acceptance) == reference
        assert sorted(reference.pairs()) == [(2, 3)]

    @_settings
    @given(
        n=st.integers(min_value=2, max_value=25),
        p=st.floats(min_value=0.0, max_value=1.0),
        b0=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_instances_property(self, n, p, b0, seed):
        population = PeerPopulation.ranked(n, slots=b0)
        rng = np.random.default_rng(seed)
        acceptance = AcceptanceGraph.erdos_renyi(population, probability=p, rng=rng)
        assert _fast_stable(acceptance) == stable_configuration(acceptance)


# -- trajectory equivalence -------------------------------------------------------


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("strategy", ["best-mate", "decremental", "random"])
    @pytest.mark.parametrize("slots", [1, 3])
    def test_convergence_trajectories_identical(self, strategy, slots):
        reference = simulate_convergence(
            60, 8.0, slots=slots, strategy=strategy, seed=17, max_base_units=15
        )
        fast = simulate_convergence(
            60,
            8.0,
            slots=slots,
            strategy=strategy,
            seed=17,
            max_base_units=15,
            engine="fast",
        )
        _assert_same_result(reference, fast)

    def test_simulator_with_shared_source_semantics(self):
        # Two independent sources with the same master seed must drive both
        # engines through identical runs (streams are derived by name).
        acceptance_a = _er_acceptance(40, 6.0, 2, 5)
        acceptance_b = _er_acceptance(40, 6.0, 2, 5)
        reference = ConvergenceSimulator(
            acceptance_a, source=RandomSource(99)
        ).run(max_base_units=12)
        fast = ConvergenceSimulator(
            acceptance_b, source=RandomSource(99), engine="fast"
        ).run(max_base_units=12)
        _assert_same_result(reference, fast)

    def test_run_from_inherited_configuration(self):
        acceptance = _er_acceptance(30, 5.0, 1, 8)
        stable = stable_configuration(acceptance)
        reference = ConvergenceSimulator(acceptance, source=RandomSource(4)).run(
            initial=stable, max_base_units=3, stop_when_stable=False
        )
        fast = ConvergenceSimulator(
            acceptance, source=RandomSource(4), engine="fast"
        ).run(initial=stable, max_base_units=3, stop_when_stable=False)
        _assert_same_result(reference, fast)
        assert reference.trajectory.values[0] == 0.0

    def test_peer_removal_trajectories_identical(self):
        for removed in (1, 20, 45):
            reference = simulate_peer_removal(60, 8.0, removed, seed=3)
            fast = simulate_peer_removal(60, 8.0, removed, seed=3, engine="fast")
            _assert_same_result(reference, fast)

    @_settings
    @given(
        n=st.integers(min_value=3, max_value=30),
        degree=st.floats(min_value=0.5, max_value=8.0),
        b0=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        strategy=st.sampled_from(["best-mate", "decremental", "random"]),
    )
    def test_trajectory_property(self, n, degree, b0, seed, strategy):
        degree = min(degree, n - 1.0)
        reference = simulate_convergence(
            n, degree, slots=b0, strategy=strategy, seed=seed, max_base_units=8
        )
        fast = simulate_convergence(
            n,
            degree,
            slots=b0,
            strategy=strategy,
            seed=seed,
            max_base_units=8,
            engine="fast",
        )
        _assert_same_result(reference, fast)


# -- churn equivalence ------------------------------------------------------------


class TestChurnEquivalence:
    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("strategy", ["best-mate", "decremental", "random"])
    def test_churn_trajectories_identical(self, strategy, slots):
        kwargs = dict(
            n=70, expected_degree=6.0, churn_rate=0.03, max_base_units=6,
            strategy=strategy, slots=slots,
        )
        reference = simulate_churn(ChurnConfig(**kwargs), seed=13)
        fast = simulate_churn(ChurnConfig(engine="fast", **kwargs), seed=13)
        assert reference.trajectory.times == fast.trajectory.times
        assert reference.trajectory.values == fast.trajectory.values
        assert reference.churn_events == fast.churn_events
        assert reference.initiatives == fast.initiatives
        assert reference.mean_disorder == fast.mean_disorder
        assert reference.final_population_size == fast.final_population_size
        assert reference.churn_events > 0  # the scenario actually churned

    def test_invalid_engine_rejected(self):
        with pytest.raises(ModelError):
            ChurnConfig(engine="warp")


# -- engine guardrails ------------------------------------------------------------


class TestEngineInterface:
    def test_unknown_engine_rejected(self):
        acceptance = _er_acceptance(10, 3.0, 1, 0)
        with pytest.raises(ModelError):
            ConvergenceSimulator(acceptance, engine="warp")

    def test_custom_strategy_requires_reference_engine(self):
        from repro.core.initiatives import BestMateInitiative, InitiativeStrategy

        class Custom(InitiativeStrategy):
            name = "custom"

            def propose(self, matching, ranking, peer_id, rng):
                return None

        # A subclass of a stock strategy must be rejected too: matching it
        # by name would silently swap in the stock behavior.
        class CustomBestMate(BestMateInitiative):
            def propose(self, matching, ranking, peer_id, rng):
                return None

        acceptance = _er_acceptance(10, 3.0, 1, 0)
        for strategy in (Custom(), CustomBestMate()):
            with pytest.raises(ModelError):
                ConvergenceSimulator(acceptance, strategy=strategy, engine="fast")
            # The reference engine accepts it.
            ConvergenceSimulator(acceptance, strategy=strategy).run(max_base_units=1)
        # Stock reference instances resolve to their fast twin.
        fast = ConvergenceSimulator(
            acceptance, strategy=BestMateInitiative(), engine="fast"
        )
        assert fast.strategy.name == "best-mate"

    def test_fast_simulator_stable_property_matches(self):
        acceptance = _er_acceptance(40, 6.0, 2, 21)
        reference = ConvergenceSimulator(acceptance)
        fast = ConvergenceSimulator(acceptance, engine="fast")
        assert fast.stable == reference.stable

    def test_fast_matching_roundtrip(self):
        acceptance = _er_acceptance(25, 5.0, 2, 9)
        stable = stable_configuration(acceptance)
        arrays = PeerArrays.build(acceptance)
        fast = FastMatching(arrays)
        fast.load_matching(stable)
        assert fast.to_matching(acceptance) == stable

    def test_fast_matching_blocking_pairs_agree(self):
        acceptance = _er_acceptance(25, 6.0, 2, 14)
        ranking = GlobalRanking.from_population(acceptance.population)
        # A partial (unstable) configuration: first few greedy pairs.
        matching = Matching(acceptance)
        for p, q in list(stable_configuration(acceptance).pairs())[:5]:
            matching.match(p, q)
        arrays = PeerArrays.build(acceptance, ranking)
        fast = FastMatching(arrays)
        fast.load_matching(matching)
        reference_pairs = set(blocking_pairs(matching, ranking))
        for i, peer_id in enumerate(arrays.ids):
            for j in arrays.neighborhood(i):
                p, q = int(peer_id), int(arrays.ids[j])
                expected = (min(p, q), max(p, q)) in reference_pairs
                assert fast.is_blocking(i, int(j)) == expected
