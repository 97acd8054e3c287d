"""Stable b-matching with global ranking: the paper's primary contribution.

The subpackage implements the model of Section 2, the existence /
uniqueness / convergence results of Section 3 and the machinery used by
the stratification studies of Sections 4-5:

* :mod:`repro.core.peer` -- peers, slot budgets and populations.
* :mod:`repro.core.ranking` -- global rankings and utility functions.
* :mod:`repro.core.acceptance` -- acceptance graphs binding peers to an
  underlying undirected graph.
* :mod:`repro.core.matching` -- b-matching configurations, blocking pairs
  and stability checks.
* :mod:`repro.core.stable` -- Algorithm 1 (centralised computation of the
  unique stable configuration).
* :mod:`repro.core.initiatives` -- best-mate / decremental / random
  initiative strategies (the decentralised dynamics).
* :mod:`repro.core.dynamics` -- convergence simulations and disorder
  trajectories (Figures 1 and 2).
* :mod:`repro.core.churn` -- churn processes and disorder-under-churn
  simulations (Figure 3).
* :mod:`repro.core.metrics` -- the disorder distance and the Mean Max
  Offset (MMO).
* :mod:`repro.core.fast` -- the vectorized array engine behind the
  ``engine="fast"`` switch of the simulators (CSR acceptance graph,
  fixed-width mate table, vectorized blocking-pair scans).
"""

from repro.core.acceptance import AcceptanceGraph
from repro.core.churn import ChurnConfig, ChurnSimulation, simulate_churn
from repro.core.dynamics import (
    ConvergenceResult,
    ConvergenceSimulator,
    simulate_convergence,
    simulate_peer_removal,
)
from repro.core.exceptions import MatchingError, ModelError
from repro.core.initiatives import (
    BestMateInitiative,
    DecrementalInitiative,
    InitiativeStrategy,
    RandomInitiative,
    make_strategy,
)
from repro.core.matching import Matching, blocking_pairs, find_blocking_mate, is_stable
from repro.core.metrics import collaboration_graph, disorder, matching_distance, mean_max_offset
from repro.core.peer import Peer, PeerPopulation
from repro.core.ranking import GlobalRanking, RankingUtility, TitForTatUtility, UtilityFunction
from repro.core.stable import stable_configuration
from repro.core.fast import FastConvergenceSimulator, FastMatching, PeerArrays

__all__ = [
    "AcceptanceGraph",
    "ChurnConfig",
    "ChurnSimulation",
    "simulate_churn",
    "ConvergenceResult",
    "ConvergenceSimulator",
    "simulate_convergence",
    "simulate_peer_removal",
    "MatchingError",
    "ModelError",
    "BestMateInitiative",
    "DecrementalInitiative",
    "InitiativeStrategy",
    "RandomInitiative",
    "make_strategy",
    "Matching",
    "blocking_pairs",
    "find_blocking_mate",
    "is_stable",
    "collaboration_graph",
    "disorder",
    "matching_distance",
    "mean_max_offset",
    "Peer",
    "PeerPopulation",
    "GlobalRanking",
    "RankingUtility",
    "TitForTatUtility",
    "UtilityFunction",
    "stable_configuration",
    "FastConvergenceSimulator",
    "FastMatching",
    "PeerArrays",
]
