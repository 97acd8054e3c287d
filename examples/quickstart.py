"""Quickstart: build a population, compute the stable matching, watch it emerge.

Run with ``python examples/quickstart.py``.

The example walks through the paper's model on a small system:
1. build 12 ranked peers with 2 collaboration slots each,
2. compute the unique stable configuration with Algorithm 1,
3. verify stability and inspect the clusters (stratification),
4. let the decentralised initiative process rediscover the same
   configuration from scratch.
"""

from __future__ import annotations

from repro.core import (
    AcceptanceGraph,
    ConvergenceSimulator,
    GlobalRanking,
    PeerPopulation,
    is_stable,
    mean_max_offset,
    stable_configuration,
)
from repro.sim.random_source import RandomSource
from repro.stratification import analyze_complete_matching


def main() -> None:
    # 1. Twelve peers; peer 1 has the best mark, peer 12 the worst.
    population = PeerPopulation.ranked(12, slots=2)
    acceptance = AcceptanceGraph.complete(population)
    ranking = GlobalRanking.from_population(population)

    # 2. Algorithm 1: the unique stable b-matching.
    stable = stable_configuration(acceptance, ranking)
    print("Stable collaborations (peer -> mates):")
    for peer_id in stable.peer_ids():
        print(f"  {peer_id:2d} -> {sorted(stable.mates(peer_id))}")

    # 3. Stability check and stratification structure.
    print(f"\nIs the configuration stable? {is_stable(stable, ranking)}")
    # Peers are in rank order, so the complete-graph shortcut applies.
    clusters = analyze_complete_matching(list(population.slots().values())).cluster_sizes
    print(f"Collaboration clusters: {clusters} (constant b-matching -> (b+1)-cliques)")
    print(f"Mean Max Offset: {mean_max_offset(stable, ranking):.3f}")

    # 4. The decentralised dynamics converge to the very same configuration.
    simulator = ConvergenceSimulator(acceptance, strategy="random", source=RandomSource(1))
    result = simulator.run(max_base_units=200)
    print(
        f"\nDecentralised random initiatives reached the stable state after "
        f"{result.time_to_converge:.1f} initiatives per peer "
        f"({result.active_initiatives} active initiatives)."
    )
    assert result.final_matching == stable


if __name__ == "__main__":
    main()
