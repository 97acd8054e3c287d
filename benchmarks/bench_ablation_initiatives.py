"""Ablation: initiative strategies (best-mate vs decremental vs random).

The paper's Theorem 1 guarantees convergence for any active-initiative
sequence; the strategies differ only in how many initiatives they need.
This ablation quantifies that gap, which is the design choice DESIGN.md
calls out (how much knowledge about the neighborhood a peer must maintain).
"""

from __future__ import annotations

from repro.core.dynamics import simulate_convergence

N = 400
DEGREE = 10.0
STRATEGIES = ("best-mate", "decremental", "random")


def _run():
    results = {}
    for strategy in STRATEGIES:
        outcome = simulate_convergence(
            N, DEGREE, strategy=strategy, seed=23, max_base_units=400,
            samples_per_base_unit=1,
        )
        results[strategy] = outcome
    return results


def test_ablation_initiative_strategies():
    results = _run()
    print("\nInitiative-strategy ablation (n=400, d=10, 1-matching):")
    for strategy, outcome in results.items():
        print(
            f"  {strategy:12s}: converged={outcome.converged} "
            f"time={outcome.time_to_converge} base units, "
            f"active={outcome.active_initiatives}"
        )
    # Every strategy converges (Theorem 1).
    assert all(outcome.converged for outcome in results.values())
    # Informed strategies converge at least as fast as blind random probing.
    assert (
        results["best-mate"].time_to_converge
        <= results["random"].time_to_converge
    )
