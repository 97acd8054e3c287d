"""Section 4.1 / Section 6: the slot-count arguments.

* Connectivity lower bound: a 1-regular collaboration graph can never be
  connected and the cycle is the only connected 2-regular graph, so obedient
  clients need at least 3 Tit-for-Tat slots (+1 optimistic = 4 by default).
* Rational peers drift towards a single TFT slot (the degenerate Nash
  equilibrium), which is why the default must not be left to rational
  optimisation.
"""

from __future__ import annotations

from repro.bittorrent.strategy import (
    is_connectivity_feasible,
    minimum_slots_for_connectivity,
    rational_best_response,
    recommended_default_slots,
    slot_deviation_payoffs,
)
from repro.stratification.clustering import analyze_complete_matching


def _run():
    payoffs = slot_deviation_payoffs(
        400.0,
        population_slots=3,
        candidate_slots=(1, 2, 3, 4, 5),
        n=400,
        expected_degree=20.0,
        seed=19,
    )
    best = rational_best_response(
        400.0, population_slots=3, candidate_slots=(1, 2, 3, 4, 5), n=400, seed=19
    )
    return payoffs, best


def test_slot_connectivity_and_nash():
    payoffs, best = _run()
    print("\nSlot-count deviation payoffs (population plays 3 TFT slots):")
    for outcome in payoffs:
        print(
            f"  slots={outcome.deviant_slots}: expected ratio "
            f"{outcome.deviant_efficiency:.3f} (baseline {outcome.baseline_efficiency:.3f})"
        )
    print(f"  rational best response: {best} slot(s)")

    # Connectivity: b0 < 3 cannot give a robust connected TFT graph.
    assert minimum_slots_for_connectivity() == 3
    assert not is_connectivity_feasible(1, 1000)
    assert recommended_default_slots()["total"] == 4
    # Constant 1- and 2-matching yield tiny clusters; 3-matching much larger.
    assert analyze_complete_matching([1] * 1000).largest_cluster == 2
    assert analyze_complete_matching([2] * 1000).largest_cluster == 3

    # Nash drift: the rational best response is to keep a single TFT slot.
    assert best == 1
    by_slots = {o.deviant_slots: o.deviant_efficiency for o in payoffs}
    assert by_slots[1] >= by_slots[3]
