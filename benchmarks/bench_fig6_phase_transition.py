"""Figure 6: influence of sigma on cluster size and MMO for N(6, sigma) matching.

Paper setting: complete acceptance graph, slot budgets drawn from a rounded
normal with mean 6.  As soon as sigma produces heterogeneous samples
(sigma ~ 0.15) the mean cluster size explodes while the Mean Max Offset
drops below the constant-matching value (33/7 ~ 4.71).
"""

from __future__ import annotations

from repro.experiments import figure6_phase_transition
from repro.stratification.mmo import mmo_constant_matching

SIGMAS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0]


def _run():
    return figure6_phase_transition(SIGMAS, b_mean=6.0, n=20000, repetitions=2, seed=7)


def test_figure6_phase_transition():
    table = _run()
    print("\n" + table.to_text())
    rows = {row["sigma"]: row for row in table.to_records()}
    # sigma = 0: constant 6-matching -> clusters of 7, MMO = 33/7.
    assert abs(rows[0.0]["mean_cluster_size"] - 7.0) < 0.5
    assert abs(rows[0.0]["mean_max_offset"] - mmo_constant_matching(6)) < 0.05
    # Past the transition the cluster size has exploded ...
    assert rows[0.3]["mean_cluster_size"] > 20 * rows[0.0]["mean_cluster_size"]
    # ... while the MMO has dropped.
    assert rows[0.3]["mean_max_offset"] < rows[0.0]["mean_max_offset"]
