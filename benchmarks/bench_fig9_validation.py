"""Figure 9: validating Algorithm 3 (independent b0-matching) against Monte-Carlo.

Paper setting: n = 5000, p = 1% (about 50 neighbors per peer), 2-matching,
peer 3000, one million simulated Erdős–Rényi graphs (weeks of computation).
The benchmark runs the same estimator at a reduced size with the same
average-degree regime; pass the paper parameters to
``repro.experiments.figure9_validation`` for the full-scale comparison.
"""

from __future__ import annotations

from repro.experiments import figure9_validation

N = 1500
P = 0.02          # ~30 acceptable peers on average
B0 = 2
SAMPLES = 150


def _run():
    return figure9_validation(n=N, p=P, b0=B0, samples=SAMPLES, seed=13)


def test_figure9_validation():
    table = _run()
    print("\n" + table.to_text())
    rows = table.to_records()
    assert {row["choice"] for row in rows} == {1, 2}
    for row in rows:
        # Binned total variation between model and simulation stays small.
        assert row["total_variation"] < 0.2
        # Conditional mean mate ranks agree within a few percent of n.
        assert abs(row["mean_rank_model"] - row["mean_rank_simulation"]) < 0.05 * N
    # The first choice lands on better ranks than the second choice.
    first = next(r for r in rows if r["choice"] == 1)
    second = next(r for r in rows if r["choice"] == 2)
    assert first["mean_rank_model"] < second["mean_rank_model"]
