"""Figure 1: convergence towards the stable state from the empty configuration.

Paper setting: 1-matching on G(n, d) for (n, d) in {(100, 50), (1000, 10),
(1000, 50)}; the disorder drops quickly and the stable configuration is
reached in fewer than d base units (initiatives per peer).
"""

from __future__ import annotations

from conftest import print_series_summary

from repro.experiments import figure1_convergence

# (n, d) pairs from the paper; the benchmark runs them at full scale.
PAPER_PARAMETERS = ((100, 50), (1000, 10), (1000, 50))


def _run():
    return figure1_convergence(PAPER_PARAMETERS, seed=1, max_base_units=60)


def test_figure1_convergence():
    series = _run()
    print_series_summary("Figure 1: time to reach the stable state", series)
    for (n, d), (label, data) in zip(PAPER_PARAMETERS, series.items()):
        time_to_converge = float(data["time_to_converge"][0])
        disorder = data["disorder"]
        # Disorder starts near 1 (empty configuration) and reaches 0.
        assert disorder[0] > 0.5
        assert disorder[-1] == 0.0
        # Paper claim: the stable configuration is reached in < d base units.
        assert time_to_converge <= d
