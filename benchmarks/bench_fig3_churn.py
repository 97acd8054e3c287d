"""Figure 3: disorder with respect to the instantaneous stable state under churn.

Paper setting: 1000 peers, 1-matching, 10 neighbors per peer, churn rates
{0, 0.5, 3, 10, 30} per 1000 initiatives.  The system no longer reaches the
instantaneous stable configuration under churn, but the residual disorder is
kept under control and grows with the churn rate.
"""

from __future__ import annotations

from conftest import print_series_summary

from repro.experiments import figure3_churn

CHURN_RATES = (0.0, 0.0005, 0.003, 0.01, 0.03)


def _run():
    return figure3_churn(
        CHURN_RATES, n=1000, expected_degree=10.0, seed=5, max_base_units=20.0
    )


def test_figure3_churn():
    series = _run()
    print_series_summary("Figure 3: residual disorder under churn", series)
    tails = [float(data["tail_disorder"][0]) for data in series.values()]
    # No churn -> the system settles on the stable configuration.
    assert tails[0] < 0.01
    # Residual disorder stays under control even at the highest churn rate.
    assert tails[-1] < 0.35
    # Disorder grows (weakly) with the churn rate across the sweep.
    assert tails[-1] > tails[0]
    assert tails[-1] >= tails[1]
