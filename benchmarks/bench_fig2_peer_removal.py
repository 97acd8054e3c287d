"""Figure 2: re-convergence after removing one peer from the stable state.

Paper setting: 1000 peers, 1-matching, 10 neighbors per peer; peers 1, 100,
300 and 600 are removed in turn.  Disorder stays small and convergence takes
less than d base units; removing a good peer causes more disorder than
removing a bad one (domino effect).
"""

from __future__ import annotations

from conftest import print_series_summary

from repro.experiments import figure2_peer_removal

REMOVED_PEERS = (1, 100, 300, 600)


def _run():
    return figure2_peer_removal(
        REMOVED_PEERS, n=1000, expected_degree=10.0, seed=3, max_base_units=10.0
    )


def test_figure2_peer_removal():
    series = _run()
    print_series_summary("Figure 2: disorder after a single peer removal", series)
    max_disorders = {
        label: float(data["max_disorder"][0]) for label, data in series.items()
    }
    # Disorder after an atomic alteration stays tiny (paper: ~0.01 scale).
    assert all(value < 0.05 for value in max_disorders.values())
    # Domino effect: removing the best peer is at least as disruptive as
    # removing a low-ranked one.
    assert max_disorders["peer 1 removed"] >= max_disorders["peer 600 removed"]
