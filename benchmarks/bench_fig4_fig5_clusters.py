"""Figures 4 and 5: clustering of constant b-matching on a complete graph.

Constant b0-matching shatters the collaboration graph into (b0+1)-cliques
(Figure 4); granting one extra connection to the best peer reconnects the
whole graph (Figure 5).
"""

from __future__ import annotations

from repro.experiments import figure4_figure5_clusters


def _run():
    return figure4_figure5_clusters(b0=2, n=3 * 1000)


def test_figure4_figure5_clusters():
    table = _run()
    print("\n" + table.to_text())
    rows = table.to_records()
    constant, extra = rows
    # Figure 4: n/(b0+1) disjoint cliques of size b0+1.
    assert constant["largest_cluster"] == 3
    assert constant["clusters"] == 1000
    assert constant["connected"] is False
    # Figure 5: a single extra connection merges everything.
    assert extra["connected"] is True
    assert extra["largest_cluster"] == 3000
