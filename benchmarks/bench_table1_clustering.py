"""Table 1: clustering and stratification properties in a complete knowledge graph.

Paper values (constant b0-matching): cluster size b0 + 1 and
MMO = 1.67, 2.5, 3.2, 4, 4.71, 5.5 for b0 = 2..7.
With b ~ N(b, 0.2) the cluster size explodes (roughly factorially in b)
while the MMO falls below the constant value.
"""

from __future__ import annotations

from repro.experiments import table1_clustering

B_VALUES = (2, 3, 4, 5, 6, 7)
PAPER_CONSTANT_MMO = {2: 1.67, 3: 2.5, 4: 3.2, 5: 4.0, 6: 4.71, 7: 5.5}


def _run():
    return table1_clustering(B_VALUES, sigma=0.2, repetitions=2, seed=11)


def test_table1_clustering():
    table = _run()
    print("\n" + table.to_text())
    rows = {int(row["b"]): row for row in table.to_records()}
    for b in B_VALUES:
        row = rows[b]
        # Constant-matching columns are exact.
        assert row["constant_cluster_size"] == b + 1
        assert abs(row["constant_mmo"] - PAPER_CONSTANT_MMO[b]) < 0.01
        # Variable matching: clusters are (much) larger, MMO is smaller.
        assert row["normal_cluster_size"] > row["constant_cluster_size"]
        assert row["normal_mmo"] < row["constant_mmo"]
    # The explosion accelerates with b (factorial-style growth).
    assert rows[5]["normal_cluster_size"] > 3 * rows[3]["normal_cluster_size"]
    assert rows[7]["normal_cluster_size"] > 3 * rows[5]["normal_cluster_size"]
