"""Figure 8: mate-rank distributions in independent 1-matching (n=5000, p=0.5%).

Three regimes: a well-ranked peer (200) pairs downwards with a near-geometric
tail; a central peer (2500) has a symmetric distribution that merely shifts
with its rank (stratification / finite-horizon property); a badly-ranked
peer (4800) sees the shifted distribution truncated by the end of the
ranking and keeps a positive probability of staying unmatched.
"""

from __future__ import annotations


from repro.analytical.distributions import MateDistribution, shift_similarity
from repro.analytical.one_matching import independent_one_matching
from repro.experiments import figure8_neighbor_distributions

N = 5000
P = 0.005
PEERS = (200, 2500, 4800)


def _run():
    return figure8_neighbor_distributions(PEERS, n=N, p=P)


def test_figure8_neighbor_distributions():
    stats = _run()
    print("\nFigure 8: distribution summaries")
    for peer in PEERS:
        print(f"  peer {peer}: " + ", ".join(f"{k}={v:.4g}" for k, v in stats[peer].items()))

    good, central, bad = (stats[p] for p in PEERS)
    # Good peer: pairs strictly downwards on average, asymmetric to the right.
    assert good["mean_offset"] > 0
    assert good["asymmetry"] > 0.1
    assert good["unmatched_probability"] < 0.01
    # Central peer: symmetric, centred on its own rank, always matched.
    assert abs(central["mean_offset"]) < 0.05 * N
    assert abs(central["asymmetry"]) < 0.05
    # Bad peer: truncated distribution, positive unmatched probability.
    assert bad["unmatched_probability"] > 0.02
    assert bad["mean_offset"] < 0

    # Stratification: central distributions are pure shifts of each other.
    model = independent_one_matching(N, P, rows=[2000, 2500, 3000])
    a = MateDistribution(2000, model.row(2000))
    b = MateDistribution(3000, model.row(3000))
    assert shift_similarity(a, b) > 0.97
