"""Figure 11: expected download/upload ratio as a function of the offered upload.

Paper setting: b0 = 3 Tit-for-Tat slots (default 4 minus the optimistic one),
d = 20 acceptable peers on average, bandwidths from the Saroiu distribution.
Qualitative shape to reproduce: best peers sit below ratio 1, peers inside a
bandwidth density peak sit near 1, efficiency peaks appear just above the
density peaks, and the lowest peers still achieve a decent ratio.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import figure11_efficiency

N = 1000
B0 = 3
EXPECTED_DEGREE = 20.0


def _run():
    return figure11_efficiency(n=N, b0=B0, expected_degree=EXPECTED_DEGREE, seed=17)


def test_figure11_efficiency():
    result = _run()
    observations = result["observations"]
    print("\nFigure 11: expected D/U ratio vs upload bandwidth per slot")
    efficiency = np.asarray(result["efficiency"])
    upload = np.asarray(result["upload_per_slot"])
    deciles = np.linspace(0, len(upload) - 1, 11).astype(int)
    for index in deciles:
        print(f"  upload/slot={upload[index]:9.1f} kbps  ratio={efficiency[index]:.3f}")
    print("  observations: " + ", ".join(f"{k}={v:.3f}" for k, v in observations.items()))

    # Best peers suffer from low share ratios (< 1).
    assert observations["best_peer_efficiency"] < 1.0
    # Typical peers (density peaks) are close to ratio 1.
    assert 0.7 <= observations["median_efficiency"] <= 1.6
    # Efficiency peaks above 1 appear (peers just above a density peak).
    assert observations["max_efficiency"] > 1.5
    # The ratio spans roughly the 0.4 .. 2.4 band the paper plots.
    assert efficiency.min() > 0.1
    assert efficiency.max() < 10.0
