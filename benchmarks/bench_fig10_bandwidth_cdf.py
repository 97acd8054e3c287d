"""Figure 10: the upstream-bandwidth distribution fed into the Section 6 model.

The paper uses the Saroiu et al. Gnutella measurements; this repository
substitutes a log-normal mixture with density peaks at the same typical
access technologies.  The benchmark regenerates the cumulative curve and
checks its qualitative shape (wide spread over 4 orders of magnitude, most
hosts between modem and cable rates).
"""

from __future__ import annotations

import numpy as np

from repro.bittorrent.bandwidth import saroiu_like_distribution
from repro.experiments import figure10_bandwidth_cdf


def _run():
    return figure10_bandwidth_cdf(points=60)


def test_figure10_bandwidth_cdf():
    table = _run()
    print("\n" + table.to_text(float_format=".3g"))
    upstream = np.asarray(table.column("upstream_kbps"), dtype=float)
    hosts = np.asarray(table.column("percentage_of_hosts"), dtype=float)
    # Monotone CDF spanning the full percentage range.
    assert np.all(np.diff(hosts) >= -1e-9)
    assert hosts[0] < 10.0 and hosts[-1] > 95.0
    # The spread covers 10 kbps .. 100 Mbps (Figure 10's x-axis).
    assert upstream[0] <= 10.0 * 1.01 and upstream[-1] >= 1e5 * 0.99

    distribution = saroiu_like_distribution()
    # Most hosts sit between modem and cable rates (the paper's "wide
    # distribution" with pronounced peaks at common access technologies).
    mass_low = float(distribution.cdf(2000.0) - distribution.cdf(50.0))
    assert mass_low > 0.6
