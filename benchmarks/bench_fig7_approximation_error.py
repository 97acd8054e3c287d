"""Figure 7: the independence approximation error on the 3-peer system.

The exact enumeration gives D(2,3) = p(1-p)^2 while Algorithm 2 gives
p(1-p)(1-p(1-p)); the gap is exactly p^3(1-p), negligible for the small
edge probabilities used in practice.
"""

from __future__ import annotations

import pytest

from repro.analytical.exact_small import exact_match_probabilities
from repro.experiments import figure7_approximation_error

PROBABILITIES = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)


def _run():
    return figure7_approximation_error(PROBABILITIES)


def test_figure7_approximation_error():
    table = _run()
    print("\n" + table.to_text())
    for row in table.to_records():
        p = row["p"]
        if row["pair"] == "2-3":
            # The error is exactly p^3 (1 - p).
            assert row["error"] == pytest.approx(p**3 * (1 - p), abs=1e-12)
        else:
            # Pairs involving the best peer carry no approximation error.
            assert row["error"] == pytest.approx(0.0, abs=1e-12)
    # Cross-check the closed forms against brute-force graph enumeration.
    matrix = exact_match_probabilities(3, 0.3)
    reference = {r["pair"]: r["exact"] for r in table.to_records() if r["p"] == 0.3}
    assert matrix[0, 1] == pytest.approx(reference["1-2"])
    assert matrix[1, 2] == pytest.approx(reference["2-3"])
