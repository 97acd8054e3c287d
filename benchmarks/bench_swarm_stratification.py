"""Section 6 end-to-end: a Tit-for-Tat swarm stratifies by bandwidth.

The paper argues (and references Bharambe et al. / Legout et al. for
measurements) that TFT exchanges cluster peers of similar upload capacity.
This benchmark runs the full swarm simulator -- tracker discovery, TFT +
optimistic choking, rarest-first piece selection -- and checks that
reciprocated TFT pairs correlate strongly in bandwidth rank while download
rates track upload capacity.
"""

from __future__ import annotations

from repro.experiments import swarm_stratification_experiment


def _run():
    return swarm_stratification_experiment(
        leechers=50, rounds=100, piece_count=800, seed=21
    )


def test_swarm_stratification():
    metrics = _run()
    print("\nSwarm stratification experiment:")
    for key, value in metrics.items():
        print(f"  {key}: {value:.3f}")

    # Reciprocated TFT partners have strongly correlated bandwidth ranks.
    assert metrics["stratification_index"] > 0.3
    # Download rates follow upload capacity (the TFT incentive works).
    assert metrics["upload_download_correlation"] > 0.4
    # Everyone eventually completes the download.
    assert metrics["completed"] == 50
