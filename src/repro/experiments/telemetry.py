"""The ``telemetry`` experiment: ground truth vs the simulated measurer.

Runs one observed swarm (churning by default -- measurement error is a
churn phenomenon) and prints what an omniscient reader and a
scrape-and-poll study would each conclude about it: completions vs
reported vs confirmed downloads, true vs observed download-time CDFs,
true vs observed stratification index, and the sensitivity of the
confirmed count to the progress threshold.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.bittorrent.analysis import DEFAULT_THRESHOLDS, telemetry_report
from repro.bittorrent.telemetry import ObserverConfig
from repro.experiments.sweep import run_experiment_swarm
from repro.sim.parallel import CacheLike, SweepTask, run_sweep

__all__ = ["telemetry_experiment"]


def _telemetry_point(
    leechers: int,
    rounds: int,
    piece_count: int,
    seed: int,
    engine: str,
    scenario: "str | None",
    scrape_interval: int,
    poll_interval: int,
    poll_budget: Optional[int],
    confirm_threshold: float,
    thresholds: Sequence[float],
) -> Dict[str, Dict[str, np.ndarray]]:
    """One observed swarm run -- a self-contained sweep task."""
    observer = ObserverConfig(
        scrape_interval=scrape_interval,
        poll_interval=poll_interval,
        poll_budget=poll_budget,
        confirm_threshold=confirm_threshold,
    )
    result = run_experiment_swarm(
        leechers, rounds, piece_count, seed, engine, scenario=scenario, observer=observer
    )
    return telemetry_report(result, result.observed, tuple(thresholds))


def telemetry_experiment(
    *,
    leechers: int = 40,
    rounds: int = 80,
    piece_count: int = 600,
    seed: int = 0,
    engine: str = "reference",
    scenario: "str | None" = "poisson",
    scrape_interval: int = 2,
    poll_interval: int = 2,
    poll_budget: Optional[int] = 25,
    confirm_threshold: float = 0.98,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Measure a churning swarm the way a real scrape-and-poll study would.

    The default campaign scrapes every other round and polls 25 of the
    (40-and-growing) peers on the same cadence, under Poisson arrivals
    with leave-on-completion -- the regime where finite poll budgets make
    the observer miss completions, so the confirmed count (threshold 98%)
    undershoots the ground truth while low thresholds overshoot it.  The
    returned sections mirror :func:`repro.bittorrent.analysis.
    telemetry_report`; ``engine="fast"`` produces the identical report.
    """
    task = SweepTask(
        _telemetry_point,
        dict(
            leechers=leechers,
            rounds=rounds,
            piece_count=piece_count,
            seed=seed,
            engine=engine,
            scenario=scenario,
            scrape_interval=scrape_interval,
            poll_interval=poll_interval,
            poll_budget=poll_budget,
            confirm_threshold=confirm_threshold,
            thresholds=tuple(float(t) for t in thresholds),
        ),
        label="telemetry",
    )
    return run_sweep([task], workers=workers, cache=cache)[0]
