"""Behavior-mix sweeps: stratification under adversarial populations.

The paper's stratification argument assumes obedient, homogeneous-client
peers whose only heterogeneity is upload capacity.  The behavior layer
(:mod:`repro.bittorrent.behaviors`) breaks that assumption per peer; this
driver measures what the break does to the headline statistic.  The
``behavior-sweep`` experiment runs one swarm per free-rider fraction
(seeded from one :class:`~repro.sim.parallel.SeedTree`, replications
averaged) and reports, per fraction:

* the overall stratification index (every leecher ranked),
* the index restricted to the ``standard`` peers (does stratification
  among the obedient survive the adversaries?),
* per-behavior-class completion fractions and mean download rates / share
  ratios (do free-riders actually download slower, as Tit-for-Tat
  predicts?).

Point functions take only picklable primitives (the mix travels as a spec
*string*), so sweeps parallelize across processes and hit the on-disk
result cache like every other experiment.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.bittorrent.analysis import behavior_report, behavior_stratification
from repro.experiments.sweep import curve_table, replicated_means, run_experiment_swarm
from repro.sim.parallel import CacheLike

__all__ = ["behavior_sweep_experiment"]

DEFAULT_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _behavior_point(
    leechers: int,
    rounds: int,
    piece_count: int,
    seed: int,
    engine: str,
    behavior_mix: str,
) -> Dict[str, float]:
    """One seeded swarm under one behavior mix -- a self-contained sweep task."""
    result = run_experiment_swarm(
        leechers, rounds, piece_count, seed, engine, behaviors=behavior_mix
    )
    strat = behavior_stratification(result)
    metrics = {
        "stratification_index": strat["overall"],
        "standard_stratification_index": strat["standard_only"],
        "completed": float(result.completed),
        "rounds_run": float(result.rounds_run),
    }
    for name, row in behavior_report(result).items():
        metrics[f"{name}_peers"] = row["peers"]
        metrics[f"{name}_completion_fraction"] = row["completion_fraction"]
        metrics[f"{name}_mean_download_rate_kbps"] = row["mean_download_rate_kbps"]
        metrics[f"{name}_mean_share_ratio"] = row["mean_share_ratio"]
    return metrics


def behavior_sweep_experiment(
    *,
    leechers: int = 40,
    rounds: int = 80,
    piece_count: int = 600,
    seed: int = 0,
    engine: str = "reference",
    behavior: str = "free_rider",
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    repetitions: int = 1,
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Stratification index vs adversarial-peer fraction.

    For each fraction ``f`` the swarm runs with the mix ``"{behavior}:f"``
    (default: free-riders with capped upload); ``f = 0`` is the obedient
    baseline.  Replications run and average through
    :func:`~repro.experiments.sweep.replicated_means`, as in every swarm
    sweep: replication ``0`` keeps the root seed, further replications
    draw theirs from the :class:`~repro.sim.parallel.SeedTree`, and the
    reported curves are across-replication means.  The returned mapping
    is ``fractions`` plus one array per metric, aligned with the fraction
    axis; per-class columns (``standard_*``, ``{behavior}_*``) expose how
    each population fares as the adversaries multiply, and read ``nan``
    at a fraction where the class has no peers.

    Works on either engine; ``engine="fast"`` is bit-identical and is what
    makes paper-scale populations practical.
    """
    cleaned = sorted({float(f) for f in fractions})
    if not cleaned:
        raise ValueError("need at least one fraction")
    if cleaned[0] < 0.0 or cleaned[-1] > 1.0:
        raise ValueError("fractions must lie in [0, 1]")

    cells = [
        (
            f"behavior#{behavior}@{fraction:g}",
            dict(
                leechers=leechers,
                rounds=rounds,
                piece_count=piece_count,
                engine=engine,
                behavior_mix=(
                    "standard:1" if fraction == 0.0 else f"{behavior}:{fraction}"
                ),
            ),
        )
        for fraction in cleaned
    ]
    means = replicated_means(
        _behavior_point,
        cells,
        seed=seed,
        repetitions=repetitions,
        workers=workers,
        cache=cache,
    )
    return {"curves": curve_table("fractions", cleaned, means)}
