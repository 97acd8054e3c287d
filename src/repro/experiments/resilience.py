"""Resilience sweeps: graceful degradation under tracker outages.

The fault sweeps (:mod:`repro.experiments.faults`) measure how badly an
unreliable substrate hurts a *defenseless* swarm; this driver measures how
much of the damage the client-side defenses of
:mod:`repro.bittorrent.resilience` buy back.  The ``resilience-sweep``
experiment runs a small grid -- one swarm per (resilience level, outage
duration) -- and reports per level a degradation curve of completion
counts, completion times and the stratification index vs the outage
duration, so "off" vs "failover" vs "full" can be read off side by side.

Point functions take only picklable primitives (both the fault schedule
and the resilience policy travel as spec *strings*), so sweeps
parallelize across processes and hit the on-disk result cache like every
other experiment.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.bittorrent.resilience import make_resilience
from repro.bittorrent.swarm import stratification_index
from repro.experiments.faults import outage_axis
from repro.experiments.sweep import curve_table, replicated_means, run_experiment_swarm
from repro.sim.parallel import CacheLike

__all__ = ["resilience_sweep_experiment"]

DEFAULT_LEVELS = ("off", "failover", "full")
DEFAULT_OUTAGES = (0, 2, 4, 8)


def _mean_completion_round(result) -> float:
    """Across completed leechers, the mean completion round (nan if none)."""
    rounds = [
        peer.completed_round
        for peer in result.peers.values()
        if not peer.is_seed and peer.completed_round is not None
    ]
    return float(np.mean(rounds)) if rounds else float("nan")


def _resilience_point(
    leechers: int,
    rounds: int,
    piece_count: int,
    seed: int,
    engine: str,
    scenario: str,
    faults: str,
    resilience: str,
) -> Dict[str, float]:
    """One seeded swarm under one (faults, resilience) pair."""
    result = run_experiment_swarm(
        leechers,
        rounds,
        piece_count,
        seed,
        engine,
        scenario=scenario or None,
        faults=faults or None,
        resilience=resilience if resilience != "off" else None,
    )
    stats = result.resilience
    return {
        "stratification_index": stratification_index(result),
        "completed": float(result.completed),
        "mean_completion_round": _mean_completion_round(result),
        "rounds_run": float(result.rounds_run),
        "failover_announces": float(stats.failover_announces if stats else 0),
        "pex_introductions": float(stats.pex_introductions if stats else 0),
        "pex_bootstraps": float(stats.pex_bootstraps if stats else 0),
        "evictions": float(stats.evictions if stats else 0),
    }


def resilience_sweep_experiment(
    *,
    leechers: int = 40,
    rounds: int = 80,
    piece_count: int = 600,
    seed: int = 0,
    engine: str = "reference",
    scenario: str = "poisson",
    levels: Sequence[str] = DEFAULT_LEVELS,
    outages: Sequence[int] = DEFAULT_OUTAGES,
    outage_start: int = 10,
    extra_faults: str = "",
    repetitions: int = 1,
    workers: int = 1,
    cache: CacheLike = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Degradation curves per resilience level vs tracker-outage duration.

    For each ``level`` (a resilience preset or spec -- ``"off"`` runs the
    defenseless default) and each duration ``d`` in ``outages`` the swarm
    runs with the fault spec ``"outage:{outage_start}+{d}/all"`` (``d = 0``
    is the fault-free baseline).  Targeting *all* replicas makes the
    outage total for every level, so the curves isolate what PEX gossip
    and eviction buy during the blackout; failover's advantage under
    *partial* outages is covered by the benchmark and the test suite
    instead, since it needs per-replica windows.  ``extra_faults``
    appends further comma-separated events (e.g. ``"crash:5@12~6"``) to
    every faulty point.  Replications run and average through
    :func:`~repro.experiments.sweep.replicated_means`, as in every swarm
    sweep: one :class:`~repro.sim.parallel.SeedTree`, replication ``0``
    keeps the root seed, curves are across-replication means.  Works on
    either engine; ``engine="fast"`` is bit-identical.
    """
    cleaned, specs = outage_axis(outages, outage_start, extra_faults, "/all")
    if not levels:
        raise ValueError("need at least one resilience level")
    for level in levels:
        if level != "off":
            make_resilience(level)  # validate early, before any sweep work

    cells = [
        (
            f"resilience#{level}outage{duration}",
            dict(
                leechers=leechers,
                rounds=rounds,
                piece_count=piece_count,
                engine=engine,
                scenario=scenario,
                faults=spec,
                resilience=level,
            ),
        )
        for level in levels
        for duration, spec in zip(cleaned, specs)
    ]
    means = replicated_means(
        _resilience_point,
        cells,
        seed=seed,
        repetitions=repetitions,
        workers=workers,
        cache=cache,
    )
    width = len(cleaned)
    return {
        level: curve_table(
            "outage_rounds", cleaned, means[li * width : (li + 1) * width]
        )
        for li, level in enumerate(levels)
    }
